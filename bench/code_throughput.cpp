// Microbenchmarks for Section III-E(2): encoding and decoding
// throughput of every code in the zoo, plus the ablation called out in
// DESIGN.md — Code 5-6's specialized Algorithm 1 decoder vs the generic
// GF(2) solver on identical failures.

#include <benchmark/benchmark.h>

#include "codes/code56.hpp"
#include "codes/registry.hpp"
#include "gf2/chain_solver.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"

namespace {

constexpr std::size_t kBlockSize = 4096;

c56::Buffer encoded_stripe(const c56::ErasureCode& code, std::uint64_t seed) {
  c56::Buffer buf(static_cast<std::size_t>(code.cell_count()) * kBlockSize);
  c56::StripeView v =
      c56::StripeView::over(buf, code.rows(), code.cols(), kBlockSize);
  c56::Rng rng(seed);
  for (int r = 0; r < code.rows(); ++r) {
    for (int c = 0; c < code.cols(); ++c) {
      if (code.kind({r, c}) == c56::CellKind::kData) {
        auto blk = v.block({r, c});
        rng.fill(blk.data(), blk.size());
      }
    }
  }
  code.encode(v);
  return buf;
}

void BM_Encode(benchmark::State& state, c56::CodeId id) {
  const int p = static_cast<int>(state.range(0));
  auto code = c56::make_code(id, p);
  c56::Buffer buf = encoded_stripe(*code, 1);
  c56::StripeView v =
      c56::StripeView::over(buf, code->rows(), code->cols(), kBlockSize);
  for (auto _ : state) {
    code->encode(v);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          code->data_cell_count() * kBlockSize);
  state.SetLabel(code->name());
}

void BM_DecodeTwoColumns(benchmark::State& state, c56::CodeId id,
                         bool generic) {
  const int p = static_cast<int>(state.range(0));
  auto code = c56::make_code(id, p);
  const c56::Buffer original = encoded_stripe(*code, 2);
  const std::vector<int> failed{0, 2};
  for (auto _ : state) {
    c56::Buffer work = original;
    c56::StripeView v =
        c56::StripeView::over(work, code->rows(), code->cols(), kBlockSize);
    auto stats = generic ? code->decode_columns_generic(v, failed)
                         : code->decode_columns(v, failed);
    if (!stats) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(work.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          code->rows() * kBlockSize);
  state.SetLabel(code->name() + (generic ? " [generic]" : " [specialized]"));
}

void BM_HybridSingleRecovery(benchmark::State& state, bool hybrid) {
  const int p = static_cast<int>(state.range(0));
  c56::Code56 code(p);
  const c56::Buffer original = encoded_stripe(code, 3);
  const std::vector<int> lost =
      code.erased_cells_of_columns(std::vector<int>{1});
  for (auto _ : state) {
    c56::Buffer work = original;
    c56::StripeView v =
        c56::StripeView::over(work, code.rows(), code.cols(), kBlockSize);
    const auto recipes =
        hybrid ? c56::plan_repair(code.cell_count(), code.chain_specs(), lost,
                                  lost)
                     ->recipes
               : *code.solve_cells(lost);
    auto stats = c56::ErasureCode::apply_recipes(v, recipes);
    benchmark::DoNotOptimize(stats.cells_read);
  }
  state.SetLabel(hybrid ? "hybrid" : "plain");
}

}  // namespace

#define C56_REGISTER(id, name)                                               \
  BENCHMARK_CAPTURE(BM_Encode, name, id)->Arg(5)->Arg(7)->Arg(13);           \
  BENCHMARK_CAPTURE(BM_DecodeTwoColumns, name##_fast, id, false)             \
      ->Arg(5)                                                               \
      ->Arg(13);                                                             \
  BENCHMARK_CAPTURE(BM_DecodeTwoColumns, name##_generic, id, true)           \
      ->Arg(5)                                                               \
      ->Arg(13);

C56_REGISTER(c56::CodeId::kCode56, code56)
C56_REGISTER(c56::CodeId::kRdp, rdp)
C56_REGISTER(c56::CodeId::kEvenOdd, evenodd)
C56_REGISTER(c56::CodeId::kXCode, xcode)
C56_REGISTER(c56::CodeId::kPCode, pcode)
C56_REGISTER(c56::CodeId::kHCode, hcode)
C56_REGISTER(c56::CodeId::kHdp, hdp)

BENCHMARK_CAPTURE(BM_HybridSingleRecovery, hybrid, true)->Arg(5)->Arg(13);
BENCHMARK_CAPTURE(BM_HybridSingleRecovery, plain, false)->Arg(5)->Arg(13);

BENCHMARK_MAIN();
