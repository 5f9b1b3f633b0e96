// Randomized property tests across the code zoo:
//  * arbitrary cell-erasure patterns: whatever the solver declares
//    decodable must decode byte-exactly; any <= 2-cell pattern and any
//    pattern confined to <= 2 columns must be decodable;
//  * decodability is monotone (a subset of a decodable pattern is
//    decodable);
//  * encode/decode round trips over many seeds and odd block sizes;
//  * a model-checked sub-block op stream through the controller's
//    delta write plane (unaligned offsets, 1-byte writes, exact
//    block-end ranges, overlapping ranges in one batch, knob flips).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "migration/disk_array.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"

namespace c56 {
namespace {

struct Param {
  CodeId id;
  int p;
};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string n = to_string(info.param.id);
  for (char& c : n) {
    if (c == ' ' || c == '-') c = '_';
  }
  return n + "_p" + std::to_string(info.param.p);
}

class FuzzTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override { code_ = make_code(GetParam().id, GetParam().p); }

  Buffer encoded(std::size_t block, std::uint64_t seed) const {
    Buffer buf(static_cast<std::size_t>(code_->cell_count()) * block);
    StripeView v =
        StripeView::over(buf, code_->rows(), code_->cols(), block);
    Rng rng(seed);
    for (int r = 0; r < code_->rows(); ++r) {
      for (int c = 0; c < code_->cols(); ++c) {
        if (code_->kind({r, c}) == CellKind::kData) {
          auto blk = v.block({r, c});
          rng.fill(blk.data(), blk.size());
        }
      }
    }
    code_->encode(v);
    return buf;
  }

  std::vector<int> non_virtual_cells() const {
    std::vector<int> out;
    for (int r = 0; r < code_->rows(); ++r) {
      for (int c = 0; c < code_->cols(); ++c) {
        if (code_->kind({r, c}) != CellKind::kVirtual) {
          out.push_back(flat_index({r, c}, code_->cols()));
        }
      }
    }
    return out;
  }

  std::unique_ptr<ErasureCode> code_;
};

TEST_P(FuzzTest, RandomCellErasuresDecodeWhenSolvable) {
  constexpr std::size_t kBlock = 8;
  const Buffer original = encoded(kBlock, 42);
  const std::vector<int> cells = non_virtual_cells();
  Rng rng(7);
  int solvable = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Random subset of 1..2(rows) cells.
    const std::size_t k =
        1 + rng.next_below(2 * static_cast<std::uint64_t>(code_->rows()));
    std::set<int> erased_set;
    while (erased_set.size() < k) {
      erased_set.insert(
          cells[rng.next_below(cells.size())]);
    }
    const std::vector<int> erased(erased_set.begin(), erased_set.end());
    auto recipes = code_->solve_cells(erased);
    if (!recipes) continue;
    ++solvable;
    Buffer work = original;
    StripeView v =
        StripeView::over(work, code_->rows(), code_->cols(), kBlock);
    for (int e : erased) {
      auto blk = v.block(e);
      rng.fill(blk.data(), blk.size());
    }
    ErasureCode::apply_recipes(v, *recipes);
    EXPECT_TRUE(work == original)
        << "trial " << trial << " erased "
        << ::testing::PrintToString(erased);
  }
  EXPECT_GT(solvable, 50);  // the sweep must actually exercise decoding
}

TEST_P(FuzzTest, AnyTwoCellErasureIsDecodable) {
  const std::vector<int> cells = non_virtual_cells();
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    int a = cells[rng.next_below(cells.size())];
    int b = cells[rng.next_below(cells.size())];
    if (a == b) continue;
    const std::vector<int> erased{a, b};
    EXPECT_TRUE(code_->solve_cells(erased).has_value())
        << "cells " << a << "," << b;
  }
}

TEST_P(FuzzTest, DecodabilityIsMonotone) {
  const std::vector<int> cells = non_virtual_cells();
  Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    std::set<int> erased_set;
    const std::size_t k = 2 + rng.next_below(
        2 * static_cast<std::uint64_t>(code_->rows()) - 1);
    while (erased_set.size() < k) {
      erased_set.insert(cells[rng.next_below(cells.size())]);
    }
    std::vector<int> erased(erased_set.begin(), erased_set.end());
    if (!code_->solve_cells(erased)) continue;
    // Drop one element: still solvable.
    erased.erase(erased.begin() +
                 static_cast<std::ptrdiff_t>(rng.next_below(erased.size())));
    EXPECT_TRUE(code_->solve_cells(erased).has_value());
  }
}

TEST_P(FuzzTest, RoundTripAcrossSeedsAndBlockSizes) {
  for (const std::size_t block : {1u, 3u, 8u, 17u, 64u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Buffer original = encoded(block, seed);
      StripeView v = StripeView::over(original, code_->rows(),
                                      code_->cols(), block);
      ASSERT_TRUE(code_->verify(v)) << "block=" << block << " seed=" << seed;
      Buffer work = original;
      StripeView w =
          StripeView::over(work, code_->rows(), code_->cols(), block);
      Rng junk(seed * 977);
      const std::vector<int> cols{1, code_->cols() - 1};
      for (int c : cols) {
        for (int r = 0; r < code_->rows(); ++r) {
          auto blk = w.block({r, c});
          junk.fill(blk.data(), blk.size());
        }
      }
      ASSERT_TRUE(code_->decode_columns(w, cols).has_value());
      EXPECT_TRUE(work == original) << "block=" << block << " seed=" << seed;
    }
  }
}

TEST_P(FuzzTest, ParityCorruptionIsRepairableViaReencode) {
  constexpr std::size_t kBlock = 16;
  Buffer original = encoded(kBlock, 5);
  Buffer work = original;
  StripeView v = StripeView::over(work, code_->rows(), code_->cols(), kBlock);
  Rng junk(6);
  // Corrupt every parity cell; re-encoding from intact data restores.
  for (int r = 0; r < code_->rows(); ++r) {
    for (int c = 0; c < code_->cols(); ++c) {
      if (is_parity(code_->kind({r, c}))) {
        auto blk = v.block({r, c});
        junk.fill(blk.data(), blk.size());
      }
    }
  }
  EXPECT_FALSE(code_->verify(v));
  code_->encode(v);
  EXPECT_TRUE(work == original);
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (CodeId id : all_code_ids()) {
    out.push_back({id, 5});
    out.push_back({id, 11});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Zoo, FuzzTest, ::testing::ValuesIn(all_params()),
                         param_name);

/// Model-checked fuzz of the controller's sub-block delta plane: a
/// stream of randomly shaped write_range ops — unaligned interiors,
/// 1-byte writes, ranges ending exactly at the block boundary, full
/// blocks, zero-length no-ops, and batches whose entries overlap
/// inside one block — against a flat byte model, with the delta knob
/// flipped mid-stream. Every range read must match the model and every
/// stripe must scrub clean at the end.
class SubBlockFuzzTest : public ::testing::TestWithParam<Param> {};

TEST_P(SubBlockFuzzTest, RandomOpStreamMatchesByteModel) {
  constexpr std::size_t kBlock = 32;
  constexpr std::int64_t kStripes = 3;
  auto code = make_code(GetParam().id, GetParam().p);
  mig::DiskArray array(code->cols(), kStripes * code->rows(), kBlock);
  mig::ArrayController ctrl(array, std::move(code));
  const std::int64_t total = ctrl.logical_blocks();
  std::vector<std::uint8_t> model(static_cast<std::size_t>(total) * kBlock);
  Rng rng(0xF0220 + static_cast<std::uint64_t>(GetParam().p));
  // Seed through the whole-block path; the model follows.
  Buffer buf(kBlock);
  for (std::int64_t l = 0; l < total; ++l) {
    rng.fill(buf.data(), kBlock);
    ctrl.write(l, buf.span());
    std::copy(buf.span().begin(), buf.span().end(),
              model.begin() + static_cast<std::size_t>(l) * kBlock);
  }

  const auto random_range = [&]() -> std::pair<std::size_t, std::size_t> {
    switch (rng.next_below(6)) {
      case 0:  // 1-byte write
        return {static_cast<std::size_t>(rng.next_below(kBlock)), 1};
      case 1: {  // exact block-end range
        const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
        return {off, kBlock - off};
      }
      case 2:  // full block
        return {0, kBlock};
      case 3:  // zero-length no-op at a random offset
        return {static_cast<std::size_t>(rng.next_below(kBlock + 1)), 0};
      default: {  // unaligned interior
        const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
        return {off, 1 + static_cast<std::size_t>(rng.next_below(kBlock - off))};
      }
    }
  };
  const auto patch_model = [&](std::int64_t l, std::size_t off,
                               std::span<const std::uint8_t> in) {
    std::copy(in.begin(), in.end(),
              model.begin() + static_cast<std::size_t>(l) * kBlock + off);
  };

  Buffer scratch(8 * kBlock);
  Buffer got(kBlock);
  for (int op = 0; op < 300; ++op) {
    if (op == 180) ctrl.set_subblock_delta(false);
    if (op == 240) ctrl.set_subblock_delta(true);
    const auto kind = rng.next_below(4);
    if (kind == 0) {
      // Batch with overlapping entries: half the entries target one
      // block, later entries must win on overlap.
      const int n = 2 + static_cast<int>(rng.next_below(6));
      const auto base = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(total)));
      rng.fill(scratch.data(), scratch.size());
      std::vector<mig::ArrayController::SubWrite> batch;
      for (int i = 0; i < n; ++i) {
        const std::int64_t l =
            rng.next_below(2) == 0
                ? base
                : static_cast<std::int64_t>(
                      rng.next_below(static_cast<std::uint64_t>(total)));
        const auto [off, len] = random_range();
        batch.push_back({l, static_cast<std::int64_t>(off),
                         scratch.span().subspan(i * kBlock + off, len)});
      }
      ctrl.write_range(batch);
      for (const auto& w : batch) {
        patch_model(w.logical, static_cast<std::size_t>(w.offset), w.data);
      }
    } else if (kind == 1) {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(total)));
      const auto [off, len] = random_range();
      ctrl.read_range(l, static_cast<std::int64_t>(off),
                      got.span().subspan(0, len));
      ASSERT_TRUE(std::equal(
          got.span().begin(), got.span().begin() + len,
          model.begin() + static_cast<std::size_t>(l) * kBlock + off))
          << "op " << op << " read logical " << l << " off " << off;
    } else {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(total)));
      const auto [off, len] = random_range();
      rng.fill(scratch.data(), len);
      const auto data = scratch.span().subspan(0, len);
      ctrl.write_range(l, static_cast<std::int64_t>(off), data);
      patch_model(l, off, data);
    }
  }
  EXPECT_TRUE(ctrl.scrub().empty());
  for (std::int64_t l = 0; l < total; ++l) {
    ctrl.read(l, got.span());
    ASSERT_TRUE(std::equal(
        got.span().begin(), got.span().end(),
        model.begin() + static_cast<std::size_t>(l) * kBlock))
        << "final read diverged at logical " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, SubBlockFuzzTest,
                         ::testing::ValuesIn(all_params()), param_name);

}  // namespace
}  // namespace c56
