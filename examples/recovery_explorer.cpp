// Interactive-ish tour of Code 5-6 recovery: prints the stripe layout,
// then walks Algorithm 1 for a chosen pair of failed disks, showing the
// recovery-chain structure of Fig. 5 and the hybrid single-disk
// recovery of Fig. 6.
//
//   $ ./recovery_explorer [p] [f1] [f2]

#include <cstdio>
#include <cstdlib>

#include "codes/code56.hpp"
#include "gf2/chain_solver.hpp"
#include "util/prime.hpp"
#include "util/rng.hpp"

using namespace c56;

namespace {

char glyph(const Code56& code, Cell c) {
  switch (code.kind(c)) {
    case CellKind::kData: return '.';
    case CellKind::kRowParity: return 'H';
    case CellKind::kDiagParity: return 'D';
    case CellKind::kVirtual: return '-';
    default: return '?';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 5;
  const int f1 = argc > 2 ? std::atoi(argv[2]) : 1;
  const int f2 = argc > 3 ? std::atoi(argv[3]) : 2;
  Code56 code(p);
  if (f1 < 0 || f2 <= f1 || f2 >= code.cols()) {
    std::fprintf(stderr, "need 0 <= f1 < f2 < %d\n", code.cols());
    return 2;
  }

  std::printf("Layout of %s (H = horizontal parity, D = diagonal parity):\n\n",
              code.name().c_str());
  std::printf("      ");
  for (int c = 0; c < code.cols(); ++c) std::printf("d%-2d ", c);
  std::printf("\n");
  for (int r = 0; r < code.rows(); ++r) {
    std::printf("row %d  ", r);
    for (int c = 0; c < code.cols(); ++c) {
      std::printf(" %c  ", glyph(code, {r, c}));
    }
    std::printf("\n");
  }

  if (f2 <= p - 2) {
    std::printf(
        "\nTheorem 1 starting points for failures (%d, %d):\n"
        "  C[%d][%d] via its diagonal chain, C[%d][%d] via its diagonal "
        "chain,\nthen rows and diagonals alternate to the anti-diagonal "
        "endpoints C[%d][%d], C[%d][%d].\n",
        f1, f2, f2 - f1 - 1, f1, p - 1 - f2 + f1, f2, p - 2 - f2, f2,
        p - 2 - f1, f1);
  } else {
    std::printf("\nColumn %d is the diagonal-parity disk: rebuild column %d "
                "from the horizontal chains, then re-encode the diagonals "
                "(Case I of Algorithm 1).\n", f2, f1);
  }

  // Run the real decoder and report its I/O.
  constexpr std::size_t kBlock = 4096;
  Buffer buf(static_cast<std::size_t>(code.cell_count()) * kBlock);
  StripeView v = StripeView::over(buf, code.rows(), code.cols(), kBlock);
  Rng rng(11);
  for (int r = 0; r < code.rows(); ++r) {
    for (int c = 0; c < code.cols(); ++c) {
      if (code.kind({r, c}) == CellKind::kData) {
        rng.fill(v.block({r, c}).data(), kBlock);
      }
    }
  }
  code.encode(v);
  const Buffer before = buf;
  Rng junk(13);
  for (int c : {f1, f2}) {
    for (int r = 0; r < code.rows(); ++r) junk.fill(v.block({r, c}).data(), kBlock);
  }
  const std::vector<int> failed{f1, f2};
  const auto stats = code.decode_columns(v, failed);
  std::printf("\ndouble recovery: %s, %zu block reads, %zu XORs\n",
              stats && buf == before ? "ok" : "FAILED",
              stats ? stats->cells_read : 0, stats ? stats->xor_ops : 0);

  bool hybrid_ok = true;
  if (f1 <= p - 2) {
    // Fig. 6: each lost cell takes its row or diagonal chain so that the
    // union of surviving reads is smallest.
    const std::vector<int> lost =
        code.erased_cells_of_columns(std::vector<int>{f1});
    const auto recipes = code.solve_cells(lost);
    std::size_t plain = 0;
    for (const RecoveryRecipe& r : *recipes) plain += r.sources.size();
    const auto plan =
        plan_repair(code.cell_count(), code.chain_specs(), lost, lost);
    Buffer work = before;
    StripeView w = StripeView::over(work, code.rows(), code.cols(), kBlock);
    for (int c : lost) junk.fill(w.block(c).data(), kBlock);
    ErasureCode::apply_recipes(w, plan->recipes);
    hybrid_ok = work == before;
    std::printf(
        "single-disk recovery of disk %d: %s, plain %zu reads, hybrid %zu "
        "reads (%.0f%% fewer)\n",
        f1, hybrid_ok ? "ok" : "FAILED", plain, plan->reads.size(),
        100.0 * (1.0 - static_cast<double>(plan->reads.size()) / plain));
  }
  return stats && buf == before && hybrid_ok ? 0 : 1;
}
