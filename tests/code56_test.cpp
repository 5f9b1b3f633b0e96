// Unit tests for Code 5-6 itself: the worked example from the paper,
// layout/RAID-5 compatibility, Algorithm 1, hybrid single-disk recovery
// (Section III-E(4)), virtual disks (Section IV-B2) and the mirrored
// orientation (Fig. 7).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "codes/code56.hpp"
#include "gf2/chain_solver.hpp"
#include "util/prime.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"
#include "xorblk/xor.hpp"

namespace c56 {
namespace {

constexpr std::size_t kBlock = 8;

Buffer make_encoded(const Code56& code, std::uint64_t seed = 1) {
  Buffer buf(static_cast<std::size_t>(code.cell_count()) * kBlock);
  StripeView v = StripeView::over(buf, code.rows(), code.cols(), kBlock);
  Rng rng(seed);
  for (int r = 0; r < code.rows(); ++r) {
    for (int c = 0; c < code.cols(); ++c) {
      if (code.kind({r, c}) == CellKind::kData) {
        auto blk = v.block({r, c});
        rng.fill(blk.data(), blk.size());
      }
    }
  }
  code.encode(v);
  return buf;
}

TEST(Code56, RejectsInvalidParameters) {
  EXPECT_THROW(Code56(4), std::invalid_argument);
  EXPECT_THROW(Code56(9), std::invalid_argument);
  EXPECT_THROW(Code56(5, 5), std::invalid_argument);
  EXPECT_THROW(Code56(5, -1), std::invalid_argument);
  EXPECT_THROW(Code56(5, 1, Code56Orientation::kRight),
               std::invalid_argument);
  EXPECT_NO_THROW(Code56(5));
  EXPECT_NO_THROW(Code56(7, 2));
}

TEST(Code56, LayoutMatchesPaperFigure4) {
  // p=5: 4x5 matrix; horizontal parities on the anti-diagonal of the
  // leading square, diagonal parities in column 4.
  Code56 code(5);
  EXPECT_EQ(code.rows(), 4);
  EXPECT_EQ(code.cols(), 5);
  EXPECT_EQ(code.kind({0, 3}), CellKind::kRowParity);
  EXPECT_EQ(code.kind({1, 2}), CellKind::kRowParity);
  EXPECT_EQ(code.kind({2, 1}), CellKind::kRowParity);
  EXPECT_EQ(code.kind({3, 0}), CellKind::kRowParity);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(code.kind({r, 4}), CellKind::kDiagParity);
  EXPECT_EQ(code.kind({0, 0}), CellKind::kData);
  EXPECT_EQ(code.data_cell_count(), 12);
  EXPECT_EQ(code.parity_cell_count(), 8);
}

TEST(Code56, PaperWorkedExampleC14) {
  // Section III-A: C_{1,4} = C_{0,0} ^ C_{3,2} ^ C_{2,3}.
  Code56 code(5);
  Buffer buf = make_encoded(code);
  StripeView v = StripeView::over(buf, 4, 5, kBlock);
  Buffer expect(kBlock);
  xor_into(expect.span(), v.block({0, 0}));
  xor_into(expect.span(), v.block({3, 2}));
  xor_into(expect.span(), v.block({2, 3}));
  EXPECT_TRUE(std::ranges::equal(expect.span(), v.block({1, 4})));
}

TEST(Code56, HorizontalParityExampleC03) {
  // Section III-A: C_{0,3} = C_{0,0} ^ C_{0,1} ^ C_{0,2}.
  Code56 code(5);
  Buffer buf = make_encoded(code);
  StripeView v = StripeView::over(buf, 4, 5, kBlock);
  Buffer expect(kBlock);
  for (int j = 0; j < 3; ++j) xor_into(expect.span(), v.block({0, j}));
  EXPECT_TRUE(std::ranges::equal(expect.span(), v.block({0, 3})));
}

TEST(Code56, DiagonalChainsContainOnlyDataCells) {
  // The property that makes update complexity optimal for every p.
  for (int p : {5, 7, 11, 13, 17}) {
    Code56 code(p);
    for (const ParityChain& ch : code.chains()) {
      if (code.kind(ch.parity) != CellKind::kDiagParity) continue;
      for (Cell in : ch.inputs) {
        EXPECT_EQ(code.kind(in), CellKind::kData) << "p=" << p;
      }
      EXPECT_EQ(static_cast<int>(ch.inputs.size()), p - 2) << "p=" << p;
    }
  }
}

TEST(Code56, UnprotectedDiagonalIsTheAntiDiagonal) {
  // Every data cell is on exactly one diagonal chain; the cells with
  // r + j == p-2 (the horizontal parities) are on none.
  for (int p : {5, 7, 11}) {
    Code56 code(p);
    std::set<std::pair<int, int>> covered;
    for (const ParityChain& ch : code.chains()) {
      if (code.kind(ch.parity) != CellKind::kDiagParity) continue;
      for (Cell in : ch.inputs) {
        EXPECT_TRUE(covered.insert({in.row, in.col}).second)
            << "cell on two diagonal chains, p=" << p;
        EXPECT_NE(pmod(in.row + in.col, p), p - 2);
      }
    }
    EXPECT_EQ(covered.size(),
              static_cast<std::size_t>(code.data_cell_count()));
  }
}

TEST(Code56, UpdateComplexityIsOptimalTwo) {
  // Section III-E(3): every data element feeds exactly two parities.
  for (int p : {5, 7, 11, 13}) {
    Code56 code(p);
    for (int r = 0; r < code.rows(); ++r) {
      for (int c = 0; c < code.cols(); ++c) {
        if (code.kind({r, c}) != CellKind::kData) continue;
        EXPECT_EQ(code.update_complexity({r, c}), 2)
            << "p=" << p << " cell (" << r << "," << c << ")";
      }
    }
  }
}

TEST(Code56, EncodingXorCountIsOptimal) {
  // Section III-E(2): 2(p-1)(p-3) XORs per stripe == (2p-6)/(p-2) per
  // data element, the MDS optimum 3*(nd*ne - nd)/... reduced form.
  for (int p : {5, 7, 11, 13, 17}) {
    Code56 code(p);
    std::size_t xors = 0;
    for (const ParityChain& ch : code.chains()) {
      xors += ch.inputs.size() - 1;
    }
    EXPECT_EQ(xors, static_cast<std::size_t>(2 * (p - 1) * (p - 3)))
        << "p=" << p;
  }
}

TEST(Code56, Theorem1StartingPointsAreDiagonalRecoverable) {
  // For failed data columns f1 < f2 <= p-2, cells C_{f2-f1-1,f1} and
  // C_{p-1-f2+f1,f2} each sit on a diagonal chain whose only lost
  // member they are.
  const int p = 11;
  Code56 code(p);
  for (int f1 = 0; f1 <= p - 3; ++f1) {
    for (int f2 = f1 + 1; f2 <= p - 2; ++f2) {
      const Cell start1{f2 - f1 - 1, f1};
      const Cell start2{p - 1 - f2 + f1, f2};
      for (Cell start : {start1, start2}) {
        int hits = 0;
        for (const ParityChain& ch : code.chains()) {
          if (code.kind(ch.parity) != CellKind::kDiagParity) continue;
          if (std::ranges::find(ch.inputs, start) == ch.inputs.end()) {
            continue;
          }
          ++hits;
          int lost = 0;
          for (Cell in : ch.inputs) {
            lost += (in.col == f1 || in.col == f2);
          }
          EXPECT_EQ(lost, 1) << "f1=" << f1 << " f2=" << f2;
        }
        EXPECT_EQ(hits, 1);
      }
    }
  }
}

TEST(Code56, Algorithm1MatchesGenericDecoder) {
  for (int p : {5, 7, 13}) {
    Code56 code(p);
    Buffer original = make_encoded(code, 7);
    for (int f1 = 0; f1 < code.cols(); ++f1) {
      for (int f2 = f1 + 1; f2 < code.cols(); ++f2) {
        Buffer a = original, b = original;
        StripeView va = StripeView::over(a, code.rows(), code.cols(), kBlock);
        StripeView vb = StripeView::over(b, code.rows(), code.cols(), kBlock);
        Rng junk(static_cast<std::uint64_t>(f1 * 100 + f2));
        const std::vector<int> cols{f1, f2};
        for (int c : cols) {
          for (int r = 0; r < code.rows(); ++r) {
            junk.fill(va.block({r, c}).data(), kBlock);
            junk.fill(vb.block({r, c}).data(), kBlock);
          }
        }
        ASSERT_TRUE(code.decode_columns(va, cols).has_value());
        ASSERT_TRUE(code.decode_columns_generic(vb, cols).has_value());
        EXPECT_TRUE(a == original);
        EXPECT_TRUE(b == original);
      }
    }
  }
}

/// Single-column rebuild of `col` through plan_repair, applied to a
/// copy of `original` whose column is overwritten with junk first.
/// Returns the plan's distinct reads; `plain` receives the conventional
/// schedule's reads (the sum of solve_cells recipe sizes).
std::size_t hybrid_rebuild(const Code56& code, const Buffer& original,
                           int col, std::size_t* plain) {
  const std::vector<int> lost =
      code.erased_cells_of_columns(std::vector<int>{col});
  const auto solved = code.solve_cells(lost);
  const auto plan =
      plan_repair(code.cell_count(), code.chain_specs(), lost, lost);
  EXPECT_TRUE(solved.has_value());
  EXPECT_TRUE(plan.has_value());
  if (!solved || !plan) return 0;
  *plain = 0;
  for (const RecoveryRecipe& r : *solved) *plain += r.sources.size();
  Buffer work = original;
  StripeView v = StripeView::over(work, code.rows(), code.cols(), kBlock);
  Rng junk(5);
  for (int c : lost) junk.fill(v.block(c).data(), kBlock);
  const DecodeStats stats = ErasureCode::apply_recipes(v, plan->recipes);
  EXPECT_TRUE(work == original) << "col=" << col;
  EXPECT_EQ(stats.cells_read, plan->reads.size());
  return plan->reads.size();
}

TEST(Code56, HybridRecoveryReadsNineBlocksAtP5) {
  // Section III-E(4): 9 reads vs 12 with the plain approach when p=5.
  Code56 code(5);
  const Buffer original = make_encoded(code, 3);
  for (int col = 0; col <= 3; ++col) {
    std::size_t plain = 0;
    EXPECT_EQ(hybrid_rebuild(code, original, col, &plain), 9u)
        << "col=" << col;
    EXPECT_EQ(plain, 12u);
  }
}

TEST(Code56, HybridNeverReadsMoreThanPlain) {
  // p = 19 and 23 take plan_repair's greedy descent (over 2^16 states).
  for (int p : {5, 7, 11, 13, 17, 19, 23}) {
    Code56 code(p);
    const Buffer original = make_encoded(code, 11);
    for (int col = 0; col <= p - 2; ++col) {
      std::size_t plain = 0;
      EXPECT_LT(hybrid_rebuild(code, original, col, &plain), plain)
          << "p=" << p << " col=" << col;
      EXPECT_EQ(plain, static_cast<std::size_t>((p - 1) * (p - 2)));
    }
  }
}

TEST(Code56, MatchesLeftRaid5Flavors) {
  for (int p : {5, 7, 11}) {
    Code56 left(p);
    EXPECT_TRUE(left.matches_raid5_flavor(Raid5Flavor::kLeftAsymmetric));
    EXPECT_TRUE(left.matches_raid5_flavor(Raid5Flavor::kLeftSymmetric));
    EXPECT_FALSE(left.matches_raid5_flavor(Raid5Flavor::kRightAsymmetric));
    Code56 right(p, 0, Code56Orientation::kRight);
    EXPECT_TRUE(right.matches_raid5_flavor(Raid5Flavor::kRightAsymmetric));
    EXPECT_TRUE(right.matches_raid5_flavor(Raid5Flavor::kRightSymmetric));
    EXPECT_FALSE(right.matches_raid5_flavor(Raid5Flavor::kLeftAsymmetric));
  }
}

TEST(Code56, RightOrientationIsMds) {
  Code56 code(7, 0, Code56Orientation::kRight);
  Buffer original = make_encoded(code, 13);
  for (int f1 = 0; f1 < code.cols(); ++f1) {
    for (int f2 = f1 + 1; f2 < code.cols(); ++f2) {
      Buffer work = original;
      StripeView v = StripeView::over(work, code.rows(), code.cols(), kBlock);
      const std::vector<int> cols{f1, f2};
      Rng junk(1);
      for (int c : cols) {
        for (int r = 0; r < code.rows(); ++r) {
          junk.fill(v.block({r, c}).data(), kBlock);
        }
      }
      ASSERT_TRUE(code.decode_columns(v, cols).has_value());
      EXPECT_TRUE(work == original) << f1 << "," << f2;
    }
  }
}

TEST(Code56, ForRaid5PicksNextPrime) {
  EXPECT_EQ(Code56::for_raid5(4).p(), 5);
  EXPECT_EQ(Code56::for_raid5(4).virtual_disks(), 0);
  EXPECT_EQ(Code56::for_raid5(3).p(), 5);
  EXPECT_EQ(Code56::for_raid5(3).virtual_disks(), 1);
  EXPECT_EQ(Code56::for_raid5(5).p(), 7);
  EXPECT_EQ(Code56::for_raid5(5).virtual_disks(), 1);
  EXPECT_EQ(Code56::for_raid5(8).p(), 11);
  EXPECT_EQ(Code56::for_raid5(8).virtual_disks(), 2);
}

TEST(Code56, VirtualLayoutMatchesPaperFigure8) {
  // m=3 -> p=5, v=1: column 0 and the tail of row 3 are virtual.
  Code56 code(5, 1);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(code.kind({r, 0}), CellKind::kVirtual);
  EXPECT_EQ(code.kind({3, 1}), CellKind::kVirtual);
  EXPECT_EQ(code.kind({3, 2}), CellKind::kVirtual);
  EXPECT_EQ(code.kind({3, 3}), CellKind::kVirtual);
  EXPECT_EQ(code.kind({3, 4}), CellKind::kDiagParity);
  EXPECT_EQ(code.virtual_cell_count(), 7);
  EXPECT_EQ(code.data_cell_count(), 6);
  EXPECT_EQ(code.physical_cells_per_stripe(), 13);
  EXPECT_NEAR(code.storage_efficiency(), 6.0 / 13.0, 1e-12);
}

TEST(Code56, StorageEfficiencyFormulaEq6) {
  // (n-1)(n-2) / ((n-1)n + v) with n = m+1 physical disks.
  for (int m = 2; m <= 24; ++m) {
    Code56 code = Code56::for_raid5(m);
    const int n = m + 1;
    const int v = code.virtual_disks();
    EXPECT_NEAR(code.storage_efficiency(),
                static_cast<double>((n - 1) * (n - 2)) / ((n - 1) * n + v),
                1e-12)
        << "m=" << m;
    EXPECT_LE(code.storage_efficiency(), code.ideal_raid6_efficiency());
  }
}

TEST(Code56, VirtualDiskVariantsAreMds) {
  for (int m : {3, 5, 6, 8, 9, 10}) {
    Code56 code = Code56::for_raid5(m);
    Buffer original = make_encoded(code, static_cast<std::uint64_t>(m));
    for (int f1 = 0; f1 < code.cols(); ++f1) {
      for (int f2 = f1 + 1; f2 < code.cols(); ++f2) {
        Buffer work = original;
        StripeView v =
            StripeView::over(work, code.rows(), code.cols(), kBlock);
        const std::vector<int> cols{f1, f2};
        Rng junk(2);
        for (int c : cols) {
          for (int r = 0; r < code.rows(); ++r) {
            if (code.kind({r, c}) != CellKind::kVirtual) {
              junk.fill(v.block({r, c}).data(), kBlock);
            }
          }
        }
        ASSERT_TRUE(code.decode_columns(v, cols).has_value())
            << "m=" << m << " cols " << f1 << "," << f2;
        EXPECT_TRUE(work == original) << "m=" << m;
      }
    }
  }
}

TEST(Code56, DecodeRestoresGarbledVirtualCells) {
  Code56 code(5, 1);
  Buffer original = make_encoded(code, 21);
  Buffer work = original;
  StripeView v = StripeView::over(work, 4, 5, kBlock);
  // Garble a failed virtual column entirely (disk replaced by junk).
  Rng junk(8);
  for (int r = 0; r < 4; ++r) junk.fill(v.block({r, 0}).data(), kBlock);
  const std::vector<int> cols{0};
  ASSERT_TRUE(code.decode_columns(v, cols).has_value());
  EXPECT_TRUE(work == original);
}

}  // namespace
}  // namespace c56
