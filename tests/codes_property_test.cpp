// Cross-code structural property tests: chain sanity, parity counts,
// update complexity, geometry claims from Table III and Section II of
// the paper, and decoder I/O accounting invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "codes/code56.hpp"
#include "codes/hdp.hpp"
#include "codes/pcode.hpp"
#include "codes/registry.hpp"
#include "codes/xcode.hpp"
#include "layout/raid.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "migration/online.hpp"
#include "util/prime.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"
#include "xorblk/xor.hpp"

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

class CodeStructure : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override { code_ = make_code(GetParam().id, GetParam().p); }
  std::unique_ptr<ErasureCode> code_;
};

TEST_P(CodeStructure, EveryParityCellHasExactlyOneChain) {
  std::set<std::pair<int, int>> parities;
  for (const ParityChain& ch : code_->chains()) {
    EXPECT_TRUE(is_parity(code_->kind(ch.parity)));
    EXPECT_TRUE(parities.insert({ch.parity.row, ch.parity.col}).second);
  }
  EXPECT_EQ(parities.size(),
            static_cast<std::size_t>(code_->parity_cell_count()));
}

TEST_P(CodeStructure, ChainsNeverListTheirOwnParityAsInput) {
  for (const ParityChain& ch : code_->chains()) {
    EXPECT_EQ(std::ranges::count(ch.inputs, ch.parity), 0);
  }
}

TEST_P(CodeStructure, ChainInputsAreDistinct) {
  for (const ParityChain& ch : code_->chains()) {
    std::set<std::pair<int, int>> seen;
    for (Cell in : ch.inputs) {
      EXPECT_TRUE(seen.insert({in.row, in.col}).second)
          << code_->name() << " parity (" << ch.parity.row << ","
          << ch.parity.col << ") repeats input (" << in.row << "," << in.col
          << ")";
    }
  }
}

TEST_P(CodeStructure, EncodeOrderRespectsDependencies) {
  // Any parity used as an input must be produced by an earlier chain.
  std::set<std::pair<int, int>> produced;
  for (const ParityChain& ch : code_->chains()) {
    for (Cell in : ch.inputs) {
      if (is_parity(code_->kind(in))) {
        EXPECT_TRUE(produced.count({in.row, in.col}))
            << code_->name() << ": chain for (" << ch.parity.row << ","
            << ch.parity.col << ") consumes not-yet-encoded parity";
      }
    }
    produced.insert({ch.parity.row, ch.parity.col});
  }
}

TEST_P(CodeStructure, EveryDataCellIsProtectedByTwoParities) {
  // Two-fault tolerance requires each data cell to influence >= 2
  // parities; the optimal-update codes hit exactly 2 (Table III's
  // "single write performance: High").
  const CodeId id = GetParam().id;
  for (int r = 0; r < code_->rows(); ++r) {
    for (int c = 0; c < code_->cols(); ++c) {
      if (code_->kind({r, c}) != CellKind::kData) continue;
      const int u = code_->update_complexity({r, c});
      EXPECT_GE(u, 2) << code_->name() << " (" << r << "," << c << ")";
      if (id == CodeId::kCode56 || id == CodeId::kXCode ||
          id == CodeId::kPCode || id == CodeId::kHCode) {
        EXPECT_EQ(u, 2) << code_->name() << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST_P(CodeStructure, ParityCountsMatchGeometry) {
  const int p = GetParam().p;
  int expected = 0;
  switch (GetParam().id) {
    case CodeId::kCode56: expected = 2 * (p - 1); break;
    case CodeId::kRdp: expected = 2 * (p - 1); break;
    case CodeId::kEvenOdd: expected = 2 * (p - 1); break;
    case CodeId::kXCode: expected = 2 * p; break;
    case CodeId::kPCode: expected = p - 1; break;
    case CodeId::kHCode: expected = 2 * (p - 1); break;
    case CodeId::kHdp: expected = 2 * (p - 1); break;
  }
  EXPECT_EQ(code_->parity_cell_count(), expected);
  EXPECT_EQ(code_->chains().size(), static_cast<std::size_t>(expected));
}

TEST_P(CodeStructure, DecodeStatsAccountReads) {
  constexpr std::size_t kBlock = 8;
  Buffer buf(static_cast<std::size_t>(code_->cell_count()) * kBlock);
  StripeView v = StripeView::over(buf, code_->rows(), code_->cols(), kBlock);
  Rng rng(5);
  for (int r = 0; r < code_->rows(); ++r) {
    for (int c = 0; c < code_->cols(); ++c) {
      if (code_->kind({r, c}) == CellKind::kData) {
        rng.fill(v.block({r, c}).data(), kBlock);
      }
    }
  }
  code_->encode(v);
  const std::vector<int> cols{0, 1};
  auto stats = code_->decode_columns(v, cols);
  ASSERT_TRUE(stats.has_value());
  // Reads can never exceed the surviving cells, and some work happened.
  const std::size_t surviving = static_cast<std::size_t>(
      code_->cell_count() - 2 * code_->rows());
  EXPECT_LE(stats->cells_read, surviving);
  EXPECT_GT(stats->cells_read, 0u);
  EXPECT_GT(stats->xor_ops, 0u);
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (CodeId id : all_code_ids()) {
    for (int p : {5, 7, 11}) out.push_back({id, p});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Zoo, CodeStructure, ::testing::ValuesIn(all_params()),
                         param_name);

TEST(PCodeStructure, LabelsFollowThePairConstruction) {
  PCode code(7);
  // 7 -> labels {a,b}, a+b == 2c (mod 7); column label c in 1..6; two
  // data rows per column.
  EXPECT_EQ(code.rows(), 3);
  EXPECT_EQ(code.cols(), 6);
  std::set<std::pair<int, int>> labels;
  for (int c = 0; c < 6; ++c) {
    for (int r = 1; r < 3; ++r) {
      const auto [a, b] = code.label_of({r, c});
      EXPECT_GE(a, 1);
      EXPECT_LT(a, b);
      EXPECT_LE(b, 6);
      EXPECT_NE(pmod(a + b, 7), 0);
      EXPECT_EQ(pmod(a + b, 7), pmod(2 * (c + 1), 7));
      EXPECT_TRUE(labels.insert({a, b}).second);
    }
  }
  EXPECT_EQ(labels.size(), 12u);  // (p-1)(p-3)/2
}

TEST(XCodeStructure, ParityRowsHoldNoData) {
  XCode code = XCode(7);
  for (int c = 0; c < 7; ++c) {
    EXPECT_EQ(code.kind({5, c}), CellKind::kDiagParity);
    EXPECT_EQ(code.kind({6, c}), CellKind::kAntiDiagParity);
  }
  // Reserved parity fraction of each disk = 2/p (Fig. 1(c): 40% at p=5).
  EXPECT_NEAR(2.0 / 7.0, 2.0 / code.rows(), 1e-12);
}

TEST(HdpStructure, BothParitiesLiveInsideTheSquare) {
  Hdp code = Hdp(7);
  int row_par = 0, anti_par = 0;
  for (int r = 0; r < code.rows(); ++r) {
    for (int c = 0; c < code.cols(); ++c) {
      const CellKind k = code.kind({r, c});
      row_par += k == CellKind::kRowParity;
      anti_par += k == CellKind::kAntiDiagParity;
    }
  }
  EXPECT_EQ(row_par, 6);
  EXPECT_EQ(anti_par, 6);
}

// ---------------------------------------------------------------------
// Parallel conversion properties: the worker-pool converter is an
// optimization, not a semantic change, so for every prime and worker
// count the migrated array must be byte-identical to the
// single-threaded result — including across a crash/resume boundary.

constexpr std::size_t kConvBlock = 32;

void fill_conv_raid5(mig::DiskArray& array, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(kConvBlock), parity(kConvBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = raid5_parity_disk(Raid5Flavor::kLeftAsymmetric,
                                        static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      rng.fill(block.data(), kConvBlock);
      std::ranges::copy(block, array.raw_block(d, row).begin());
      xor_into(std::span(parity), std::span<const std::uint8_t>(block));
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

void expect_arrays_equal(const mig::DiskArray& a, const mig::DiskArray& b) {
  ASSERT_EQ(a.disks(), b.disks());
  for (int d = 0; d < a.disks(); ++d) {
    for (std::int64_t blk = 0; blk < a.blocks_per_disk(); ++blk) {
      ASSERT_TRUE(std::ranges::equal(a.raw_block(d, blk), b.raw_block(d, blk)))
          << "disk " << d << " block " << blk;
    }
  }
}

class ParallelConversion : public ::testing::TestWithParam<int> {};

TEST_P(ParallelConversion, ByteIdenticalToSingleThreaded) {
  const int p = GetParam();
  const int m = p - 1;
  const std::int64_t groups = 11;  // not a multiple of any worker count
  const std::uint64_t seed = 0xC56'0C56 + static_cast<std::uint64_t>(p);

  mig::DiskArray ref(m, groups * (p - 1), kConvBlock);
  fill_conv_raid5(ref, m, seed);
  {
    mig::OnlineMigrator mref(ref, p);
    mref.set_workers(1);
    mref.start();
    mref.finish();
    ASSERT_EQ(mref.state(), mig::MigrationState::kDone);
  }

  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE("p=" + std::to_string(p) +
                 " workers=" + std::to_string(workers));
    mig::DiskArray array(m, groups * (p - 1), kConvBlock);
    fill_conv_raid5(array, m, seed);
    mig::OnlineMigrator mg(array, p);
    mg.set_workers(workers);
    EXPECT_EQ(mg.workers(), workers);
    mg.start();
    mg.finish();
    ASSERT_EQ(mg.state(), mig::MigrationState::kDone);
    EXPECT_TRUE(mg.verify_raid6());
    expect_arrays_equal(array, ref);
  }
}

TEST_P(ParallelConversion, CrashAndResumeStaysByteIdentical) {
  const int p = GetParam();
  const int m = p - 1;
  const std::int64_t groups = 9;
  const std::uint64_t seed = 0xC56'0D00 + static_cast<std::uint64_t>(p);

  mig::DiskArray ref(m, groups * (p - 1), kConvBlock);
  fill_conv_raid5(ref, m, seed);
  {
    mig::OnlineMigrator mref(ref, p);
    mref.start();
    mref.finish();
    ASSERT_EQ(mref.state(), mig::MigrationState::kDone);
  }

  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE("p=" + std::to_string(p) +
                 " workers=" + std::to_string(workers));
    mig::DiskArray array(m, groups * (p - 1), kConvBlock);
    fill_conv_raid5(array, m, seed);
    mig::MemoryCheckpointSink sink;
    {
      mig::OnlineMigrator mg(array, p);
      mg.attach_journal(sink);
      mg.set_workers(workers);
      mg.start();
      // Stop somewhere mid-conversion; with several workers the stop
      // point straddles groups in different states of completion.
      while (mg.groups_done() < groups / 2 &&
             mg.state() == mig::MigrationState::kConverting) {
        std::this_thread::yield();
      }
      mg.request_stop();
      mg.finish();
      ASSERT_NE(mg.state(), mig::MigrationState::kAborted);
      // Migrator destroyed: the "crash". Journal and array survive.
    }
    mig::OnlineMigrator mg2(array, p);  // array now holds p disks
    mg2.attach_journal(sink);
    mg2.set_workers(workers);
    mg2.resume();
    mg2.finish();
    ASSERT_EQ(mg2.state(), mig::MigrationState::kDone);
    EXPECT_TRUE(mg2.verify_raid6());
    expect_arrays_equal(array, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Primes, ParallelConversion,
                         ::testing::Values(5, 7, 11, 13),
                         [](const ::testing::TestParamInfo<int>& info) {
                           const std::string p = std::to_string(info.param);
                           return "p" + p;
                         });

}  // namespace
}  // namespace c56
