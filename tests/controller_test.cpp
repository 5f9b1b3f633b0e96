// Block-level controller tests across the whole code zoo: healthy
// read/write round trips with parity maintenance, degraded reads and
// writes under one and two disk failures, rebuild, and scrubbing. Also
// pins the quantified "single write performance" of Table III and the
// rebuild I/O per stripe of every code and failed disk, and races
// degraded readers on different stripes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codes/code56.hpp"
#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "util/rng.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 32;
constexpr std::int64_t kStripes = 3;

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

class ControllerTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    auto code = make_code(GetParam().id, GetParam().p);
    array_ = std::make_unique<DiskArray>(
        code->cols(), kStripes * code->rows(), kBlock);
    ctrl_ = std::make_unique<ArrayController>(*array_, std::move(code));
    // Write a known pattern through the controller; parities follow.
    Rng rng(17);
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < ctrl_->logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      model_[l] = buf;
      ctrl_->write(l, buf.span());
    }
  }

  void expect_all_readable() {
    Buffer got(kBlock);
    for (const auto& [l, want] : model_) {
      ctrl_->read(l, got.span());
      EXPECT_TRUE(got == want) << "logical " << l;
    }
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<ArrayController> ctrl_;
  std::map<std::int64_t, Buffer> model_;
};

TEST_P(ControllerTest, WritesKeepEveryStripeConsistent) {
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, DegradedReadUnderSingleFailure) {
  ctrl_->fail_disk(1);
  expect_all_readable();
}

TEST_P(ControllerTest, DegradedReadUnderDoubleFailure) {
  ctrl_->fail_disk(0);
  ctrl_->fail_disk(2);
  expect_all_readable();
  EXPECT_THROW(ctrl_->fail_disk(3), std::runtime_error);
}

TEST_P(ControllerTest, DegradedWritesSurviveRebuild) {
  ctrl_->fail_disk(1);
  Rng rng(23);
  Buffer buf(kBlock);
  // Overwrite a quarter of the blocks while degraded (some of them live
  // on the failed disk).
  for (std::int64_t l = 0; l < ctrl_->logical_blocks(); l += 4) {
    rng.fill(buf.data(), kBlock);
    model_[l] = buf;
    ctrl_->write(l, buf.span());
  }
  expect_all_readable();  // degraded reads see the new data
  const std::int64_t rebuilt = ctrl_->rebuild_disk(1);
  EXPECT_GT(rebuilt, 0);
  EXPECT_FALSE(ctrl_->failed(1));
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, DoubleFailureRebuildRestoresConsistency) {
  ctrl_->fail_disk(0);
  ctrl_->fail_disk(1);
  ctrl_->rebuild_disk(0);
  ctrl_->rebuild_disk(1);
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, RecipesRefreshAcrossFailRebuildFailCycle) {
  // Regression: the recovery recipes are planned for the current
  // failure set and must be re-planned after *every* change to it —
  // rebuild_disk included. A controller that kept the disk-1 recipes
  // across the rebuild would XOR the wrong chains here and serve
  // garbage for disk 2 (or crash on a recipe whose target no longer
  // matches the failure set).
  ctrl_->fail_disk(1);
  expect_all_readable();  // reads through the recipes for {1}
  ctrl_->rebuild_disk(1);
  EXPECT_TRUE(ctrl_->scrub().empty());
  ctrl_->fail_disk(2);    // different disk: recipes for {1} are useless
  expect_all_readable();
  ctrl_->rebuild_disk(2);
  EXPECT_TRUE(ctrl_->scrub().empty());
  expect_all_readable();
}

TEST_P(ControllerTest, ScrubFlagsInjectedCorruption) {
  // Flip a byte behind the controller's back.
  auto blk = array_->raw_block(0, 0);
  blk[0] ^= 0xFF;
  const auto bad = ctrl_->scrub();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 0);
  blk[0] ^= 0xFF;
  EXPECT_TRUE(ctrl_->scrub().empty());
}

TEST_P(ControllerTest, IdempotentWriteCostsNothing) {
  Buffer cur(kBlock);
  ctrl_->read(7, cur.span());
  const std::uint64_t w = array_->total_writes();
  ctrl_->write(7, cur.span());
  EXPECT_EQ(array_->total_writes(), w);
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (CodeId id : all_code_ids()) out.push_back({id, 5});
  out.push_back({CodeId::kCode56, 7});
  out.push_back({CodeId::kHdp, 7});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Zoo, ControllerTest,
                         ::testing::ValuesIn(all_params()), param_name);

/// Table III, "single write performance": disk I/Os per one-block
/// update. Optimal-update codes pay 6 (read+write data plus RMW of two
/// parities); EVENODD's adjuster couples its S-diagonal cells to every
/// diagonal parity, which is why the paper rates it "Low".
TEST(SingleWriteCost, MatchesTableIII) {
  auto avg_io_per_write = [](CodeId id, int p) {
    auto code = make_code(id, p);
    DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
    ArrayController ctrl(array, std::move(code));
    Rng rng(3);
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      ctrl.write(l, buf.span());
    }
    const std::uint64_t r0 = array.total_reads();
    const std::uint64_t w0 = array.total_writes();
    int writes = 0;
    for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      ctrl.write(l, buf.span());
      ++writes;
    }
    return static_cast<double>(array.total_reads() - r0 +
                               array.total_writes() - w0) /
           writes;
  };
  // Optimal codes: read old data + 2 parities, write data + 2 parities.
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kCode56, 5), 6.0);
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kXCode, 5), 6.0);
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kPCode, 7), 6.0);
  EXPECT_DOUBLE_EQ(avg_io_per_write(CodeId::kHCode, 5), 6.0);
  // RDP: data on the unprotected diagonal feeds the row parity only,
  // but through it every diagonal that includes the row-parity column.
  EXPECT_GT(avg_io_per_write(CodeId::kRdp, 5), 6.0);
  // EVENODD: S-diagonal cells feed all p-1 diagonal parities ("Low").
  EXPECT_GT(avg_io_per_write(CodeId::kEvenOdd, 5),
            avg_io_per_write(CodeId::kRdp, 5));
  // HDP pays one extra hop through the horizontal-diagonal coupling.
  EXPECT_GT(avg_io_per_write(CodeId::kHdp, 5), 6.0);
}

/// Rebuild I/O per stripe of rebuild_disk(disk) with `disk` (and
/// `second`, when not -1) failed: every read goes through one
/// plan_repair plan, read once per stripe as per-disk runs. A failed
/// Code 5-6 data disk reads Section III-E(4)'s hybrid minimum: 9, 22
/// and 66 blocks at p = 5, 7 and 11 (the all-horizontal schedule reads
/// 12, 30 and 90).
struct RebuildIo {
  std::uint64_t reads, read_runs, writes, write_runs;
};
struct RebuildPin {
  CodeId id;
  int p;
  int disk;
  int second;
  RebuildIo io;
  // The same rebuild with one recipe per lost cell and nothing shared
  // (every read its own run), which the plan must never exceed.
  std::uint64_t per_cell_reads;
};

const RebuildPin kRebuildPins[] = {
    {CodeId::kEvenOdd, 5, 0, -1, {16, 7, 4, 1}, 20},
    {CodeId::kEvenOdd, 5, 1, -1, {17, 6, 4, 1}, 20},
    {CodeId::kEvenOdd, 5, 2, -1, {17, 10, 4, 1}, 20},
    {CodeId::kEvenOdd, 5, 3, -1, {17, 10, 4, 1}, 20},
    {CodeId::kEvenOdd, 5, 4, -1, {17, 6, 4, 1}, 20},
    {CodeId::kEvenOdd, 5, 5, -1, {20, 5, 4, 1}, 20},
    {CodeId::kEvenOdd, 5, 6, -1, {20, 5, 4, 1}, 32},
    {CodeId::kEvenOdd, 5, 0, 1, {20, 5, 4, 1}, 46},
    {CodeId::kEvenOdd, 7, 0, -1, {33, 10, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 1, -1, {37, 8, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 2, -1, {37, 14, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 3, -1, {37, 14, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 4, -1, {37, 14, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 5, -1, {37, 14, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 6, -1, {37, 8, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 7, -1, {42, 7, 6, 1}, 42},
    {CodeId::kEvenOdd, 7, 8, -1, {42, 7, 6, 1}, 72},
    {CodeId::kEvenOdd, 7, 0, 1, {42, 7, 6, 1}, 127},
    {CodeId::kRdp, 5, 0, -1, {12, 6, 4, 1}, 16},
    {CodeId::kRdp, 5, 1, -1, {12, 6, 4, 1}, 16},
    {CodeId::kRdp, 5, 2, -1, {12, 6, 4, 1}, 16},
    {CodeId::kRdp, 5, 3, -1, {12, 9, 4, 1}, 16},
    {CodeId::kRdp, 5, 4, -1, {12, 9, 4, 1}, 16},
    {CodeId::kRdp, 5, 5, -1, {16, 7, 4, 1}, 16},
    {CodeId::kRdp, 5, 0, 1, {16, 4, 4, 1}, 36},
    {CodeId::kRdp, 7, 0, -1, {27, 9, 6, 1}, 36},
    {CodeId::kRdp, 7, 1, -1, {27, 9, 6, 1}, 36},
    {CodeId::kRdp, 7, 2, -1, {27, 9, 6, 1}, 36},
    {CodeId::kRdp, 7, 3, -1, {27, 9, 6, 1}, 36},
    {CodeId::kRdp, 7, 4, -1, {27, 14, 6, 1}, 36},
    {CodeId::kRdp, 7, 5, -1, {27, 14, 6, 1}, 36},
    {CodeId::kRdp, 7, 6, -1, {27, 13, 6, 1}, 36},
    {CodeId::kRdp, 7, 7, -1, {36, 11, 6, 1}, 36},
    {CodeId::kRdp, 7, 0, 1, {36, 6, 6, 1}, 106},
    {CodeId::kHCode, 5, 0, -1, {12, 6, 4, 1}, 16},
    {CodeId::kHCode, 5, 1, -1, {12, 8, 4, 1}, 16},
    {CodeId::kHCode, 5, 2, -1, {12, 7, 4, 1}, 16},
    {CodeId::kHCode, 5, 3, -1, {12, 7, 4, 1}, 16},
    {CodeId::kHCode, 5, 4, -1, {12, 5, 4, 1}, 16},
    {CodeId::kHCode, 5, 5, -1, {16, 7, 4, 1}, 16},
    {CodeId::kHCode, 5, 0, 1, {16, 4, 4, 1}, 36},
    {CodeId::kHCode, 7, 0, -1, {27, 9, 6, 1}, 36},
    {CodeId::kHCode, 7, 1, -1, {27, 12, 6, 1}, 36},
    {CodeId::kHCode, 7, 2, -1, {27, 12, 6, 1}, 36},
    {CodeId::kHCode, 7, 3, -1, {27, 11, 6, 1}, 36},
    {CodeId::kHCode, 7, 4, -1, {27, 12, 6, 1}, 36},
    {CodeId::kHCode, 7, 5, -1, {27, 11, 6, 1}, 36},
    {CodeId::kHCode, 7, 6, -1, {27, 8, 6, 1}, 36},
    {CodeId::kHCode, 7, 7, -1, {36, 11, 6, 1}, 36},
    {CodeId::kHCode, 7, 0, 1, {36, 6, 6, 1}, 106},
    {CodeId::kXCode, 5, 0, -1, {12, 5, 5, 1}, 15},
    {CodeId::kXCode, 5, 1, -1, {12, 5, 5, 1}, 15},
    {CodeId::kXCode, 5, 2, -1, {12, 5, 5, 1}, 15},
    {CodeId::kXCode, 5, 3, -1, {12, 5, 5, 1}, 15},
    {CodeId::kXCode, 5, 4, -1, {12, 5, 5, 1}, 15},
    {CodeId::kXCode, 5, 0, 1, {15, 3, 5, 1}, 25},
    {CodeId::kXCode, 7, 0, -1, {26, 13, 7, 1}, 35},
    {CodeId::kXCode, 7, 1, -1, {26, 13, 7, 1}, 35},
    {CodeId::kXCode, 7, 2, -1, {26, 13, 7, 1}, 35},
    {CodeId::kXCode, 7, 3, -1, {26, 13, 7, 1}, 35},
    {CodeId::kXCode, 7, 4, -1, {26, 13, 7, 1}, 35},
    {CodeId::kXCode, 7, 5, -1, {26, 13, 7, 1}, 35},
    {CodeId::kXCode, 7, 6, -1, {26, 13, 7, 1}, 35},
    {CodeId::kXCode, 7, 0, 1, {35, 5, 7, 1}, 81},
    {CodeId::kPCode, 5, 0, -1, {3, 3, 2, 1}, 4},
    {CodeId::kPCode, 5, 1, -1, {3, 3, 2, 1}, 4},
    {CodeId::kPCode, 5, 2, -1, {3, 3, 2, 1}, 4},
    {CodeId::kPCode, 5, 3, -1, {3, 3, 2, 1}, 4},
    {CodeId::kPCode, 5, 0, 1, {4, 2, 2, 1}, 6},
    {CodeId::kPCode, 7, 0, -1, {9, 5, 3, 1}, 12},
    {CodeId::kPCode, 7, 1, -1, {9, 7, 3, 1}, 12},
    {CodeId::kPCode, 7, 2, -1, {9, 5, 3, 1}, 12},
    {CodeId::kPCode, 7, 3, -1, {9, 6, 3, 1}, 12},
    {CodeId::kPCode, 7, 4, -1, {9, 7, 3, 1}, 12},
    {CodeId::kPCode, 7, 5, -1, {9, 6, 3, 1}, 12},
    {CodeId::kPCode, 7, 0, 1, {12, 4, 3, 1}, 20},
    {CodeId::kHdp, 5, 0, -1, {7, 5, 4, 1}, 9},
    {CodeId::kHdp, 5, 1, -1, {7, 4, 4, 1}, 9},
    {CodeId::kHdp, 5, 2, -1, {7, 4, 4, 1}, 9},
    {CodeId::kHdp, 5, 3, -1, {7, 5, 4, 1}, 9},
    {CodeId::kHdp, 5, 0, 1, {8, 2, 4, 1}, 17},
    {CodeId::kHdp, 7, 0, -1, {19, 8, 6, 1}, 25},
    {CodeId::kHdp, 7, 1, -1, {19, 10, 6, 1}, 25},
    {CodeId::kHdp, 7, 2, -1, {19, 9, 6, 1}, 25},
    {CodeId::kHdp, 7, 3, -1, {19, 11, 6, 1}, 25},
    {CodeId::kHdp, 7, 4, -1, {19, 10, 6, 1}, 25},
    {CodeId::kHdp, 7, 5, -1, {19, 10, 6, 1}, 25},
    {CodeId::kHdp, 7, 0, 1, {24, 4, 6, 1}, 70},
    {CodeId::kCode56, 5, 0, -1, {9, 5, 4, 1}, 12},
    {CodeId::kCode56, 5, 1, -1, {9, 5, 4, 1}, 12},
    {CodeId::kCode56, 5, 2, -1, {9, 7, 4, 1}, 12},
    {CodeId::kCode56, 5, 3, -1, {9, 7, 4, 1}, 12},
    {CodeId::kCode56, 5, 4, -1, {12, 6, 4, 1}, 12},
    {CodeId::kCode56, 5, 0, 1, {12, 3, 4, 1}, 24},
    {CodeId::kCode56, 7, 0, -1, {22, 8, 6, 1}, 30},
    {CodeId::kCode56, 7, 1, -1, {22, 12, 6, 1}, 30},
    {CodeId::kCode56, 7, 2, -1, {22, 12, 6, 1}, 30},
    {CodeId::kCode56, 7, 3, -1, {22, 13, 6, 1}, 30},
    {CodeId::kCode56, 7, 4, -1, {22, 15, 6, 1}, 30},
    {CodeId::kCode56, 7, 5, -1, {22, 11, 6, 1}, 30},
    {CodeId::kCode56, 7, 6, -1, {30, 10, 6, 1}, 30},
    {CodeId::kCode56, 7, 0, 1, {30, 5, 6, 1}, 86},
    {CodeId::kCode56, 11, 0, -1, {66, 14, 10, 1}, 90},
    {CodeId::kCode56, 11, 1, -1, {66, 32, 10, 1}, 90},
    {CodeId::kCode56, 11, 2, -1, {66, 34, 10, 1}, 90},
    {CodeId::kCode56, 11, 3, -1, {66, 30, 10, 1}, 90},
    {CodeId::kCode56, 11, 4, -1, {66, 22, 10, 1}, 90},
    {CodeId::kCode56, 11, 5, -1, {66, 23, 10, 1}, 90},
    {CodeId::kCode56, 11, 6, -1, {66, 29, 10, 1}, 90},
    {CodeId::kCode56, 11, 7, -1, {66, 34, 10, 1}, 90},
    {CodeId::kCode56, 11, 8, -1, {66, 37, 10, 1}, 90},
    {CodeId::kCode56, 11, 9, -1, {66, 19, 10, 1}, 90},
};

RebuildIo measure_rebuild(CodeId id, int p, int disk, int second) {
  constexpr std::int64_t kRebuildStripes = 4;
  auto code = make_code(id, p);
  DiskArray array(code->cols(), kRebuildStripes * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  Rng rng(5);
  std::map<std::int64_t, Buffer> model;
  Buffer buf(kBlock);
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    rng.fill(buf.data(), kBlock);
    model[l] = buf;
    ctrl.write(l, buf.span());
  }
  ctrl.fail_disk(disk);
  if (second >= 0) ctrl.fail_disk(second);
  const std::uint64_t r0 = array.total_reads(), rr0 = array.total_read_runs();
  const std::uint64_t w0 = array.total_writes(), wr0 = array.total_write_runs();
  ctrl.rebuild_disk(disk);
  const RebuildIo io{(array.total_reads() - r0) / kRebuildStripes,
                     (array.total_read_runs() - rr0) / kRebuildStripes,
                     (array.total_writes() - w0) / kRebuildStripes,
                     (array.total_write_runs() - wr0) / kRebuildStripes};
  if (second >= 0) ctrl.rebuild_disk(second);
  EXPECT_TRUE(ctrl.scrub().empty());
  Buffer got(kBlock);
  for (const auto& [l, want] : model) {
    ctrl.read(l, got.span());
    EXPECT_TRUE(got == want) << "logical " << l;
  }
  return io;
}

TEST(RebuildIoPins, EveryCodeAndFailedDisk) {
  std::size_t checked = 0;
  const auto check = [&](CodeId id, int p, int disk, int second) {
    const RebuildIo got = measure_rebuild(id, p, disk, second);
    const std::string where = std::string(to_string(id)) + " p=" +
                              std::to_string(p) + " disk " +
                              std::to_string(disk) + " second " +
                              std::to_string(second);
    const auto it = std::find_if(
        std::begin(kRebuildPins), std::end(kRebuildPins),
        [&](const RebuildPin& x) {
          return x.id == id && x.p == p && x.disk == disk &&
                 x.second == second;
        });
    if (it == std::end(kRebuildPins)) {
      ADD_FAILURE() << "no pin for " << where << ": {" << got.reads << ", "
                    << got.read_runs << ", " << got.writes << ", "
                    << got.write_runs << "}";
      return;
    }
    ++checked;
    EXPECT_EQ(got.reads, it->io.reads) << where;
    EXPECT_EQ(got.read_runs, it->io.read_runs) << where;
    EXPECT_EQ(got.writes, it->io.writes) << where;
    EXPECT_EQ(got.write_runs, it->io.write_runs) << where;
    EXPECT_LE(it->io.reads, it->per_cell_reads) << where;
    EXPECT_LE(it->io.read_runs, it->per_cell_reads) << where;
    EXPECT_EQ(it->io.write_runs, 1u) << where;
  };
  for (CodeId id : all_code_ids()) {
    for (int p : {5, 7}) {
      for (int d = 0; d < make_code(id, p)->cols(); ++d) check(id, p, d, -1);
      check(id, p, 0, 1);
    }
  }
  for (int d = 0; d < 10; ++d) check(CodeId::kCode56, 11, d, -1);
  EXPECT_EQ(checked, std::size(kRebuildPins));
}

/// fail_disk and then rebuild_disk run while I/O is in flight: four
/// threads read their own stripes block by block, two more issue batched
/// read_range calls that span two stripes each (whole blocks, sub-ranges
/// and a repeated cell), and a writer flips every block between two
/// versions, so the per-stripe lock loop, the stripe cache's hit and fill
/// paths, the write planner and both failure-set changes run side by
/// side. A read must return one version or the other, never a
/// reconstruction from a half-written stripe or a half-changed failure
/// set (under TSan: no race on the failure set or the recovery recipes).
/// After the rebuild every block holds the version last written to it and
/// every stripe verifies: a write that skipped the failed disk's cell on
/// an already-rebuilt stripe would leave the disk stale.
TEST(ControllerDegraded, ConcurrentReadsAfterFailDiskAreRaceFree) {
  constexpr std::int64_t kRaceStripes = 64;
  constexpr int kThreads = 4;
  constexpr int kBatchThreads = 2;
  constexpr int kFailedDisk = 0;
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), kRaceStripes * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  const std::int64_t blocks = ctrl.logical_blocks();
  const auto bytes = static_cast<std::size_t>(blocks) * kBlock;
  Buffer va(bytes), vb(bytes);
  Rng(0x7A5).fill(va.data(), bytes);
  Rng(0x7A6).fill(vb.data(), bytes);
  ctrl.write(0, blocks, va.span());
  ctrl.set_cache_stripes(kRaceStripes / 4);
  const std::int64_t per = blocks / kRaceStripes;
  // Bytes [off, off + got.size()) of block l hold one version.
  const auto torn = [&](std::int64_t l, std::size_t off,
                        std::span<const std::uint8_t> got) {
    const std::size_t at = static_cast<std::size_t>(l) * kBlock + off;
    return !std::equal(got.begin(), got.end(), va.data() + at) &&
           !std::equal(got.begin(), got.end(), vb.data() + at);
  };
  constexpr int kReaders = kThreads + kBatchThreads;
  std::vector<int> bad(kReaders, 0);
  std::vector<std::atomic<int>> passes(kReaders);
  std::atomic<bool> stop{false};
  // Waits until every reader has finished one more whole pass.
  const auto settle = [&] {
    std::vector<int> target(kReaders);
    for (int t = 0; t < kReaders; ++t) target[t] = passes[t].load() + 1;
    for (int t = 0; t < kReaders; ++t) {
      while (passes[t].load() < target[t]) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Buffer got(kBlock);
      while (!stop) {
        for (std::int64_t s = t; s < kRaceStripes; s += kThreads) {
          for (std::int64_t l = s * per; l < (s + 1) * per; ++l) {
            ctrl.read(l, got.span());
            bad[static_cast<std::size_t>(t)] += torn(l, 0, got.span());
          }
        }
        ++passes[t];
      }
    });
  }
  for (int t = 0; t < kBatchThreads; ++t) {
    readers.emplace_back([&, t] {
      using SubRead = ArrayController::SubRead;
      const std::size_t n = static_cast<std::size_t>(2 * per) + 1;
      Buffer got(n * kBlock);
      std::vector<SubRead> batch(n);
      while (!stop) {
        for (std::int64_t s = t; s + 1 < kRaceStripes; s += kBatchThreads) {
          // Stripes s and s + 1 in reverse order, odd blocks as a
          // sub-range, plus stripe s's first block once more.
          for (std::size_t k = 0; k + 1 < n; ++k) {
            const std::int64_t l =
                (s + 2) * per - 1 - static_cast<std::int64_t>(k);
            const std::size_t off = l % 2 == 0 ? 0 : 8;
            batch[k] = {l, static_cast<std::int64_t>(off),
                        got.span().subspan(k * kBlock + off,
                                           kBlock - 2 * off)};
          }
          batch[n - 1] = {s * per, 0,
                          got.span().subspan((n - 1) * kBlock, kBlock)};
          ctrl.read_range(batch);
          for (const SubRead& e : batch) {
            bad[static_cast<std::size_t>(kThreads + t)] +=
                torn(e.logical, static_cast<std::size_t>(e.offset), e.out);
          }
        }
        ++passes[kThreads + t];
      }
    });
  }
  // Only the writer touches last; the join publishes it.
  std::vector<const Buffer*> last(static_cast<std::size_t>(blocks), &va);
  std::thread writer([&] {
    for (int round = 1; !stop; ++round) {
      const Buffer& v = round % 2 == 0 ? va : vb;
      for (std::int64_t l = 0; l < blocks && !stop; ++l) {
        ctrl.write(l, v.span().subspan(static_cast<std::size_t>(l) * kBlock,
                                       kBlock));
        last[static_cast<std::size_t>(l)] = &v;
      }
    }
  });
  settle();
  ctrl.fail_disk(kFailedDisk);
  settle();
  ctrl.rebuild_disk(kFailedDisk);
  stop = true;
  for (std::thread& r : readers) r.join();
  writer.join();
  for (std::size_t t = 0; t < bad.size(); ++t) {
    EXPECT_EQ(bad[t], 0) << "thread " << t;
  }
  EXPECT_GT(ctrl.cache_stats().hits, 0u);
  EXPECT_GT(ctrl.cache_stats().insertions, 0u);
  EXPECT_EQ(ctrl.failed_count(), 0);
  ctrl.set_cache_stripes(0);
  Buffer got(kBlock);
  int stale = 0;
  for (std::int64_t l = 0; l < blocks; ++l) {
    ctrl.read(l, got.span());
    const std::uint8_t* want =
        last[static_cast<std::size_t>(l)]->data() +
        static_cast<std::size_t>(l) * kBlock;
    stale += !std::equal(got.data(), got.data() + kBlock, want);
  }
  EXPECT_EQ(stale, 0);
  EXPECT_TRUE(ctrl.scrub().empty());
}

TEST(Controller, RejectsBadGeometry) {
  DiskArray wrong(3, 8, kBlock);
  EXPECT_THROW(ArrayController(wrong, make_code(CodeId::kCode56, 5)),
               std::invalid_argument);
  DiskArray misaligned(5, 7, kBlock);
  EXPECT_THROW(ArrayController(misaligned, make_code(CodeId::kCode56, 5)),
               std::invalid_argument);
}

TEST(Controller, VirtualDiskCode56) {
  // m=3 -> p=5, v=1: four physical disks serve a 5-column code.
  auto code = std::make_unique<Code56>(5, 1);
  DiskArray array(4, 2LL * 4, kBlock);
  ArrayController ctrl(array, std::move(code));
  EXPECT_EQ(ctrl.logical_blocks(), 2 * 6);  // 6 data cells per stripe
  Rng rng(9);
  Buffer buf(kBlock), got(kBlock);
  std::map<std::int64_t, Buffer> model;
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    rng.fill(buf.data(), kBlock);
    model[l] = buf;
    ctrl.write(l, buf.span());
  }
  EXPECT_TRUE(ctrl.scrub().empty());
  ctrl.fail_disk(0);
  ctrl.fail_disk(3);
  for (const auto& [l, want] : model) {
    ctrl.read(l, got.span());
    EXPECT_TRUE(got == want) << l;
  }
  ctrl.rebuild_disk(0);
  ctrl.rebuild_disk(3);
  EXPECT_TRUE(ctrl.scrub().empty());
}

}  // namespace
}  // namespace c56::mig
