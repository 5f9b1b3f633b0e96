// Integration tests for Algorithm 2: online RAID-5 -> RAID-6 migration
// over the in-memory disk array, with and without a concurrent
// application workload, followed by failure-recovery checks on the
// migrated array, and the conversion's I/O per stripe group.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "layout/raid.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "migration/online.hpp"
#include "util/rng.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;

/// Build a valid left-asymmetric RAID-5 with random data.
void fill_raid5(DiskArray& array, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(kBlock), parity(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = raid5_parity_disk(Raid5Flavor::kLeftAsymmetric,
                                        static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      rng.fill(block.data(), kBlock);
      std::ranges::copy(block, array.raw_block(d, row).begin());
      xor_into(parity.data(), block.data(), kBlock);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

TEST(DiskArray, CountersTrackAccesses) {
  DiskArray a(2, 4, kBlock);
  std::vector<std::uint8_t> buf(kBlock, 0x5A);
  a.write_block(1, 2, buf);
  a.read_block(1, 2, buf);
  a.read_block(0, 0, buf);
  EXPECT_EQ(a.writes(1), 1u);
  EXPECT_EQ(a.reads(1), 1u);
  EXPECT_EQ(a.reads(0), 1u);
  EXPECT_EQ(a.total_reads(), 2u);
  EXPECT_EQ(a.total_writes(), 1u);
  EXPECT_EQ(a.raw_block(1, 2)[0], 0x5A);
}

TEST(DiskArray, AddDiskZeroed) {
  DiskArray a(2, 4, kBlock);
  const int d = a.add_disk();
  EXPECT_EQ(d, 2);
  EXPECT_EQ(a.disks(), 3);
  EXPECT_TRUE(all_zero(a.raw_block(2, 3)));
}

TEST(OnlineMigrator, WorkersKnobChecksItsInput) {
  // C56_CONVERT_WORKERS goes through the checked env parser: garbage
  // keeps the default, out-of-range clamps to [1, 64]. Pre-fix this was
  // a bare atoi, so "bananas" silently became 0 workers.
  DiskArray array(4, 8, kBlock);
  const auto workers_with = [&](const char* v) {
    ::setenv("C56_CONVERT_WORKERS", v, 1);
    OnlineMigrator mig(array, 5);
    ::unsetenv("C56_CONVERT_WORKERS");
    return mig.workers();
  };
  EXPECT_EQ(workers_with("3"), 3);
  EXPECT_EQ(workers_with("bananas"), 1);   // garbage -> default
  EXPECT_EQ(workers_with("0"), 1);         // below range -> clamp
  EXPECT_EQ(workers_with("-12"), 1);       // negative -> clamp
  EXPECT_EQ(workers_with("100000"), 64);   // huge -> clamp
  EXPECT_EQ(workers_with("99999999999999999999"), 64);  // overflow -> clamp
}

TEST(OnlineMigrator, RejectsBadGeometry) {
  DiskArray wrong_disks(3, 8, kBlock);
  EXPECT_THROW(OnlineMigrator(wrong_disks, 5), std::invalid_argument);
  DiskArray wrong_rows(4, 7, kBlock);
  EXPECT_THROW(OnlineMigrator(wrong_rows, 5), std::invalid_argument);
}

TEST(OnlineMigrator, QuiescentMigrationProducesValidRaid6) {
  for (int p : {5, 7}) {
    const int m = p - 1;
    DiskArray array(m, 8LL * (p - 1), kBlock);
    fill_raid5(array, m, 1);
    OnlineMigrator mig(array, p);
    mig.start();
    mig.finish();
    EXPECT_EQ(mig.groups_done(), 8);
    EXPECT_TRUE(mig.verify_raid6()) << "p=" << p;
    // Converter I/O matches the paper's per-stripe counts: (p-1)(p-2)
    // reads and p-1 writes per group.
    const OnlineStats st = mig.stats();
    EXPECT_EQ(st.conv_reads, static_cast<std::uint64_t>(8 * (p - 1) * (p - 2)));
    EXPECT_EQ(st.conv_writes, static_cast<std::uint64_t>(8 * (p - 1)));
    // Only the added disk was written.
    for (int d = 0; d < m; ++d) EXPECT_EQ(array.writes(d), 0u) << d;
    EXPECT_EQ(array.writes(m), st.conv_writes);
  }
}

// Conversion I/O of one stripe group entered at diagonal row `from_row`
// (0 for a fresh start, r > 0 for a resume into the group's row r). A
// group is read as source-column runs, each split at most once by the
// column's horizontal-parity cell, and its diagonal rows are written as
// one run. Per data block of a group: reads 1, writes 1/(p-2), read runs
// 2/(p-1), write runs 1/((p-1)(p-2)). A resumed group is converted
// whole, rewriting the rows resume() verified; one whose p-1 rows all
// verified is done and costs nothing. `parent` is the row-by-row
// converter's cost of the same group: one run per block, rows r..p-2.
// `verify` is what resume() reads to check rows 0..r-1 first: one
// read_repaired of their r(p-2) chain cells, in runs, plus their r
// stored diagonals as one run. The parent re-read the chains block by
// block (r(p-2) reads and runs) and compared them with uncounted bytes.
struct ConvIo {
  std::uint64_t reads, read_runs, writes, write_runs;
  bool operator==(const ConvIo&) const = default;
};

struct ConvPin {
  int p;
  int from_row;
  ConvIo group;
  ConvIo parent;
  ConvIo verify;
};

constexpr ConvPin kConvPins[] = {
    {5, 0, {12, 6, 4, 1}, {12, 12, 4, 4}, {0, 0, 0, 0}},
    {5, 1, {12, 6, 4, 1}, {9, 9, 3, 3}, {4, 4, 0, 0}},
    {5, 3, {12, 6, 4, 1}, {3, 3, 1, 1}, {12, 6, 0, 0}},
    {5, 4, {0, 0, 0, 0}, {0, 0, 0, 0}, {16, 7, 0, 0}},
    {7, 0, {30, 10, 6, 1}, {30, 30, 6, 6}, {0, 0, 0, 0}},
    {7, 1, {30, 10, 6, 1}, {25, 25, 5, 5}, {6, 6, 0, 0}},
    {7, 5, {30, 10, 6, 1}, {5, 5, 1, 1}, {30, 10, 0, 0}},
    {7, 6, {0, 0, 0, 0}, {0, 0, 0, 0}, {36, 11, 0, 0}},
    {11, 0, {90, 18, 10, 1}, {90, 90, 10, 10}, {0, 0, 0, 0}},
    {11, 1, {90, 18, 10, 1}, {81, 81, 9, 9}, {10, 10, 0, 0}},
    {11, 9, {90, 18, 10, 1}, {9, 9, 1, 1}, {90, 18, 0, 0}},
    {11, 10, {0, 0, 0, 0}, {0, 0, 0, 0}, {100, 19, 0, 0}},
};

ConvIo pin_of(int p, int from_row) {
  for (const ConvPin& x : kConvPins) {
    if (x.p == p && x.from_row == from_row) return x.group;
  }
  ADD_FAILURE() << "no pin for p=" << p << " from_row=" << from_row;
  return {};
}

TEST(ConversionIoPins, EveryGroupFreshAndResumed) {
  constexpr std::int64_t kGroups = 3;
  for (const ConvPin& pin : kConvPins) {
    const int p = pin.p, m = p - 1, r = pin.from_row;
    SCOPED_TRACE("p=" + std::to_string(p) + " from_row=" + std::to_string(r));
    const ConvIo full = pin_of(p, 0);
    const std::uint64_t data = static_cast<std::uint64_t>((p - 1) * (p - 2));
    // The literal table against the closed forms, and against the parent.
    EXPECT_EQ(full.reads, data);
    EXPECT_EQ(full.writes * static_cast<std::uint64_t>(p - 2), data);
    EXPECT_EQ(full.read_runs * static_cast<std::uint64_t>(p - 1), 2 * data);
    EXPECT_EQ(full.write_runs * data, data);
    EXPECT_EQ(pin.group, r < p - 1 ? full : ConvIo{});
    const auto rows_left = static_cast<std::uint64_t>(p - 1 - r);
    EXPECT_EQ(pin.parent.reads, rows_left * static_cast<std::uint64_t>(p - 2));
    EXPECT_EQ(pin.parent.writes, rows_left);
    EXPECT_EQ(pin.parent.read_runs, pin.parent.reads);
    EXPECT_EQ(pin.parent.write_runs, pin.parent.writes);
    EXPECT_EQ(pin.verify.reads, static_cast<std::uint64_t>(r * (p - 1)));

    DiskArray array(m, kGroups * (p - 1), kBlock);
    fill_raid5(array, m, 40 + static_cast<std::uint64_t>(p));
    MemoryCheckpointSink sink;
    if (r > 0) {
      // A migration interrupted after row r-1 of group 0: those rows
      // hold their diagonals and the journal says so; every other
      // diagonal block is zero and must be generated. At r = p-1 the
      // record after it, (1, 0), was lost.
      {
        OnlineMigrator first(array, p);
        first.start();
        first.finish();
      }
      for (std::int64_t b = r; b < array.blocks_per_disk(); ++b) {
        std::ranges::fill(array.raw_block(m, b), std::uint8_t{0});
      }
      MigrationJournal(sink).record(0, r);
    }
    OnlineMigrator mig(array, p);
    mig.attach_journal(sink);
    const std::uint64_t r0 = array.total_reads(), rr0 = array.total_read_runs();
    const std::uint64_t w0 = array.total_writes(),
                        wr0 = array.total_write_runs();
    if (r == 0) {
      mig.start();
    } else {
      mig.resume();
    }
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kDone);
    EXPECT_TRUE(mig.verify_raid6());
    // resume() first reads the journalled rows' chains and stored copies.
    const std::uint64_t verify = pin.verify.reads;
    const ConvIo got{array.total_reads() - r0 - verify,
                     array.total_read_runs() - rr0 - pin.verify.read_runs,
                     array.total_writes() - w0,
                     array.total_write_runs() - wr0};
    const std::uint64_t rest = kGroups - 1;
    EXPECT_EQ(got.reads, pin.group.reads + rest * full.reads);
    EXPECT_EQ(got.read_runs, pin.group.read_runs + rest * full.read_runs);
    EXPECT_EQ(got.writes, pin.group.writes + rest * full.writes);
    EXPECT_EQ(got.write_runs, pin.group.write_runs + rest * full.write_runs);
    EXPECT_EQ(mig.stats().conv_reads, got.reads + verify);
    EXPECT_EQ(mig.stats().conv_writes, got.writes);
  }
}

TEST(OnlineMigrator, ReadsSeeRaid5Data) {
  const int p = 5, m = 4;
  DiskArray array(m, 4LL * (p - 1), kBlock);
  fill_raid5(array, m, 2);
  OnlineMigrator mig(array, p);
  std::vector<std::uint8_t> got(kBlock);
  // Logical block 0 lives on disk 0, block 0 (left-asymmetric row 0).
  mig.read_block(0, got);
  EXPECT_TRUE(std::ranges::equal(got, array.raw_block(0, 0)));
  // Logical block 3 is the first block of stripe row 1 (disk 0).
  mig.read_block(3, got);
  EXPECT_TRUE(std::ranges::equal(got, array.raw_block(0, 1)));
}

TEST(OnlineMigrator, WritesBeforeStartMaintainRaid5Parity) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 3);
  OnlineMigrator mig(array, p);
  Rng rng(4);
  std::vector<std::uint8_t> buf(kBlock);
  for (std::int64_t l = 0; l < mig.logical_blocks(); l += 2) {
    rng.fill(buf.data(), kBlock);
    mig.write_block(l, buf);
  }
  // Every row's horizontal parity must still close.
  Buffer acc(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    acc.zero();
    for (int d = 0; d < m; ++d) xor_into(acc.span(), array.raw_block(d, row));
    EXPECT_TRUE(all_zero(acc.span())) << "row " << row;
  }
  // And a subsequent quiescent migration still yields a valid RAID-6.
  mig.start();
  mig.finish();
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(OnlineMigrator, ConcurrentWorkloadKeepsConsistency) {
  const int p = 7, m = 6;
  const std::int64_t groups = 128;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 5);

  OnlineMigrator mig(array, p);
  const std::int64_t logical = mig.logical_blocks();

  // Application model: remember what we wrote.
  std::map<std::int64_t, Buffer> model;
  mig.start();
  {
    // A fixed op count keeps the test meaningful whether or not the
    // converter finishes first: writes must stay consistent in either
    // regime (mid-conversion RMW vs post-conversion RMW).
    Rng rng(6);
    Buffer buf(kBlock);
    for (int i = 0; i < 6000; ++i) {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(logical)));
      if (rng.next_below(2) == 0) {
        rng.fill(buf.data(), kBlock);
        mig.write_block(l, buf.span());
        model[l] = buf;
      } else {
        Buffer got(kBlock);
        mig.read_block(l, got.span());
        if (auto it = model.find(l); it != model.end()) {
          EXPECT_TRUE(got == it->second) << "stale read at " << l;
        }
      }
    }
  }
  mig.finish();
  EXPECT_TRUE(mig.verify_raid6());
  // All writes visible after migration.
  Buffer got(kBlock);
  for (const auto& [l, want] : model) {
    mig.read_block(l, got.span());
    EXPECT_TRUE(got == want) << "lost write at " << l;
  }
  const OnlineStats st = mig.stats();
  EXPECT_GT(st.app_writes, 0u);
}

TEST(OnlineMigrator, MigratedArraySurvivesDoubleFailure) {
  const int p = 5, m = 4;
  const std::int64_t groups = 6;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 7);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.finish();
  ASSERT_TRUE(mig.verify_raid6());

  const Code56& code = mig.code();
  for (auto [f1, f2] : {std::pair{0, 1}, std::pair{2, 4}, std::pair{1, 3}}) {
    for (std::int64_t g = 0; g < groups; ++g) {
      Buffer stripe(static_cast<std::size_t>(code.cell_count()) * kBlock);
      StripeView v = StripeView::over(stripe, p - 1, p, kBlock);
      for (int r = 0; r <= p - 2; ++r) {
        for (int c = 0; c <= p - 1; ++c) {
          std::ranges::copy(array.raw_block(c, g * (p - 1) + r),
                            v.block({r, c}).begin());
        }
      }
      const Buffer before = stripe;
      Rng junk(9);
      for (int c : {f1, f2}) {
        for (int r = 0; r <= p - 2; ++r) {
          junk.fill(v.block({r, c}).data(), kBlock);
        }
      }
      const std::vector<int> failed{f1, f2};
      ASSERT_TRUE(code.decode_columns(v, failed).has_value());
      EXPECT_TRUE(stripe == before) << "group " << g;
    }
  }
}

TEST(OnlineMigrator, RevertToRaid5DropsDiagonalColumn) {
  const int p = 5, m = 4;
  DiskArray array(m, 1LL * (p - 1), kBlock);
  fill_raid5(array, m, 8);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.finish();
  const int dropped = mig.revert_to_raid5();
  EXPECT_EQ(dropped, m);
  // The first m disks still close every horizontal parity chain.
  Buffer acc(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    acc.zero();
    for (int d = 0; d < m; ++d) xor_into(acc.span(), array.raw_block(d, row));
    EXPECT_TRUE(all_zero(acc.span()));
  }
}

}  // namespace
}  // namespace c56::mig
