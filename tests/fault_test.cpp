// Fault-injection layer: DiskArray bounds checking and FaultPlan
// semantics, the retry/reconstruct primitives of degraded.hpp, and the
// double-buffered checksummed migration journal.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "codes/code56.hpp"
#include "migration/degraded.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "util/rng.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;

RetryPolicy fast_retry() {
  RetryPolicy p;
  p.max_attempts = 4;
  p.backoff_us = 0;  // keep the suite fast
  return p;
}

TEST(DiskArrayBounds, RawBlockThrowsOutOfRange) {
  DiskArray a(2, 4, kBlock);
  EXPECT_THROW(a.raw_block(-1, 0), std::out_of_range);
  EXPECT_THROW(a.raw_block(2, 0), std::out_of_range);
  EXPECT_THROW(a.raw_block(0, -1), std::out_of_range);
  EXPECT_THROW(a.raw_block(0, 4), std::out_of_range);
  const DiskArray& ca = a;
  EXPECT_THROW(ca.raw_block(2, 0), std::out_of_range);
  EXPECT_NO_THROW(a.raw_block(1, 3));
}

TEST(DiskArrayBounds, CountedIoThrowsOutOfRangeWithCoordinates) {
  DiskArray a(2, 4, kBlock);
  std::vector<std::uint8_t> buf(kBlock);
  EXPECT_THROW(a.read_block(5, 0, buf), std::out_of_range);
  EXPECT_THROW(a.write_block(0, 99, buf), std::out_of_range);
  try {
    a.read_block(5, 7, buf);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;
  }
}

TEST(DiskArrayBounds, MismatchedBufferSizeRejected) {
  DiskArray a(2, 4, kBlock);
  std::vector<std::uint8_t> small(kBlock / 2);
  EXPECT_THROW(a.read_block(0, 0, small), std::invalid_argument);
  EXPECT_THROW(a.write_block(0, 0, small), std::invalid_argument);
}

TEST(FaultInjection, HealthyArrayReportsOk) {
  DiskArray a(2, 4, kBlock);
  std::vector<std::uint8_t> buf(kBlock, 0xAB);
  EXPECT_TRUE(a.write_block(0, 1, buf).ok());
  EXPECT_TRUE(a.read_block(0, 1, buf).ok());
  EXPECT_EQ(a.failed_disks(), 0);
}

TEST(FaultInjection, DiskFailsAfterScriptedIoCount) {
  DiskArray a(2, 8, kBlock);
  FaultPlan plan;
  plan.disk_failures.push_back({.disk = 1, .after_ios = 3});
  a.set_fault_plan(plan);
  std::vector<std::uint8_t> buf(kBlock, 1);
  EXPECT_TRUE(a.write_block(1, 0, buf).ok());
  EXPECT_TRUE(a.read_block(1, 0, buf).ok());
  EXPECT_TRUE(a.read_block(1, 1, buf).ok());  // 3rd I/O still served
  const IoResult r = a.read_block(1, 2, buf);
  EXPECT_EQ(r.status, IoStatus::kDiskFailed);
  EXPECT_EQ(r.disk, 1);
  EXPECT_EQ(r.block, 2);
  EXPECT_TRUE(a.disk_failed(1));
  EXPECT_FALSE(a.disk_failed(0));
  // Writes fail too, and the other disk is untouched.
  EXPECT_EQ(a.write_block(1, 0, buf).status, IoStatus::kDiskFailed);
  EXPECT_TRUE(a.read_block(0, 0, buf).ok());
}

TEST(FaultInjection, RepairClearsFailureAndScript) {
  DiskArray a(2, 4, kBlock);
  FaultPlan plan;
  plan.disk_failures.push_back({.disk = 0, .after_ios = 0});
  a.set_fault_plan(plan);
  std::vector<std::uint8_t> buf(kBlock);
  EXPECT_EQ(a.read_block(0, 0, buf).status, IoStatus::kDiskFailed);
  a.repair_disk(0);
  EXPECT_FALSE(a.disk_failed(0));
  // The scripted failure does not immediately re-trip.
  EXPECT_TRUE(a.read_block(0, 0, buf).ok());
}

TEST(FaultInjection, BadBlockFailsUntilRewritten) {
  DiskArray a(2, 4, kBlock);
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = 0, .block = 2});
  a.set_fault_plan(plan);
  std::vector<std::uint8_t> buf(kBlock, 0x11);
  EXPECT_EQ(a.read_block(0, 2, buf).status, IoStatus::kSectorError);
  EXPECT_EQ(a.read_block(0, 2, buf).status, IoStatus::kSectorError);
  EXPECT_TRUE(a.read_block(0, 3, buf).ok());  // neighbours unaffected
  EXPECT_TRUE(a.write_block(0, 2, buf).ok());  // remap on rewrite
  EXPECT_TRUE(a.read_block(0, 2, buf).ok());
}

TEST(FaultInjection, SectorErrorRateIsSeededAndTransient) {
  FaultPlan plan;
  plan.sector_error_rate = 0.5;
  plan.seed = 42;
  std::vector<std::uint8_t> buf(kBlock);
  int errors1 = 0;
  {
    DiskArray a(1, 4, kBlock);
    a.set_fault_plan(plan);
    for (int i = 0; i < 200; ++i) errors1 += !a.read_block(0, 0, buf).ok();
  }
  EXPECT_GT(errors1, 50);
  EXPECT_LT(errors1, 150);
  int errors2 = 0;
  {
    DiskArray a(1, 4, kBlock);
    a.set_fault_plan(plan);
    for (int i = 0; i < 200; ++i) errors2 += !a.read_block(0, 0, buf).ok();
  }
  EXPECT_EQ(errors1, errors2) << "same seed must replay identically";
}

TEST(FaultInjection, TornWritePersistsOnlyPrefix) {
  DiskArray a(1, 2, kBlock);
  std::ranges::fill(a.raw_block(0, 0), std::uint8_t{0xEE});
  FaultPlan plan;
  plan.torn_write_rate = 1.0;
  a.set_fault_plan(plan);
  std::vector<std::uint8_t> buf(kBlock, 0x55);
  const IoResult r = a.write_block(0, 0, buf);
  EXPECT_EQ(r.status, IoStatus::kTornWrite);
  const auto stored = a.raw_block(0, 0);
  EXPECT_EQ(stored[0], 0x55);
  EXPECT_EQ(stored[kBlock / 2 - 1], 0x55);
  EXPECT_EQ(stored[kBlock / 2], 0xEE) << "tail must keep the old bytes";
  EXPECT_EQ(stored[kBlock - 1], 0xEE);
}

TEST(DegradedIo, ReadRetrySurvivesTransientErrors) {
  DiskArray a(1, 4, kBlock);
  std::vector<std::uint8_t> want(kBlock, 0x3C);
  a.write_block(0, 1, want);
  FaultPlan plan;
  plan.sector_error_rate = 0.5;
  plan.seed = 7;
  a.set_fault_plan(plan);
  std::vector<std::uint8_t> got(kBlock);
  IoCounters c;
  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    ok += read_block_retry(a, 0, 1, got, fast_retry(), &c).ok();
  }
  // P(4 consecutive misses) = 1/16 per call: the vast majority succeed.
  EXPECT_GT(ok, 80);
  EXPECT_GT(c.retries, 0u);
  EXPECT_EQ(c.reads, 100u + c.retries);
  EXPECT_EQ(got, want);
}

TEST(DegradedIo, ReadRetryGivesUpOnPersistentBadBlock) {
  DiskArray a(1, 4, kBlock);
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = 0, .block = 0});
  a.set_fault_plan(plan);
  std::vector<std::uint8_t> got(kBlock);
  IoCounters c;
  const IoResult r = read_block_retry(a, 0, 0, got, fast_retry(), &c);
  EXPECT_EQ(r.status, IoStatus::kSectorError);
  EXPECT_EQ(c.reads, 4u);
  EXPECT_EQ(c.retries, 3u);
}

TEST(DegradedIo, WriteRetryRepairsTornWrites) {
  DiskArray a(1, 2, kBlock);
  FaultPlan plan;
  plan.torn_write_rate = 0.5;
  plan.seed = 9;
  a.set_fault_plan(plan);
  std::vector<std::uint8_t> want(kBlock, 0x77);
  IoCounters c;
  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    ok += write_block_retry(a, 0, 0, want, fast_retry(), &c).ok();
  }
  EXPECT_GT(ok, 80);
  EXPECT_GT(c.retries, 0u);
}

// Code 5-6 at p = 3 is one 2 x 3 stripe: cell 2 is block 0 of disk 2,
// and the plan reconstructs it from block 0 of disks 0 and 1.
RepairPlan row_zero_plan() {
  RepairPlan plan;
  plan.recipes.push_back({2, {0, 1}});
  plan.reads = {0, 1};
  return plan;
}

TEST(DegradedIo, ReadRepairedReconstructs) {
  DiskArray a(3, 2, kBlock);
  std::vector<std::uint8_t> b0(kBlock, 0x0F), b1(kBlock, 0xF0);
  a.write_block(0, 0, b0);
  a.write_block(1, 0, b1);
  std::vector<std::uint8_t> out(kBlock, 0xAA);
  EXPECT_TRUE(read_repaired(a, Code56(3), 0, row_zero_plan(), 0, 1, out,
                            fast_retry(), nullptr)
                  .ok());
  EXPECT_TRUE(std::ranges::all_of(out, [](std::uint8_t b) { return b == 0xFF; }));
}

TEST(DegradedIo, ReadRepairedFailsOnFailedSource) {
  DiskArray a(3, 2, kBlock);
  a.fail_disk(1);
  std::vector<std::uint8_t> out(kBlock);
  const IoResult r = read_repaired(a, Code56(3), 0, row_zero_plan(), 0, 1, out,
                                   fast_retry(), nullptr);
  EXPECT_EQ(r.status, IoStatus::kDiskFailed);
  EXPECT_EQ(r.disk, 1);
}

TEST(DegradedIo, RebuildStripesCountsEachFaultedRunAsARetry) {
  // Regenerate Code 5-6's diagonal column at p = 5 (the conversion's
  // plan) over 16 stripes under transient sector errors. Every injected
  // error faults either a vectored run, whose block-by-block redo is its
  // retry, or a block attempt, which is retried; no attempt budget runs
  // out, so retries must equal the errors surfaced.
  const Code56 code(5);
  const int p = code.p();
  constexpr std::int64_t kStripes = 16;
  std::vector<int> diag;
  for (int r = 0; r < code.rows(); ++r) diag.push_back(r * code.cols() + p - 1);
  const auto plan =
      plan_repair(code.cell_count(), code.chain_specs(), diag, diag);
  ASSERT_TRUE(plan.has_value());
  DiskArray clean(p, kStripes * code.rows(), kBlock);
  DiskArray faulty(p, kStripes * code.rows(), kBlock);
  Rng rng(11);
  for (int d = 0; d < p - 1; ++d) {
    for (std::int64_t b = 0; b < clean.blocks_per_disk(); ++b) {
      rng.fill(clean.raw_block(d, b).data(), kBlock);
      std::ranges::copy(clean.raw_block(d, b), faulty.raw_block(d, b).begin());
    }
  }
  FaultPlan faults;
  faults.sector_error_rate = 0.05;
  faults.seed = 12;
  faulty.set_fault_plan(faults);
  RetryPolicy retry = fast_retry();
  retry.max_attempts = 16;
  IoCounters c;
  ASSERT_TRUE(
      rebuild_stripes(faulty, code, 0, *plan, 0, kStripes, retry, &c).ok());
  ASSERT_TRUE(
      rebuild_stripes(clean, code, 0, *plan, 0, kStripes, retry, nullptr).ok());
  EXPECT_GT(faulty.sector_errors(), 0u);
  EXPECT_EQ(c.retries, faulty.sector_errors());
  for (std::int64_t b = 0; b < clean.blocks_per_disk(); ++b) {
    EXPECT_TRUE(std::ranges::equal(faulty.raw_block(p - 1, b),
                                   clean.raw_block(p - 1, b)))
        << "block " << b;
  }
}

TEST(Journal, EncodeDecodeRoundTrip) {
  const CheckpointRecord rec{.seq = 17, .groups_done = 123456789, .diag_rows = 4};
  const auto bytes = MigrationJournal::encode(rec);
  ASSERT_EQ(bytes.size(), MigrationJournal::kSlotBytes);
  const auto back = MigrationJournal::decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 17u);
  EXPECT_EQ(back->groups_done, 123456789);
  EXPECT_EQ(back->diag_rows, 4);
}

TEST(Journal, DecodeRejectsCorruption) {
  auto bytes = MigrationJournal::encode({.seq = 1, .groups_done = 2, .diag_rows = 3});
  EXPECT_TRUE(MigrationJournal::decode(bytes).has_value());
  bytes[20] ^= 0x01;  // flip one payload bit
  EXPECT_FALSE(MigrationJournal::decode(bytes).has_value());
  EXPECT_FALSE(MigrationJournal::decode({}).has_value());
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_FALSE(MigrationJournal::decode(truncated).has_value());
}

TEST(Journal, RecoverPicksHighestValidSlot) {
  MemoryCheckpointSink sink;
  MigrationJournal j(sink);
  EXPECT_FALSE(j.recover().has_value());
  j.record(1, 0);
  j.record(1, 2);
  j.record(2, 0);
  MigrationJournal j2(sink);
  const auto rec = j2.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->groups_done, 2);
  EXPECT_EQ(rec->diag_rows, 0);
}

TEST(Journal, TornSlotFallsBackToOtherSlot) {
  MemoryCheckpointSink sink;
  MigrationJournal j(sink);
  j.record(5, 1);  // slot 0
  j.record(5, 2);  // slot 1 (latest)
  // Tear the latest slot: the journal must fall back to (5, 1).
  auto bytes = sink.read_slot(1);
  bytes.resize(bytes.size() / 2);
  sink.write_slot(1, bytes);
  MigrationJournal j2(sink);
  const auto rec = j2.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->groups_done, 5);
  EXPECT_EQ(rec->diag_rows, 1);
  // A new record after recovery overwrites the torn slot, not the
  // surviving one.
  j2.record(6, 0);
  ASSERT_TRUE(MigrationJournal::decode(sink.read_slot(0)).has_value());
  ASSERT_TRUE(MigrationJournal::decode(sink.read_slot(1)).has_value());
}

TEST(Journal, EqualSeqTieBreakPrefersLaterSlot) {
  // Two valid records can share a seq after a torn write of slot A is
  // retried into slot B (the writer re-records the same position): the
  // later slot is the fresher copy and must win. Pre-fix, recovery used
  // a strict `>` compare and kept slot 0.
  MemoryCheckpointSink sink;
  sink.write_slot(0, MigrationJournal::encode(
                         {.seq = 9, .groups_done = 3, .diag_rows = 1}));
  sink.write_slot(1, MigrationJournal::encode(
                         {.seq = 9, .groups_done = 3, .diag_rows = 2}));
  MigrationJournal j(sink);
  const auto rec = j.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->seq, 9u);
  EXPECT_EQ(rec->groups_done, 3);
  EXPECT_EQ(rec->diag_rows, 2);  // later slot
  // The stale twin (slot 0) is overwritten first, keeping the winner.
  j.record(4, 0);
  const auto s0 = MigrationJournal::decode(sink.read_slot(0));
  const auto s1 = MigrationJournal::decode(sink.read_slot(1));
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s0->groups_done, 4);
  EXPECT_EQ(s1->diag_rows, 2);
}

TEST(Journal, SingleValidSlotRecovers) {
  for (int valid = 0; valid < 2; ++valid) {
    MemoryCheckpointSink sink;
    sink.write_slot(valid, MigrationJournal::encode(
                               {.seq = 5, .groups_done = 7, .diag_rows = 3}));
    MigrationJournal j(sink);
    const auto rec = j.recover();
    ASSERT_TRUE(rec.has_value()) << "valid slot " << valid;
    EXPECT_EQ(rec->groups_done, 7);
    EXPECT_EQ(rec->diag_rows, 3);
  }
}

TEST(Journal, BothSlotsCorruptRecoversNothing) {
  MemoryCheckpointSink sink;
  std::vector<std::uint8_t> junk(MigrationJournal::kSlotBytes, 0xA5);
  sink.write_slot(0, junk);
  junk.assign(MigrationJournal::kSlotBytes / 2, 0x5A);  // torn too
  sink.write_slot(1, junk);
  MigrationJournal j(sink);
  EXPECT_FALSE(j.recover().has_value());
}

TEST(Journal, FileSinkRoundTrips) {
  const auto path = std::filesystem::temp_directory_path() /
                    "c56_journal_test.bin";
  std::filesystem::remove(path);
  {
    FileCheckpointSink sink(path.string());
    MigrationJournal j(sink);
    EXPECT_FALSE(j.recover().has_value());
    j.record(3, 2);
    j.record(4, 0);
  }
  {
    FileCheckpointSink sink(path.string());
    MigrationJournal j(sink);
    const auto rec = j.recover();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->groups_done, 4);
    EXPECT_EQ(rec->diag_rows, 0);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace c56::mig
