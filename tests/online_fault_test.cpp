// Fault-tolerant online migration: the conversion surviving a source
// disk lost mid-stream, transient-error retry, terminal aborts on
// double failures, crash-consistent resume through the journal, the
// migrator's lifecycle orderings, its application write path (I/O
// pins per state, disk condition and call, buffer-size checks, and one
// retry ladder per unreadable range), and its rebuild I/O per state and
// failure set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "layout/raid.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "migration/online.hpp"
#include "sim/disk_model.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;

/// Build a valid left-asymmetric RAID-5 with random data.
void fill_raid5(DiskArray& array, int m, std::uint64_t seed) {
  const std::size_t bs = array.block_bytes();
  Rng rng(seed);
  std::vector<std::uint8_t> block(bs), parity(bs);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = raid5_parity_disk(Raid5Flavor::kLeftAsymmetric,
                                        static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      rng.fill(block.data(), bs);
      std::ranges::copy(block, array.raw_block(d, row).begin());
      xor_into(parity.data(), block.data(), bs);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

struct Addr {
  int disk;
  std::int64_t block;
};

/// Physical home of a logical data block (mirrors OnlineMigrator).
Addr logical_addr(std::int64_t logical, int m) {
  const std::int64_t stripe_row = logical / (m - 1);
  const int k = static_cast<int>(logical % (m - 1));
  return {raid5_data_disk(Raid5Flavor::kLeftAsymmetric,
                          static_cast<int>(stripe_row % m), k, m),
          stripe_row};
}

/// Uninjected copy of every logical data block, for later readback
/// comparison (raw_block leaves the I/O counters untouched, so fault
/// plans scripted in counted I/Os stay calibrated).
std::vector<std::vector<std::uint8_t>> snapshot_logical(const DiskArray& array,
                                                        int m,
                                                        std::int64_t logical) {
  std::vector<std::vector<std::uint8_t>> snap;
  snap.reserve(static_cast<std::size_t>(logical));
  for (std::int64_t l = 0; l < logical; ++l) {
    const Addr a = logical_addr(l, m);
    const auto src = array.raw_block(a.disk, a.block);
    snap.emplace_back(src.begin(), src.end());
  }
  return snap;
}

RetryPolicy fast_retry() {
  RetryPolicy p;
  p.max_attempts = 4;
  p.backoff_us = 0;
  return p;
}

/// Memory sink that fires a callback after a scripted number of
/// checkpoint writes — the crash trigger for the resume tests.
class StopAfterSink final : public CheckpointSink {
 public:
  explicit StopAfterSink(std::size_t limit) : limit_(limit) {}
  void arm(std::function<void()> cb) { on_limit_ = std::move(cb); }
  void disarm() { on_limit_ = nullptr; }

  void write_slot(int slot, std::span<const std::uint8_t> bytes) override {
    inner_.write_slot(slot, bytes);
    if (++count_ == limit_ && on_limit_) on_limit_();
  }
  std::vector<std::uint8_t> read_slot(int slot) override {
    return inner_.read_slot(slot);
  }

 private:
  MemoryCheckpointSink inner_;
  std::size_t limit_;
  std::size_t count_ = 0;
  std::function<void()> on_limit_;
};

TEST(DegradedConversion, SurvivesSingleSourceDiskFailure) {
  const int p = 5, m = 4;
  const std::int64_t groups = 6;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 21);

  OnlineMigrator mig(array, p);
  const auto snap = snapshot_logical(array, m, mig.logical_blocks());

  // Disk 1 dies on its 11th counted I/O: mid-conversion (the converter
  // reads each source disk p-2 = 3 times per group).
  FaultPlan plan;
  plan.disk_failures.push_back({.disk = 1, .after_ios = 10});
  array.set_fault_plan(plan);
  mig.set_retry_policy(fast_retry());

  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(array.disk_failed(1));
  const OnlineStats st = mig.stats();
  EXPECT_GT(st.reconstructed_reads, 0u)
      << "remaining chains must read disk 1 through the row parity";

  // Rebuild the lost disk and check the full RAID-6 plus every logical
  // block against the pre-migration contents.
  EXPECT_GT(mig.rebuild_failed_disks(), 0);
  EXPECT_EQ(array.failed_disks(), 0);
  EXPECT_TRUE(mig.verify_raid6());
  std::vector<std::uint8_t> got(kBlock);
  for (std::int64_t l = 0; l < mig.logical_blocks(); ++l) {
    ASSERT_TRUE(mig.read_block(l, got).ok()) << "logical " << l;
    EXPECT_EQ(got, snap[static_cast<std::size_t>(l)]) << "logical " << l;
  }
}

TEST(DegradedConversion, SurvivesFailureUnderConcurrentWrites) {
  const int p = 5, m = 4;
  const std::int64_t groups = 48;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 22);

  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  const std::int64_t logical = mig.logical_blocks();

  FaultPlan plan;
  plan.disk_failures.push_back({.disk = 2, .after_ios = 40});
  array.set_fault_plan(plan);

  std::map<std::int64_t, Buffer> model;
  mig.start();
  {
    Rng rng(23);
    Buffer buf(kBlock);
    for (int i = 0; i < 1200; ++i) {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(logical)));
      if (rng.next_below(2) == 0) {
        rng.fill(buf.data(), kBlock);
        ASSERT_TRUE(mig.write_block(l, buf.span()).ok()) << "logical " << l;
        model[l] = buf;
      } else {
        Buffer got(kBlock);
        ASSERT_TRUE(mig.read_block(l, got.span()).ok()) << "logical " << l;
        if (auto it = model.find(l); it != model.end()) {
          EXPECT_TRUE(got == it->second) << "stale read at " << l;
        }
      }
    }
  }
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(array.disk_failed(2));

  EXPECT_GT(mig.rebuild_failed_disks(), 0);
  EXPECT_TRUE(mig.verify_raid6());
  Buffer got(kBlock);
  for (const auto& [l, want] : model) {
    ASSERT_TRUE(mig.read_block(l, got.span()).ok());
    EXPECT_TRUE(got == want) << "lost write at " << l;
  }
}

TEST(DegradedConversion, TransientSectorErrorsAreRetried) {
  const int p = 5, m = 4;
  DiskArray array(m, 8LL * (p - 1), kBlock);
  fill_raid5(array, m, 24);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  FaultPlan plan;
  plan.sector_error_rate = 0.05;
  plan.seed = 25;
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_GT(mig.stats().retries, 0u);
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(DegradedConversion, TornWritesAreRepaired) {
  const int p = 5, m = 4;
  DiskArray array(m, 8LL * (p - 1), kBlock);
  fill_raid5(array, m, 26);
  OnlineMigrator mig(array, p);
  // At a 20% tear rate, 4 attempts leave a ~0.2% chance per write of a
  // terminal failure; 8 attempts make one effectively impossible.
  RetryPolicy retry = fast_retry();
  retry.max_attempts = 8;
  mig.set_retry_policy(retry);
  FaultPlan plan;
  plan.torn_write_rate = 0.2;
  plan.seed = 27;
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_GT(mig.stats().retries, 0u);
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(DegradedConversion, HardBadBlockReconstructedThroughParity) {
  const int p = 5, m = 4;
  DiskArray array(m, 4LL * (p - 1), kBlock);
  fill_raid5(array, m, 28);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  // A persistent latent error under a conversion chain source: the
  // converter never rewrites source disks, so every read of this block
  // must go through reconstruction.
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = 0, .block = 2});
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_GT(mig.stats().reconstructed_reads, 0u);
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(DegradedConversion, DoubleFailureAbortsCleanly) {
  const int p = 5, m = 4;
  DiskArray array(m, 4LL * (p - 1), kBlock);
  fill_raid5(array, m, 29);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  array.fail_disk(0);
  array.fail_disk(1);
  mig.start();
  mig.finish();  // must return promptly, not hang
  EXPECT_EQ(mig.state(), MigrationState::kAborted);
  const std::string reason = mig.abort_reason();
  EXPECT_FALSE(reason.empty());
  EXPECT_NE(reason.find("diagonal"), std::string::npos) << reason;
  // The array is beyond the migration's fault tolerance: rebuild and
  // resume both refuse.
  EXPECT_THROW(mig.rebuild_failed_disks(), std::runtime_error);
  EXPECT_THROW(mig.resume(), std::logic_error);
  // Application I/O on a lost, unreconstructible block reports failure.
  std::vector<std::uint8_t> buf(kBlock, 0);
  bool any_failed = false;
  for (std::int64_t l = 0; l < mig.logical_blocks(); ++l) {
    any_failed |= !mig.read_block(l, buf).ok();
  }
  EXPECT_TRUE(any_failed);
}

/// Flat Code 5-6 cell (row, col) of stripe group `g` as a bad block.
FaultPlan::BadBlock bad_cell(int p, std::int64_t g, int row, int col) {
  return {.disk = col, .block = g * (p - 1) + row};
}

TEST(DegradedConversion, BadBlocksInDistinctRowsAndColumnsAreErased) {
  // Each unreadable data block becomes one more erased cell of its
  // group's plan, recovered through its own row: two of them decode as
  // long as no row holds both. Both pairs sit in group 1; the second
  // pair shares one diagonal chain.
  const int p = 5, m = 4;
  for (const auto& [a, b] :
       {std::pair{bad_cell(p, 1, 0, 0), bad_cell(p, 1, 1, 1)},
        std::pair{bad_cell(p, 1, 0, 1), bad_cell(p, 1, 1, 0)}}) {
    SCOPED_TRACE("disks " + std::to_string(a.disk) + "," +
                 std::to_string(b.disk));
    DiskArray array(m, 3LL * (p - 1), kBlock);
    fill_raid5(array, m, 0xE7A);
    OnlineMigrator mig(array, p);
    mig.set_retry_policy(fast_retry());
    FaultPlan plan;
    plan.bad_blocks = {a, b};
    array.set_fault_plan(plan);
    mig.start();
    mig.finish();
    EXPECT_EQ(mig.state(), MigrationState::kDone) << mig.abort_reason();
    EXPECT_EQ(mig.stats().reconstructed_reads, 2u);
    EXPECT_TRUE(mig.verify_raid6());
  }
}

TEST(DegradedConversion, BadBlocksInOneRowAbort) {
  // Two erased data cells in one row, with the diagonal column still
  // to be generated, leave the group undecodable.
  const int p = 5, m = 4;
  DiskArray array(m, 3LL * (p - 1), kBlock);
  fill_raid5(array, m, 0xE7B);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  FaultPlan plan;
  plan.bad_blocks = {bad_cell(p, 1, 0, 0), bad_cell(p, 1, 0, 1)};
  array.set_fault_plan(plan);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kAborted);
  EXPECT_NE(mig.abort_reason().find("diagonal"), std::string::npos)
      << mig.abort_reason();
}

TEST(CrashResume, ByteIdenticalToUninterruptedRun) {
  const int p = 5, m = 4;
  const std::int64_t groups = 8;
  const std::uint64_t seed = 31;

  // Reference: the same data migrated without interruption.
  DiskArray ref(m, groups * (p - 1), kBlock);
  fill_raid5(ref, m, seed);
  {
    OnlineMigrator mig(ref, p);
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kDone);
  }

  // start() journals once up front, then once per diagonal block: small
  // limits stop inside the first group, larger ones several groups in.
  for (const std::size_t stop_after : {2UL, 5UL, 13UL, 27UL}) {
    DiskArray array(m, groups * (p - 1), kBlock);
    fill_raid5(array, m, seed);
    StopAfterSink sink(stop_after);
    {
      OnlineMigrator mig(array, p);
      mig.attach_journal(sink);
      sink.arm([&mig] { mig.request_stop(); });
      mig.start();
      mig.finish();
      ASSERT_NE(mig.state(), MigrationState::kAborted);
      // Migrator destroyed here: the "crash". Only the journal and the
      // array survive.
    }
    sink.disarm();
    OnlineMigrator mig2(array, p);  // re-attach: array now has p disks
    mig2.attach_journal(sink);
    mig2.resume();
    mig2.finish();
    EXPECT_EQ(mig2.state(), MigrationState::kDone) << "stop " << stop_after;
    EXPECT_TRUE(mig2.verify_raid6()) << "stop " << stop_after;
    for (int d = 0; d <= m; ++d) {
      for (std::int64_t b = 0; b < array.blocks_per_disk(); ++b) {
        ASSERT_TRUE(std::ranges::equal(array.raw_block(d, b),
                                       ref.raw_block(d, b)))
            << "stop " << stop_after << " disk " << d << " block " << b;
      }
    }
  }
}

TEST(CrashResume, WatermarkGroupIsReverified) {
  const int p = 5, m = 4;
  const std::int64_t groups = 8;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 32);
  StopAfterSink sink(14);
  std::int64_t watermark = 0;
  {
    OnlineMigrator mig(array, p);
    // Checkpoint 14 is mid-conversion only with one worker; with
    // $C56_CONVERT_WORKERS workers every group can finish first.
    mig.set_workers(1);
    mig.attach_journal(sink);
    sink.arm([&mig] { mig.request_stop(); });
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kStopped);
    watermark = mig.groups_done();
    ASSERT_GT(watermark, 0);
  }
  sink.disarm();
  // Corrupt a diagonal block the journal claims is durable — the torn
  // new-disk write a crash can leave behind. resume() must detect the
  // stale parity and regenerate it rather than trust the watermark.
  auto diag = array.raw_block(m, (watermark - 1) * (p - 1) + 1);
  for (auto& b : diag) b ^= 0xFF;
  OnlineMigrator mig2(array, p);
  mig2.attach_journal(sink);
  mig2.resume();
  mig2.finish();
  EXPECT_EQ(mig2.state(), MigrationState::kDone);
  EXPECT_TRUE(mig2.verify_raid6());
}

TEST(CrashResume, UnreadableVerifiedDiagonalIsRegenerated) {
  // resume() reads the stored diagonals it verifies through counted
  // I/O: one that has become unreadable is stale, so the conversion
  // rewinds to it and rewrites it, which remaps the bad block.
  const int p = 5, m = 4;
  const std::int64_t groups = 8;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 36);
  StopAfterSink sink(14);
  std::int64_t watermark = 0;
  {
    OnlineMigrator mig(array, p);
    mig.set_workers(1);  // checkpoint 14 is mid-conversion
    mig.attach_journal(sink);
    sink.arm([&mig] { mig.request_stop(); });
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kStopped);
    watermark = mig.groups_done();
    ASSERT_GT(watermark, 0);
  }
  sink.disarm();
  const std::int64_t block = (watermark - 1) * (p - 1) + 1;
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = m, .block = block});
  array.set_fault_plan(plan);
  OnlineMigrator mig2(array, p);
  mig2.set_retry_policy(fast_retry());
  mig2.attach_journal(sink);
  mig2.resume();
  mig2.finish();
  EXPECT_EQ(mig2.state(), MigrationState::kDone);
  EXPECT_TRUE(mig2.verify_raid6());
  std::vector<std::uint8_t> got(kBlock);
  ASSERT_TRUE(array.read_block(m, block, got).ok());
  EXPECT_TRUE(std::ranges::equal(got, array.raw_block(m, block)));
}

TEST(CrashResume, LostWatermarkRecordAfterLastRow) {
  // note_progress journals (g, p-1) for the watermark group's last row,
  // then the watermark record (g+1, 0). A crash between the two, or a
  // torn second slot, leaves (g, p-1) as the durable record. resume()
  // must verify group g and go on from g+1, also when g is the last
  // group.
  const int p = 5, m = 4;
  const std::int64_t groups = 4;
  DiskArray ref(m, groups * (p - 1), kBlock);
  fill_raid5(ref, m, 35);
  {
    OnlineMigrator mig(ref, p);
    mig.start();
    mig.finish();
    ASSERT_EQ(mig.state(), MigrationState::kDone);
  }
  for (const std::int64_t g : {std::int64_t{0}, groups - 1}) {
    DiskArray array(m + 1, groups * (p - 1), kBlock);
    for (int d = 0; d <= m; ++d) {
      for (std::int64_t b = 0; b < array.blocks_per_disk(); ++b) {
        std::ranges::copy(ref.raw_block(d, b), array.raw_block(d, b).begin());
      }
    }
    // Diagonals past group g were never written.
    for (std::int64_t b = (g + 1) * (p - 1); b < array.blocks_per_disk(); ++b) {
      std::ranges::fill(array.raw_block(m, b), std::uint8_t{0});
    }
    MemoryCheckpointSink sink;
    MigrationJournal(sink).record(g, p - 1);
    OnlineMigrator mig(array, p);
    mig.attach_journal(sink);
    mig.resume();
    mig.finish();
    EXPECT_EQ(mig.state(), MigrationState::kDone) << "group " << g;
    EXPECT_EQ(mig.groups_done(), groups) << "group " << g;
    EXPECT_TRUE(mig.verify_raid6()) << "group " << g;
    for (std::int64_t b = 0; b < array.blocks_per_disk(); ++b) {
      ASSERT_TRUE(std::ranges::equal(array.raw_block(m, b), ref.raw_block(m, b)))
          << "group " << g << " block " << b;
    }
  }
}

TEST(CrashResume, ResumeWithoutJournalUsesInMemoryPosition) {
  const int p = 5, m = 4;
  DiskArray array(m, 16LL * (p - 1), kBlock);
  fill_raid5(array, m, 33);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.request_stop();
  mig.finish();
  const MigrationState s = mig.state();
  ASSERT_TRUE(s == MigrationState::kStopped || s == MigrationState::kDone);
  mig.resume();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
  // Resuming a finished migration is a no-op.
  mig.resume();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
}

TEST(CrashResume, FreshJournalResumesFromTheStart) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 34);
  MemoryCheckpointSink sink;  // never written: recover() finds nothing
  OnlineMigrator mig(array, p);
  mig.attach_journal(sink);
  mig.resume();  // resume from kIdle == start from group 0
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(Lifecycle, ConstructDestroy) {
  DiskArray array(4, 8, kBlock);
  { OnlineMigrator mig(array, 5); }
  EXPECT_EQ(array.disks(), 4);  // never started: no disk added
}

TEST(Lifecycle, FinishWithoutStartIsNoOp) {
  DiskArray array(4, 8, kBlock);
  OnlineMigrator mig(array, 5);
  mig.finish();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kIdle);
}

TEST(Lifecycle, StartDestroyLeavesCheckpoint) {
  const int p = 5, m = 4;
  DiskArray array(m, 64LL * (p - 1), kBlock);
  fill_raid5(array, m, 35);
  MemoryCheckpointSink sink;
  {
    OnlineMigrator mig(array, p);
    mig.attach_journal(sink);
    mig.start();
    // Destroyed while (possibly still) converting: the destructor stops
    // and joins; whatever was generated stays journalled.
  }
  // The journal decodes and the recorded watermark is within range.
  MigrationJournal j(sink);
  const auto rec = j.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_GE(rec->groups_done, 0);
  EXPECT_LE(rec->groups_done, 64);
  // And a new migrator completes the job.
  OnlineMigrator mig2(array, p);
  mig2.attach_journal(sink);
  mig2.resume();
  mig2.finish();
  EXPECT_EQ(mig2.state(), MigrationState::kDone);
  EXPECT_TRUE(mig2.verify_raid6());
}

TEST(Lifecycle, StartFinishDestroyAndDoubleStart) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 36);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_THROW(mig.start(), std::logic_error);
  mig.finish();  // idempotent after completion
}

TEST(Lifecycle, StopBeforeStartDoesNotWedgeTheConverter) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 37);
  OnlineMigrator mig(array, p);
  mig.request_stop();  // stale stop request must not stop the next run
  mig.start();
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
}

// ---------------------------------------------------------------------
// Application-write I/O shape: literal pins of the DiskArray traffic and
// the OnlineStats steps of one migrator write, per code size, migration
// state, disk condition and call. Only whole-disk failures are
// injected, so every number is deterministic.

constexpr std::size_t kPinBlock = 1024;

enum class MigState { kPreStart, kMidGroup, kDone };
enum class Condition { kHealthy, kDataFailed, kHparFailed, kNewDiskFailed };
enum class Call { kWriteBlock, kFullRange, kSubRange };

struct MigIo {
  std::uint64_t app_reads, app_writes, degraded_writes;
  std::uint64_t reads, writes, read_bytes, write_bytes;
};

struct MigPin {
  int p;
  MigState state;
  Condition cond;
  Call call;
  MigIo io;
};

constexpr MigState kPreStart = MigState::kPreStart;
constexpr MigState kMidGroup = MigState::kMidGroup;
constexpr MigState kDone = MigState::kDone;
constexpr Condition kHealthy = Condition::kHealthy;
constexpr Condition kDataFailed = Condition::kDataFailed;
constexpr Condition kHparFailed = Condition::kHparFailed;
constexpr Condition kNewDiskFailed = Condition::kNewDiskFailed;
constexpr Call kWriteBlock = Call::kWriteBlock;
constexpr Call kFullRange = Call::kFullRange;
constexpr Call kSubRange = Call::kSubRange;

// {app_reads, app_writes, degraded_writes, reads, writes, read_bytes,
// write_bytes}; 1 KiB blocks, the 512 B range at offset 256.
constexpr MigPin kMigPins[] = {
    {5, kPreStart, kHealthy, kWriteBlock, {2, 2, 0, 2, 2, 2048, 2048}},
    {5, kPreStart, kHealthy, kFullRange, {2, 2, 0, 2, 2, 2048, 2048}},
    {5, kPreStart, kHealthy, kSubRange, {2, 2, 0, 2, 2, 1024, 1024}},
    {5, kPreStart, kDataFailed, kWriteBlock, {4, 1, 1, 4, 1, 4096, 1024}},
    {5, kPreStart, kDataFailed, kFullRange, {4, 1, 1, 4, 1, 4096, 1024}},
    {5, kPreStart, kDataFailed, kSubRange, {4, 1, 1, 4, 1, 3584, 512}},
    {5, kPreStart, kHparFailed, kWriteBlock, {1, 1, 1, 1, 1, 1024, 1024}},
    {5, kPreStart, kHparFailed, kFullRange, {1, 1, 1, 1, 1, 1024, 1024}},
    {5, kPreStart, kHparFailed, kSubRange, {1, 1, 1, 1, 1, 512, 512}},
    {5, kMidGroup, kHealthy, kWriteBlock, {3, 3, 0, 3, 3, 3072, 3072}},
    {5, kMidGroup, kHealthy, kFullRange, {3, 3, 0, 3, 3, 3072, 3072}},
    {5, kMidGroup, kHealthy, kSubRange, {3, 3, 0, 3, 3, 1536, 1536}},
    {5, kMidGroup, kDataFailed, kWriteBlock, {5, 2, 1, 5, 2, 5120, 2048}},
    {5, kMidGroup, kDataFailed, kFullRange, {5, 2, 1, 5, 2, 5120, 2048}},
    {5, kMidGroup, kDataFailed, kSubRange, {5, 2, 1, 5, 2, 4096, 1024}},
    {5, kMidGroup, kHparFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kMidGroup, kHparFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kMidGroup, kHparFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
    {5, kMidGroup, kNewDiskFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kMidGroup, kNewDiskFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kMidGroup, kNewDiskFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
    {5, kDone, kHealthy, kWriteBlock, {3, 3, 0, 3, 3, 3072, 3072}},
    {5, kDone, kHealthy, kFullRange, {3, 3, 0, 3, 3, 3072, 3072}},
    {5, kDone, kHealthy, kSubRange, {3, 3, 0, 3, 3, 1536, 1536}},
    {5, kDone, kDataFailed, kWriteBlock, {5, 2, 1, 5, 2, 5120, 2048}},
    {5, kDone, kDataFailed, kFullRange, {5, 2, 1, 5, 2, 5120, 2048}},
    {5, kDone, kDataFailed, kSubRange, {5, 2, 1, 5, 2, 4096, 1024}},
    {5, kDone, kHparFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kDone, kHparFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kDone, kHparFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
    {5, kDone, kNewDiskFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kDone, kNewDiskFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {5, kDone, kNewDiskFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
    {7, kPreStart, kHealthy, kWriteBlock, {2, 2, 0, 2, 2, 2048, 2048}},
    {7, kPreStart, kHealthy, kFullRange, {2, 2, 0, 2, 2, 2048, 2048}},
    {7, kPreStart, kHealthy, kSubRange, {2, 2, 0, 2, 2, 1024, 1024}},
    {7, kPreStart, kDataFailed, kWriteBlock, {6, 1, 1, 6, 1, 6144, 1024}},
    {7, kPreStart, kDataFailed, kFullRange, {6, 1, 1, 6, 1, 6144, 1024}},
    {7, kPreStart, kDataFailed, kSubRange, {6, 1, 1, 6, 1, 5632, 512}},
    {7, kPreStart, kHparFailed, kWriteBlock, {1, 1, 1, 1, 1, 1024, 1024}},
    {7, kPreStart, kHparFailed, kFullRange, {1, 1, 1, 1, 1, 1024, 1024}},
    {7, kPreStart, kHparFailed, kSubRange, {1, 1, 1, 1, 1, 512, 512}},
    {7, kMidGroup, kHealthy, kWriteBlock, {3, 3, 0, 3, 3, 3072, 3072}},
    {7, kMidGroup, kHealthy, kFullRange, {3, 3, 0, 3, 3, 3072, 3072}},
    {7, kMidGroup, kHealthy, kSubRange, {3, 3, 0, 3, 3, 1536, 1536}},
    {7, kMidGroup, kDataFailed, kWriteBlock, {7, 2, 1, 7, 2, 7168, 2048}},
    {7, kMidGroup, kDataFailed, kFullRange, {7, 2, 1, 7, 2, 7168, 2048}},
    {7, kMidGroup, kDataFailed, kSubRange, {7, 2, 1, 7, 2, 6144, 1024}},
    {7, kMidGroup, kHparFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kMidGroup, kHparFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kMidGroup, kHparFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
    {7, kMidGroup, kNewDiskFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kMidGroup, kNewDiskFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kMidGroup, kNewDiskFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
    {7, kDone, kHealthy, kWriteBlock, {3, 3, 0, 3, 3, 3072, 3072}},
    {7, kDone, kHealthy, kFullRange, {3, 3, 0, 3, 3, 3072, 3072}},
    {7, kDone, kHealthy, kSubRange, {3, 3, 0, 3, 3, 1536, 1536}},
    {7, kDone, kDataFailed, kWriteBlock, {7, 2, 1, 7, 2, 7168, 2048}},
    {7, kDone, kDataFailed, kFullRange, {7, 2, 1, 7, 2, 7168, 2048}},
    {7, kDone, kDataFailed, kSubRange, {7, 2, 1, 7, 2, 6144, 1024}},
    {7, kDone, kHparFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kDone, kHparFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kDone, kHparFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
    {7, kDone, kNewDiskFailed, kWriteBlock, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kDone, kNewDiskFailed, kFullRange, {2, 2, 1, 2, 2, 2048, 2048}},
    {7, kDone, kNewDiskFailed, kSubRange, {2, 2, 1, 2, 2, 1024, 1024}},
};

const char* name(MigState s) {
  switch (s) {
    case MigState::kPreStart: return "kPreStart";
    case MigState::kMidGroup: return "kMidGroup";
    case MigState::kDone: return "kDone";
  }
  return "?";
}

const char* name(Condition c) {
  switch (c) {
    case Condition::kHealthy: return "kHealthy";
    case Condition::kDataFailed: return "kDataFailed";
    case Condition::kHparFailed: return "kHparFailed";
    case Condition::kNewDiskFailed: return "kNewDiskFailed";
  }
  return "?";
}

const char* name(Call c) {
  switch (c) {
    case Call::kWriteBlock: return "kWriteBlock";
    case Call::kFullRange: return "kFullRange";
    case Call::kSubRange: return "kSubRange";
  }
  return "?";
}

/// Diagonal parity row (Eq. 2) holding the data cell at `row`, `disk`.
int diag_row_of(int row, int disk, int p) { return (row + disk + 1) % p; }

/// Runs one pinned write on a 3-group array and returns what it cost.
MigIo measure_mig_write(int p, MigState state, Condition cond, Call call) {
  const int m = p - 1;
  DiskArray array(m, 3LL * (p - 1), kPinBlock);
  fill_raid5(array, m, 0x9148 + static_cast<std::uint64_t>(p));
  OnlineMigrator mig(array, p);
  mig.set_workers(1);  // the checkpoint count below assumes one worker
  // start() journals once, group 0 once per diagonal row plus the
  // watermark advance, group 1 once per row: stopping after p + 3
  // checkpoints leaves group 1 with exactly two diagonal rows.
  StopAfterSink sink(static_cast<std::size_t>(p) + 3);
  if (state == MigState::kMidGroup) {
    mig.attach_journal(sink);
    sink.arm([&mig] { mig.request_stop(); });
  }
  if (state != MigState::kPreStart) {
    mig.start();
    mig.finish();
  }
  if (state == MigState::kMidGroup) {
    EXPECT_EQ(mig.state(), MigrationState::kStopped);
    EXPECT_EQ(mig.groups_done(), 1);
  }
  if (state == MigState::kDone) {
    EXPECT_EQ(mig.state(), MigrationState::kDone);
  }

  // Target: the first group-1 block on an already generated diagonal
  // row of the mid-group state, so that state exercises the diagonal
  // delta rather than repeating the pre-start shape.
  std::int64_t target = static_cast<std::int64_t>(p - 1) * (m - 1);
  Addr at = logical_addr(target, m);
  while (diag_row_of(static_cast<int>(at.block % (p - 1)), at.disk, p) >= 2) {
    at = logical_addr(++target, m);
  }
  const int hpar = p - 2 - static_cast<int>(at.block % (p - 1));
  std::vector<std::uint8_t> expect(array.raw_block(at.disk, at.block).begin(),
                                   array.raw_block(at.disk, at.block).end());
  switch (cond) {
    case Condition::kHealthy: break;
    case Condition::kDataFailed: array.fail_disk(at.disk); break;
    case Condition::kHparFailed: array.fail_disk(hpar); break;
    case Condition::kNewDiskFailed: array.fail_disk(m); break;
  }

  Buffer in(kPinBlock);
  Rng(0x9149).fill(in.data(), in.size());
  const OnlineStats s0 = mig.stats();
  const std::uint64_t r0 = array.total_reads(), w0 = array.total_writes();
  const std::uint64_t rb0 = array.total_read_bytes();
  const std::uint64_t wb0 = array.total_write_bytes();
  IoResult res;
  switch (call) {
    case Call::kWriteBlock:
      res = mig.write_block(target, in.span());
      std::ranges::copy(in.span(), expect.begin());
      break;
    case Call::kFullRange:
      res = mig.write_range(target, 0, in.span());
      std::ranges::copy(in.span(), expect.begin());
      break;
    case Call::kSubRange:
      res = mig.write_range(target, 256, in.span().subspan(0, 512));
      std::ranges::copy(in.span().subspan(0, 512), expect.begin() + 256);
      break;
  }
  const OnlineStats s1 = mig.stats();
  const MigIo io{s1.app_reads - s0.app_reads,
                 s1.app_writes - s0.app_writes,
                 s1.degraded_writes - s0.degraded_writes,
                 array.total_reads() - r0,
                 array.total_writes() - w0,
                 array.total_read_bytes() - rb0,
                 array.total_write_bytes() - wb0};
  EXPECT_TRUE(res.ok());
  std::vector<std::uint8_t> got(kPinBlock);
  EXPECT_TRUE(mig.read_block(target, got).ok());
  EXPECT_EQ(got, expect);
  if (state == MigState::kDone && cond == Condition::kHealthy) {
    EXPECT_TRUE(mig.verify_raid6());
  }
  return io;
}

TEST(MigratorWriteIoPins, EveryCallStateAndCondition) {
  std::size_t checked = 0;
  for (int p : {5, 7}) {
    for (MigState state : {kPreStart, kMidGroup, kDone}) {
      for (Condition cond :
           {kHealthy, kDataFailed, kHparFailed, kNewDiskFailed}) {
        if (state == kPreStart && cond == kNewDiskFailed) continue;
        for (Call call : {kWriteBlock, kFullRange, kSubRange}) {
          const MigIo got = measure_mig_write(p, state, cond, call);
          const auto it = std::find_if(
              std::begin(kMigPins), std::end(kMigPins), [&](const MigPin& x) {
                return x.p == p && x.state == state && x.cond == cond &&
                       x.call == call;
              });
          const std::string where = "p=" + std::to_string(p) + " " +
                                    name(state) + " " + name(cond) + " " +
                                    name(call);
          if (it == std::end(kMigPins)) {
            ADD_FAILURE() << "no pin for " << where;
            std::printf("    {%d, %s, %s, %s, {%llu, %llu, %llu, %llu, %llu, "
                        "%llu, %llu}},\n",
                        p, name(state), name(cond), name(call),
                        static_cast<unsigned long long>(got.app_reads),
                        static_cast<unsigned long long>(got.app_writes),
                        static_cast<unsigned long long>(got.degraded_writes),
                        static_cast<unsigned long long>(got.reads),
                        static_cast<unsigned long long>(got.writes),
                        static_cast<unsigned long long>(got.read_bytes),
                        static_cast<unsigned long long>(got.write_bytes));
            continue;
          }
          ++checked;
          EXPECT_EQ(got.app_reads, it->io.app_reads) << where;
          EXPECT_EQ(got.app_writes, it->io.app_writes) << where;
          EXPECT_EQ(got.degraded_writes, it->io.degraded_writes) << where;
          EXPECT_EQ(got.reads, it->io.reads) << where;
          EXPECT_EQ(got.writes, it->io.writes) << where;
          EXPECT_EQ(got.read_bytes, it->io.read_bytes) << where;
          EXPECT_EQ(got.write_bytes, it->io.write_bytes) << where;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kMigPins));
}

// ---------------------------------------------------------------------
// Application-path argument and fault handling.

/// Every raw byte of every disk, for before/after comparison.
std::vector<std::uint8_t> raw_image(const DiskArray& a) {
  std::vector<std::uint8_t> img;
  for (int d = 0; d < a.disks(); ++d) {
    const auto col = a.raw_blocks(d, 0, a.blocks_per_disk());
    img.insert(img.end(), col.begin(), col.end());
  }
  return img;
}

/// A write buffer that is not one block is rejected before any I/O: a
/// short one must not be read past, and no parity may be rewritten for
/// a data write that cannot happen.
TEST(MigratorWriteFaults, WrongSizeWriteBufferThrowsBeforeAnyIo) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 0x5B0);
  OnlineMigrator mig(array, p);
  mig.start();
  mig.finish();
  const std::vector<std::uint8_t> before = raw_image(array);
  const std::uint64_t r0 = array.total_reads(), w0 = array.total_writes();
  std::vector<std::uint8_t> big(2 * kBlock, 0xA5);
  const std::span<const std::uint8_t> all(big);
  EXPECT_THROW(mig.write_block(1, all.subspan(0, kBlock - 1)),
               std::invalid_argument);
  EXPECT_THROW(mig.write_block(1, all.subspan(0, kBlock + 1)),
               std::invalid_argument);
  EXPECT_THROW(mig.write_block(1, all.subspan(0, 0)), std::invalid_argument);
  EXPECT_EQ(array.total_reads(), r0);
  EXPECT_EQ(array.total_writes(), w0);
  EXPECT_TRUE(raw_image(array) == before);
  EXPECT_TRUE(mig.verify_raid6());
}

/// A read buffer that is not one block is rejected too, even when the
/// block would be reconstructed (which writes a whole block's bytes).
TEST(MigratorWriteFaults, WrongSizeReadBufferThrowsOnFailedDisk) {
  const int p = 5, m = 4;
  DiskArray array(m, 2LL * (p - 1), kBlock);
  fill_raid5(array, m, 0x5B1);
  OnlineMigrator mig(array, p);
  array.fail_disk(logical_addr(0, m).disk);
  const std::uint64_t r0 = array.total_reads();
  // Exactly sized heap allocations, so an overrun is an ASan finding.
  std::vector<std::uint8_t> small(kBlock - 1), large(kBlock + 1);
  EXPECT_THROW(mig.read_block(0, small), std::invalid_argument);
  EXPECT_THROW(mig.read_block(0, large), std::invalid_argument);
  EXPECT_EQ(array.total_reads(), r0);
  std::vector<std::uint8_t> got(kBlock);
  EXPECT_TRUE(mig.read_block(0, got).ok());
  EXPECT_EQ(mig.stats().reconstructed_reads, 1u);
}

/// A hard bad sector under a sub-block write's data range, or under its
/// horizontal-parity range, costs one retry ladder and then a single
/// row-XOR reconstruction; the bytes written match a fault-free run.
TEST(MigratorWriteFaults, SubBlockBadSectorRunsOneRetryLadder) {
  const int p = 5, m = 4;
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_us = 5;
  const std::uint64_t ladder_us = 5 + 10 + 20;
  const Addr at = logical_addr(0, m);
  const int hpar = p - 2;  // stripe row 0
  for (const int bad_disk : {at.disk, hpar}) {
    SCOPED_TRACE("bad sector on disk " + std::to_string(bad_disk));
    DiskArray array(m, p - 1, kPinBlock), ref(m, p - 1, kPinBlock);
    fill_raid5(array, m, 0x1AD);
    fill_raid5(ref, m, 0x1AD);
    OnlineMigrator mig(array, p), ref_mig(ref, p);
    mig.set_retry_policy(retry);
    FaultPlan plan;
    plan.bad_blocks.push_back({.disk = bad_disk, .block = at.block});
    array.set_fault_plan(plan);
    Buffer in(512);
    Rng(0x1AE).fill(in.data(), in.size());
    ASSERT_TRUE(mig.write_range(0, 100, in.span()).ok());
    ASSERT_TRUE(ref_mig.write_range(0, 100, in.span()).ok());
    const OnlineStats s = mig.stats();
    // One ladder on the bad range, m-1 reconstruction reads, and the
    // healthy pre-read of the other range.
    EXPECT_EQ(s.app_reads, static_cast<std::uint64_t>(retry.max_attempts) +
                               static_cast<std::uint64_t>(m - 1) + 1);
    EXPECT_EQ(s.retries, static_cast<std::uint64_t>(retry.max_attempts - 1));
    EXPECT_EQ(s.backoff_us, ladder_us);
    EXPECT_EQ(s.reconstructed_reads, 1u);
    EXPECT_EQ(s.app_writes, 2u);
    EXPECT_EQ(s.degraded_writes, 0u);
    EXPECT_TRUE(raw_image(array) == raw_image(ref));
  }
}

// ---------------------------------------------------------------------
// Rebuild I/O: rebuild_failed_disks plans per trust state and runs
// batches of groups through one routine.

enum class Lost : std::uint8_t {
  kSource,
  kNewDisk,
  kTwoSources,
  kSourceAndNew,
};

const char* name(Lost l) {
  switch (l) {
    case Lost::kSource: return "kSource";
    case Lost::kNewDisk: return "kNewDisk";
    case Lost::kTwoSources: return "kTwoSources";
    case Lost::kSourceAndNew: return "kSourceAndNew";
  }
  return "?";
}

struct RebuildIo {
  std::int64_t rebuilt;
  std::uint64_t reads, read_runs, writes, write_runs;
};

struct RebuildPin {
  int p;
  MigState state;
  Lost lost;
  RebuildIo io;
  RebuildIo parent;  // the same harness at the three hand-written cases
};

constexpr Lost kSource = Lost::kSource;
constexpr Lost kNewDisk = Lost::kNewDisk;
constexpr Lost kTwoSources = Lost::kTwoSources;
constexpr Lost kSourceAndNew = Lost::kSourceAndNew;

// {blocks rebuilt, reads, read runs, writes, write runs} over 32 groups,
// now and at the parent. A single source disk is rebuilt by row XOR in
// every state, exactly as before. The parent regenerated the diagonal
// column one block at a time, and read a double failure's survivors
// through an uncounted backdoor (its 0 reads).
constexpr RebuildPin kRebuildPins[] = {
    {5, kPreStart, kSource, {128, 384, 6, 128, 2}, {128, 384, 6, 128, 2}},
    {5, kMidGroup, kSource, {128, 384, 6, 128, 2}, {128, 384, 6, 128, 2}},
    {5, kMidGroup, kNewDisk, {6, 18, 10, 6, 2}, {4, 12, 12, 4, 4}},
    {5, kDone, kSource, {128, 384, 6, 128, 2}, {128, 384, 6, 128, 2}},
    {5, kDone, kNewDisk, {128, 384, 132, 128, 2}, {128, 384, 384, 128, 128}},
    {5, kDone, kTwoSources, {256, 384, 6, 256, 4}, {256, 0, 0, 256, 256}},
    {5, kDone, kSourceAndNew, {256, 384, 6, 256, 4}, {256, 0, 0, 256, 256}},
    {7, kPreStart, kSource, {192, 960, 15, 192, 3}, {192, 960, 15, 192, 3}},
    {7, kMidGroup, kSource, {192, 960, 15, 192, 3}, {192, 960, 15, 192, 3}},
    {7, kMidGroup, kNewDisk, {8, 40, 16, 8, 2}, {6, 30, 30, 6, 6}},
    {7, kDone, kSource, {192, 960, 15, 192, 3}, {192, 960, 15, 192, 3}},
    {7, kDone, kNewDisk, {192, 960, 204, 192, 3}, {192, 960, 960, 192, 192}},
    {7, kDone, kTwoSources, {384, 960, 15, 384, 6}, {384, 0, 0, 384, 384}},
    {7, kDone, kSourceAndNew, {384, 960, 15, 384, 6}, {384, 0, 0, 384, 384}},
};

/// Device time of a rebuild on the default sim::DiskParams with 4 KiB
/// blocks: every run pays a seek plus half a rotation, every block its
/// transfer.
double device_ms(const RebuildIo& io) {
  const sim::DiskParams d;
  const auto runs = static_cast<double>(io.read_runs + io.write_runs);
  const auto blocks = static_cast<double>(io.reads + io.writes);
  return runs * (d.avg_seek_ms + d.avg_rotational_ms()) +
         blocks * 4096.0 / (d.transfer_mb_s * 1e3);
}

/// Fails `lost` on a 32-group array in `state`, overwrites the failed
/// disks' trusted cells with junk, rebuilds, and returns what it cost.
/// The rebuild must restore every trusted cell byte for byte.
RebuildIo measure_mig_rebuild(int p, MigState state, Lost lost) {
  const int m = p - 1;
  const std::int64_t groups = 32;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0x4EB + static_cast<std::uint64_t>(p));
  OnlineMigrator mig(array, p);
  mig.set_workers(1);  // the checkpoint count below assumes one worker
  // As in measure_mig_write: group 0 done, group 1 holds two diagonals.
  StopAfterSink sink(static_cast<std::size_t>(p) + 3);
  if (state == MigState::kMidGroup) {
    mig.attach_journal(sink);
    sink.arm([&mig] { mig.request_stop(); });
  }
  if (state != MigState::kPreStart) {
    mig.start();
    mig.finish();
  }
  const auto diag_rows = [&](std::int64_t g) -> int {
    switch (state) {
      case MigState::kPreStart: return 0;
      case MigState::kMidGroup: return g == 0 ? p - 1 : g == 1 ? 2 : 0;
      case MigState::kDone: return p - 1;
    }
    return 0;
  };
  std::vector<int> failed{0};
  if (lost == kNewDisk) failed = {m};
  if (lost == kTwoSources) failed = {0, 1};
  if (lost == kSourceAndNew) failed = {0, m};
  const std::vector<std::uint8_t> before = raw_image(array);
  Rng junk(0x4EC);
  for (int d : failed) {
    array.fail_disk(d);
    for (std::int64_t b = 0; b < array.blocks_per_disk(); ++b) {
      if (d < m || b % (p - 1) < diag_rows(b / (p - 1))) {
        junk.fill(array.raw_block(d, b).data(), kBlock);
      }
    }
  }
  const std::uint64_t r0 = array.total_reads(), rr0 = array.total_read_runs();
  const std::uint64_t w0 = array.total_writes(), wr0 = array.total_write_runs();
  const std::int64_t rebuilt = mig.rebuild_failed_disks();
  EXPECT_EQ(array.failed_disks(), 0);
  EXPECT_TRUE(raw_image(array) == before);
  if (state == MigState::kDone) {
    EXPECT_TRUE(mig.verify_raid6());
  }
  return {rebuilt, array.total_reads() - r0, array.total_read_runs() - rr0,
          array.total_writes() - w0, array.total_write_runs() - wr0};
}

TEST(MigratorRebuildIoPins, EveryStateAndFailureSet) {
  std::size_t checked = 0;
  for (int p : {5, 7}) {
    for (MigState state : {kPreStart, kMidGroup, kDone}) {
      for (Lost lost : {kSource, kNewDisk, kTwoSources, kSourceAndNew}) {
        if (state == kPreStart && lost != kSource) continue;
        if (state != kDone && (lost == kTwoSources || lost == kSourceAndNew)) {
          continue;
        }
        const RebuildIo got = measure_mig_rebuild(p, state, lost);
        const std::string where = "p=" + std::to_string(p) + " " +
                                  name(state) + " " + name(lost);
        const auto it = std::find_if(
            std::begin(kRebuildPins), std::end(kRebuildPins),
            [&](const RebuildPin& x) {
              return x.p == p && x.state == state && x.lost == lost;
            });
        if (it == std::end(kRebuildPins)) {
          ADD_FAILURE() << "no pin for " << where;
          std::printf("    {%d, %s, %s, {%lld, %llu, %llu, %llu, %llu}},\n",
                      p, name(state), name(lost),
                      static_cast<long long>(got.rebuilt),
                      static_cast<unsigned long long>(got.reads),
                      static_cast<unsigned long long>(got.read_runs),
                      static_cast<unsigned long long>(got.writes),
                      static_cast<unsigned long long>(got.write_runs));
          continue;
        }
        ++checked;
        EXPECT_EQ(got.rebuilt, it->io.rebuilt) << where;
        EXPECT_EQ(got.reads, it->io.reads) << where;
        EXPECT_EQ(got.read_runs, it->io.read_runs) << where;
        EXPECT_EQ(got.writes, it->io.writes) << where;
        EXPECT_EQ(got.write_runs, it->io.write_runs) << where;
        EXPECT_LE(device_ms(got), device_ms(it->parent)) << where;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kRebuildPins));
}

/// A double failure after conversion is rebuilt through counted I/O:
/// injected sector errors surface and are retried, and the reads show
/// up in the DiskArray counters.
TEST(MigratorRebuildIoPins, DoubleFailureReadsAreCountedAndRetried) {
  const int p = 5, m = 4;
  const std::int64_t groups = 8;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0x2F1);
  OnlineMigrator mig(array, p);
  mig.set_retry_policy(fast_retry());
  mig.start();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kDone);
  const auto snap = snapshot_logical(array, m, mig.logical_blocks());
  array.fail_disk(0);
  array.fail_disk(2);
  FaultPlan plan;
  plan.sector_error_rate = 0.05;
  plan.seed = 0x2F2;
  array.set_fault_plan(plan);
  const std::uint64_t r0 = array.total_reads();
  const std::uint64_t retries0 = mig.stats().retries;
  EXPECT_EQ(mig.rebuild_failed_disks(), 2 * groups * (p - 1));
  // The three surviving columns read once each (96 blocks), plus the
  // block-by-block rereads and retries of runs that hit an injected
  // sector error.
  EXPECT_EQ(array.total_reads() - r0, 129u);
  EXPECT_GT(mig.stats().retries, retries0);
  array.set_fault_plan(FaultPlan{});
  EXPECT_TRUE(mig.verify_raid6());
  std::vector<std::uint8_t> got(kBlock);
  for (std::int64_t l = 0; l < mig.logical_blocks(); ++l) {
    ASSERT_TRUE(mig.read_block(l, got).ok()) << "logical " << l;
    EXPECT_EQ(got, snap[static_cast<std::size_t>(l)]) << "logical " << l;
  }
}

/// An application write after conversion whose diagonal delta tears on
/// every attempt, on a healthy new disk, regenerates that diagonal: a
/// later double failure, which decodes through it, still rebuilds every
/// block.
TEST(MigratorRebuildIoPins, TornDiagonalUpdateIsRegenerated) {
  const int p = 5, m = 4;
  DiskArray array(m, 8 * (p - 1), kBlock);
  fill_raid5(array, m, 0x2F3);
  OnlineMigrator mig(array, p);
  RetryPolicy retry = fast_retry();
  retry.max_attempts = 2;
  mig.set_retry_policy(retry);
  mig.start();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kDone);
  auto want = snapshot_logical(array, m, mig.logical_blocks());
  const std::int64_t l = 5;
  auto& written = want[static_cast<std::size_t>(l)];
  written.assign(kBlock, 0xA5);
  FaultPlan plan;
  plan.torn_write_rate = 0.5;
  plan.seed = 31;  // the source writes land, the diagonal tears twice
  array.set_fault_plan(plan);
  const std::uint64_t w0 = array.total_writes(), new0 = array.writes(m);
  const std::uint64_t torn0 = array.torn_writes();
  const std::uint64_t degraded0 = mig.stats().degraded_writes;
  ASSERT_TRUE(mig.write_block(l, written).ok());
  array.set_fault_plan(FaultPlan{});
  ASSERT_EQ(array.torn_writes() - torn0, 2u);
  ASSERT_EQ((array.total_writes() - w0) - (array.writes(m) - new0), 2u);
  EXPECT_EQ(mig.stats().degraded_writes, degraded0);
  EXPECT_TRUE(mig.verify_raid6());

  const Addr a = logical_addr(l, m);
  array.fail_disk(a.disk);
  array.fail_disk((a.disk + 1) % m);
  EXPECT_EQ(mig.rebuild_failed_disks(), 2 * 8 * (p - 1));
  EXPECT_TRUE(mig.verify_raid6());
  std::vector<std::uint8_t> got(kBlock);
  for (std::int64_t b = 0; b < mig.logical_blocks(); ++b) {
    ASSERT_TRUE(mig.read_block(b, got).ok()) << "logical " << b;
    EXPECT_EQ(got, want[static_cast<std::size_t>(b)]) << "logical " << b;
  }
}

// ---------------------------------------------------------------------
// Degraded conversion I/O: a source column failed before start() is
// erased in every group's diagonal plan, so a group reads each of its
// p-2 surviving source columns as one whole-column run and writes its
// diagonal column as one run. The p-2 data cells of the dead column
// that the diagonal chains hold count as reconstructed reads.

struct GroupIo {
  std::uint64_t reads, read_runs, writes, write_runs, reconstructed;
  bool operator==(const GroupIo&) const = default;
};

struct DegradedPin {
  int p;
  int failed;  // source column failed before start()
  GroupIo group;
  GroupIo parent;  // the row-by-row fallback: one run per block
};

// {reads, read runs, writes, write runs, reconstructed reads} per group.
constexpr DegradedPin kDegradedPins[] = {
    {5, 0, {12, 3, 4, 1, 3}, {18, 18, 4, 4, 3}},
    {5, 1, {12, 3, 4, 1, 3}, {18, 18, 4, 4, 3}},
    {5, 2, {12, 3, 4, 1, 3}, {18, 18, 4, 4, 3}},
    {5, 3, {12, 3, 4, 1, 3}, {18, 18, 4, 4, 3}},
    {7, 0, {30, 5, 6, 1, 5}, {50, 50, 6, 6, 5}},
    {7, 1, {30, 5, 6, 1, 5}, {50, 50, 6, 6, 5}},
    {7, 2, {30, 5, 6, 1, 5}, {50, 50, 6, 6, 5}},
    {7, 3, {30, 5, 6, 1, 5}, {50, 50, 6, 6, 5}},
    {7, 4, {30, 5, 6, 1, 5}, {50, 50, 6, 6, 5}},
    {7, 5, {30, 5, 6, 1, 5}, {50, 50, 6, 6, 5}},
    {11, 0, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 1, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 2, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 3, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 4, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 5, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 6, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 7, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 8, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
    {11, 9, {90, 9, 10, 1, 9}, {162, 162, 10, 10, 9}},
};

TEST(DegradedConversionIoPins, EverySourceColumnFailedBeforeStart) {
  constexpr std::int64_t kGroups = 3;
  std::size_t checked = 0;
  for (int p : {5, 7, 11}) {
    const int m = p - 1;
    const auto q = static_cast<std::uint64_t>(p);
    for (int failed = 0; failed < m; ++failed) {
      const std::string where =
          "p=" + std::to_string(p) + " failed=" + std::to_string(failed);
      DiskArray array(m, kGroups * (p - 1), kBlock);
      fill_raid5(array, m, 0xDE6 + static_cast<std::uint64_t>(p));
      OnlineMigrator mig(array, p);
      array.fail_disk(failed);
      mig.start();
      mig.finish();
      ASSERT_EQ(mig.state(), MigrationState::kDone) << where;
      EXPECT_TRUE(mig.verify_raid6()) << where;
      const OnlineStats s = mig.stats();
      const auto per_group = [&](std::uint64_t n) {
        EXPECT_EQ(n % kGroups, 0u) << where;
        return n / kGroups;
      };
      const GroupIo got{per_group(array.total_reads()),
                        per_group(array.total_read_runs()),
                        per_group(array.total_writes()),
                        per_group(array.total_write_runs()),
                        per_group(s.reconstructed_reads)};
      EXPECT_EQ(s.conv_reads, got.reads * kGroups) << where;
      EXPECT_EQ(s.conv_writes, got.writes * kGroups) << where;
      const auto it = std::find_if(
          std::begin(kDegradedPins), std::end(kDegradedPins),
          [&](const DegradedPin& x) { return x.p == p && x.failed == failed; });
      if (it == std::end(kDegradedPins)) {
        ADD_FAILURE() << "no pin for " << where;
        std::printf("    {%d, %d, {%llu, %llu, %llu, %llu, %llu}},\n", p,
                    failed, static_cast<unsigned long long>(got.reads),
                    static_cast<unsigned long long>(got.read_runs),
                    static_cast<unsigned long long>(got.writes),
                    static_cast<unsigned long long>(got.write_runs),
                    static_cast<unsigned long long>(got.reconstructed));
        continue;
      }
      ++checked;
      EXPECT_EQ(got, it->group) << where;
      // The closed forms, and the parent's (p-2)^2 extra row-XOR reads.
      EXPECT_EQ(it->group, (GroupIo{(q - 1) * (q - 2), q - 2, q - 1, 1, q - 2}))
          << where;
      EXPECT_EQ(it->parent, (GroupIo{2 * (q - 2) * (q - 2),
                                     2 * (q - 2) * (q - 2), q - 1, q - 1,
                                     q - 2}))
          << where;
    }
  }
  EXPECT_EQ(checked, std::size(kDegradedPins));
}

}  // namespace
}  // namespace c56::mig
