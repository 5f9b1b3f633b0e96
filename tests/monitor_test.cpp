// MigrationMonitor tests: the stall detector driven deterministically
// through the poll_at() clock seam over a fault plan that freezes the
// watermark (a planted bad block whose retry ladder sleeps the single
// worker for ~2 s of real time), the no-false-positive contract on a
// clean multi-worker conversion, rate/ETA gauge semantics, phase
// timelines, and the post-mortem flight recorder end to end: abort ->
// auto-written bundle -> summarize_postmortem() reporting the abort
// reason, watermark, phases, and disk fault counters.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layout/raid.hpp"
#include "migration/fault.hpp"
#include "migration/journal.hpp"
#include "migration/monitor.hpp"
#include "migration/online.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "scrub/scrubber.hpp"
#include "util/rng.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;

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

std::int64_t gauge_of(const obs::Snapshot& s, const std::string& name) {
  const obs::Metric* m = s.find(name);
  return m ? m->gauge : -999;
}

std::uint64_t counter_of(const obs::Snapshot& s, const std::string& name) {
  const obs::Metric* m = s.find(name);
  return m ? m->counter : 0;
}

/// Arm metrics + events for one test body and restore the defaults.
/// The monitor's stall_timeout_ms is configured per test, so make sure
/// no ambient C56_STALL_MS override leaks in (the MonitorConfig ctor
/// path reads it).
class ObservedScope {
 public:
  ObservedScope() {
    ::unsetenv("C56_STALL_MS");
    obs::set_metrics_enabled(true);
    obs::set_events_enabled(true);
  }
  ~ObservedScope() {
    obs::set_metrics_enabled(false);
    obs::set_events_enabled(false);
  }
};

bool has_warn_containing(const obs::EventLog& log, const std::string& text) {
  for (const obs::Event& ev : log.snapshot()) {
    if (ev.level == obs::EventLevel::kWarn &&
        ev.message.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(MigrationMonitor, StallFiresWhenTheWatermarkFreezes) {
  ObservedScope on;
  // Registry and log first: both must outlive everything attached to
  // them (collector handles detach on destruction).
  obs::Registry reg;
  obs::EventLog log;
  log.set_stderr_echo(false);
  const int p = 5, m = p - 1;
  const std::int64_t groups = 8;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56'57A1);

  OnlineMigrator mig(array, p);
  MemoryCheckpointSink sink;
  mig.attach_journal(sink);
  mig.set_workers(1);
  // A planted bad block reads kSectorError until rewritten, so every
  // retry fails and the single worker sleeps the full backoff ladder:
  // 500us * (2^12 - 1) ~= 2 s of real time with the watermark pinned at
  // row 0, before read_repaired reconstructs and conversion resumes.
  // The poll_at() calls below take microseconds, so they all land
  // inside the freeze; their timestamps are synthetic and only ordered
  // against each other.
  FaultPlan plan;
  plan.bad_blocks.push_back({.disk = 0, .block = 0});
  array.set_fault_plan(plan);
  RetryPolicy retry;
  retry.max_attempts = 13;
  retry.backoff_us = 500;
  mig.set_retry_policy(retry);

  mig.attach_events(log, "stall-test");
  MonitorConfig cfg;
  cfg.migration_id = "stall-test";
  cfg.stall_min_polls = 3;
  cfg.stall_timeout_ms = 50;
  MigrationMonitor monitor(mig, reg, log, cfg);

  mig.start();
  const std::uint64_t t0 = 1'000'000;
  monitor.poll_at(t0);  // baseline only
  // Three frozen polls, but only 3 ms of (synthetic) elapsed time:
  // the poll-count threshold alone must not fire the detector.
  monitor.poll_at(t0 + 1'000);
  monitor.poll_at(t0 + 2'000);
  monitor.poll_at(t0 + 3'000);
  EXPECT_FALSE(monitor.stalled());
  // Fourth frozen poll 60 ms after baseline: both thresholds hold.
  monitor.poll_at(t0 + 60'000);
  EXPECT_TRUE(monitor.stalled());
  EXPECT_NE(monitor.status_line().find("STALLED"), std::string::npos)
      << monitor.status_line();

  obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(gauge_of(snap, "migration_stalled"), 1);
  EXPECT_EQ(counter_of(snap, "migration_stall_events"), 1u);
  EXPECT_TRUE(has_warn_containing(log, "conversion stalled"));

  // Wait out the retry ladder; the conversion reconstructs the bad
  // block from the surviving disks and completes.
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  monitor.poll_at(t0 + 3'000'000);
  EXPECT_FALSE(monitor.stalled());
  snap = reg.snapshot();
  EXPECT_EQ(gauge_of(snap, "migration_stalled"), 0);
  EXPECT_EQ(gauge_of(snap, "migration_rows_done"), groups * (p - 1));
  EXPECT_EQ(gauge_of(snap, "migration_eta_ms"), 0);
  EXPECT_EQ(gauge_of(snap, "migration_state"),
            static_cast<std::int64_t>(MigrationState::kDone));
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(MigrationMonitor, CleanFourWorkerConversionNeverStalls) {
  ObservedScope on;
  obs::Registry reg;
  obs::EventLog log;
  log.set_stderr_echo(false);
  const int p = 5, m = p - 1;
  const std::int64_t groups = 32;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56'C1EA);

  OnlineMigrator mig(array, p);
  MemoryCheckpointSink sink;
  mig.attach_journal(sink);
  mig.set_workers(4);
  mig.attach_events(log, "clean");
  MonitorConfig cfg;
  cfg.migration_id = "clean";
  MigrationMonitor monitor(mig, reg, log, cfg);

  mig.start();
  while (mig.converting()) {
    monitor.poll();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  mig.finish();
  monitor.poll();

  EXPECT_FALSE(monitor.stalled());
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(counter_of(snap, "migration_stall_events"), 0u);
  EXPECT_EQ(gauge_of(snap, "migration_stalled"), 0);
  EXPECT_EQ(gauge_of(snap, "migration_rows_done"), groups * (p - 1));
  EXPECT_EQ(gauge_of(snap, "migration_rows_total"), groups * (p - 1));
  EXPECT_EQ(gauge_of(snap, "migration_state"),
            static_cast<std::int64_t>(MigrationState::kDone));
  EXPECT_FALSE(has_warn_containing(log, "stalled"));
  EXPECT_TRUE(mig.verify_raid6());
}

TEST(MigrationMonitor, RateAndEtaFollowTheExplicitClock) {
  ObservedScope on;
  obs::Registry reg;
  obs::EventLog log;
  log.set_stderr_echo(false);
  const int p = 5, m = p - 1;
  const std::int64_t groups = 8;
  const std::int64_t rows = groups * (p - 1);
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56'0E7A);

  OnlineMigrator mig(array, p);
  MemoryCheckpointSink sink;
  mig.attach_journal(sink);

  MonitorConfig cfg;
  cfg.migration_id = "rate";
  MigrationMonitor monitor(mig, reg, log, cfg);

  monitor.poll_at(1'000'000);  // baseline at rows == 0
  EXPECT_EQ(monitor.eta_seconds(), -1.0);  // no rate observation yet
  EXPECT_EQ(gauge_of(reg.snapshot(), "migration_eta_ms"), -1);

  mig.start();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kDone);
  // All `rows` rows landed in exactly one (synthetic) second, and the
  // first observation seeds the EWMA directly.
  monitor.poll_at(2'000'000);
  EXPECT_EQ(monitor.rows_done(), rows);
  EXPECT_EQ(monitor.rows_total(), rows);
  EXPECT_NEAR(monitor.rate_rows_per_sec(), static_cast<double>(rows), 1e-9);
  EXPECT_EQ(monitor.eta_seconds(), 0.0);  // complete
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(gauge_of(snap, "migration_rate_rows_per_sec_x1000"), rows * 1000);
  EXPECT_EQ(gauge_of(snap, "migration_eta_ms"), 0);
}

TEST(MigrationMonitor, PhaseTimelineBracketsNamedStages) {
  ObservedScope on;
  obs::Registry reg;
  obs::EventLog log;
  log.set_stderr_echo(false);
  const int p = 5, m = p - 1;
  DiskArray array(m, 2 * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56'9A5E);
  OnlineMigrator mig(array, p);

  MigrationMonitor monitor(mig, reg, log);

  monitor.begin_phase("plan");
  monitor.end_phase();
  monitor.begin_phase("verify");  // left open
  const std::vector<PhaseRecord> phases = monitor.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "plan");
  EXPECT_NE(phases[0].end_us, 0u);
  EXPECT_GE(phases[0].end_us, phases[0].start_us);
  EXPECT_EQ(phases[1].name, "verify");
  EXPECT_EQ(phases[1].end_us, 0u);  // still open
  EXPECT_NE(monitor.status_line().find("phase=verify"), std::string::npos)
      << monitor.status_line();
  // begin_phase closes any still-open phase.
  monitor.begin_phase("rebuild");
  ASSERT_EQ(monitor.phases().size(), 3u);
  EXPECT_NE(monitor.phases()[1].end_us, 0u);
}

// The flight-recorder acceptance path: a double source-disk failure
// (beyond the RAID-5 source's tolerance of one) aborts the conversion,
// the next poll auto-writes the configured bundle exactly once, and
// summarize_postmortem() reports the abort reason, last watermark,
// phase timeline, and the disk fault counters from the embedded
// registry snapshot.
TEST(MigrationMonitor, PostmortemBundleWrittenOnAbortAndSummarized) {
  ObservedScope on;
  obs::Registry reg;
  obs::EventLog log;
  log.set_stderr_echo(false);
  const int p = 5, m = p - 1;
  const std::int64_t groups = 8;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56'DEAD);

  OnlineMigrator mig(array, p);
  MemoryCheckpointSink sink;
  mig.attach_journal(sink);
  mig.set_workers(2);
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_us = 1;
  mig.set_retry_policy(retry);

  // disk_array_* metrics must be in the registry for the bundle's
  // "disk faults" summary line.
  array.attach_metrics(reg);
  mig.attach_metrics(reg);
  mig.attach_events(log, "pm-test");

  // A detect-only scrub pass over a planted corruption before the
  // migration starts, so the bundle's registry snapshot carries
  // nonzero scrub_* counters for the summary's scrub block.
  scrub::Scrubber scrubber(array, mig);
  scrubber.set_repair(false);
  scrubber.attach_metrics(reg);
  array.corrupt_block(0, 0, 3, 0x40);
  const auto srep = scrubber.run_pass();
  ASSERT_EQ(srep.dirty, 1);
  array.corrupt_block(0, 0, 3, 0x40);  // XOR backdoor: undo the flip

  FaultPlan plan;
  plan.disk_failures.push_back({.disk = 1, .after_ios = 10});
  plan.disk_failures.push_back({.disk = 2, .after_ios = 20});
  array.set_fault_plan(plan);

  const std::string path = ::testing::TempDir() + "c56_pm_bundle.json";
  std::remove(path.c_str());
  MonitorConfig cfg;
  cfg.migration_id = "pm-test";
  cfg.postmortem_path = path;
  MigrationMonitor monitor(mig, reg, log, cfg);

  monitor.begin_phase("plan");
  monitor.end_phase();
  mig.start();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kAborted);
  ASSERT_FALSE(mig.abort_reason().empty());
  monitor.poll();  // observes kAborted -> dumps the bundle

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "bundle was not written to " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bundle = buf.str();

  const std::string summary = summarize_postmortem(bundle);
  EXPECT_EQ(summary.rfind("post-mortem: migration 'pm-test'", 0), 0u)
      << summary;
  EXPECT_NE(summary.find("state aborted"), std::string::npos) << summary;
  EXPECT_NE(summary.find("abort reason:"), std::string::npos) << summary;
  EXPECT_NE(summary.find(mig.abort_reason()), std::string::npos) << summary;
  EXPECT_NE(summary.find("watermark: " + std::to_string(mig.groups_done()) +
                         "/" + std::to_string(groups) + " groups"),
            std::string::npos)
      << summary;
  // The explicit "plan" phase is in the timeline. (The automatic
  // "convert" phase only opens if a poll observes kConverting, which
  // this abort-too-fast run races past — not asserted.)
  EXPECT_NE(summary.find("plan"), std::string::npos) << summary;
  EXPECT_NE(summary.find("disk_failures=2"), std::string::npos) << summary;
  EXPECT_NE(summary.find("failed_disks=2"), std::string::npos) << summary;
  EXPECT_NE(summary.find("silent_corruptions=2"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("scrub: scanned=" + std::to_string(groups)),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("dirty=1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("[error]"), std::string::npos) << summary;

  // The dump is once-per-monitor: removing the file and polling again
  // must not re-create it.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  monitor.poll();
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(MigrationMonitor, SummarizeRejectsNonBundleInput) {
  EXPECT_EQ(summarize_postmortem("{}").rfind("error:", 0), 0u);
  EXPECT_EQ(summarize_postmortem("not json at all").rfind("error:", 0), 0u);
}

}  // namespace
}  // namespace c56::mig
