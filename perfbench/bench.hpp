#pragma once
// Shared plumbing of the repository benchmark (perfbench): command-line
// options, the metric report, exact latency samples, the completion
// hand-off from shard threads to the client thread, and the per-layer
// helpers both workload families use. See README.md for the design.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/request.hpp"
#include "service/volume_manager.hpp"

namespace perfbench {

using namespace c56;

constexpr int kP = 7;                 // Code 5-6 prime of every volume
constexpr std::size_t kBlock = 4096;  // bytes per block
constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome JSON of the benchmark's spans
};

/// Metrics in print order; rendered as the "metrics" object of the
/// result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  std::string json() const;
  /// One "name value unit" line per metric (human summary on stderr).
  std::string text() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Exact per-op latency samples in nanoseconds, split into measurement
/// windows. Storage is reserved during set-up so the timed loop never
/// reallocates in the common case.
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(std::int64_t ns);
  /// Closes the current window; later samples start the next one.
  void mark() { marks_.push_back(v_.size()); }
  std::size_t size() const { return v_.size(); }
  /// Nearest-rank quantile over every sample, in microseconds (0 when
  /// empty).
  double quantile_us(double q);
  /// Median over the closed windows of each window's nearest-rank
  /// quantile, in microseconds. Windows too small to put ten samples
  /// above the quantile are skipped; without any such window this is
  /// quantile_us(q).
  double window_quantile_us(double q);
  double mean_us() const;

 private:
  std::vector<std::uint32_t> v_;
  std::vector<std::size_t> marks_;  // window ends, as sample counts
};

/// The metrics a run prints with --trace 0. Every workload reports the
/// same set: latencies are the foreground client's, and the rate and
/// cost metrics describe the workload's headline work — the client's
/// requests on rand_4k / seq_64k, the conversion on migrate.
struct EndToEnd {
  double setup_s = 0, rss_mb = 0;
  double read_p50_us = 0, read_p90_us = 0, write_p50_us = 0, write_p90_us = 0;
  double ok_frac = 0, mb_per_s = 0, cpu_ms_per_mb = 0;
  double ios_per_blk = 0, bytes_per_byte = 0;
  void emit(Report& r) const;
};

/// The metrics a run prints with --trace 1 (README.md maps each to the
/// end-to-end metric it should move). Layers a workload does not
/// exercise report 0.
struct Layers {
  double vm_submit_us = 0, vm_inflight = 0, vm_queue_full_per_op = 0;
  double queue_wait_mean = 0, queue_wait_p90 = 0;
  double sched_wait_mean = 0, sched_wait_p90 = 0, complete_mean = 0;
  double batch_ops_mean = 0, queue_depth_mean = 0;
  double coalesced_runs_per_op = 0, batch_assembly_mean = 0;
  double ctl_planner_mean = 0, ctl_planner_p90 = 0;
  double delta_parities_per_subwrite = 0, full_stripe_frac = 0;
  double rmw_parities_per_write = 0, direct_parities_per_write = 0;
  double ctl_read_us = 0, ctl_write_us = 0, ctl_write_range_us = 0;
  double cache_hit_ratio = 0, cache_evictions_per_op = 0;
  double device_mean = 0, device_p90 = 0, runs_per_blk = 0;
  double read_bytes_per_op = 0, write_bytes_per_op = 0;
  double online_planner_mean = 0, online_planner_p90 = 0;
  double app_ios_per_op = 0, interruptions_per_write = 0, start_ms = 0;
  double round_ms_p50 = 0, round_ms_p90 = 0;
  double encode_us_per_stripe = 0, accumulate_gbps = 0;
  double overhead_frac = 0;
  double lateness_p50 = 0, lateness_p90 = 0;
  double read_samples = 0, write_samples = 0;
  void emit(Report& r) const;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Report metrics;
};

/// One finished request, stamped on the shard thread that completed it.
struct Done {
  int slot = 0;
  svc::Status status = svc::Status::kOk;
  std::int64_t t_ns = 0;
};

/// Completion queue from shard threads to the single client thread.
/// Must outlive every manager whose callbacks push into it.
class Completions {
 public:
  Completions() { done_.reserve(1024); }
  void push(const Done& d);
  /// Blocks until at least one completion is queued, then swaps every
  /// queued completion into `out` (which is cleared first).
  void take(std::vector<Done>& out);
  /// Non-blocking take; false when nothing was queued.
  bool try_take(std::vector<Done>& out);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Done> done_;
  bool waiting_ = false;
  std::atomic<bool> pending_{false};  // done_ non-empty; read while spinning
};

std::int64_t now_ns();
/// Process CPU time of every thread, in seconds.
double cpu_seconds();
/// CPU time of the calling thread, in seconds.
double thread_cpu_seconds();
/// Peak resident set size (VmHWM), in MiB.
double peak_rss_mb();
double median(std::vector<double> v);
/// num / den, or 0 when the base is empty.
inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }
/// Nearest-rank quantile of plain values (0 when empty).
double quantile(std::vector<double> v, double q);

/// Histograms and counters of one or more registry snapshots, merged
/// (bucket-wise for histograms) so means and quantiles span them all —
/// the migrate workload builds a manager per round.
class SnapAcc {
 public:
  void add(const obs::Snapshot& snap);
  /// Mean / bucket quantile of histogram `name`; 0 without data.
  double mean(const std::string& name) const;
  double quantile(const std::string& name, double q) const;
  std::uint64_t counter(const std::string& name) const;

 private:
  const obs::Metric* find(const std::string& name) const;
  std::vector<obs::Metric> m_;
};

/// Client-side submit, timed (with a span and an in-flight sample)
/// while the trace is armed.
struct SubmitProbe {
  obs::TraceRecorder* spans = nullptr;
  bool armed = false;
  std::int64_t calls = 0;
  std::int64_t ns = 0;
  std::int64_t inflight_sum = 0;

  svc::Status submit(svc::VolumeManager& mgr, svc::Request req);
};

/// Fills the layers measured at the service boundary: the client's
/// submit timing and the service's stage, batch and queue histograms.
/// The planner stage is the controller planner on controller volumes and
/// the migrator's application path when `migrator` is set.
void service_layers(const SnapAcc& acc, const SubmitProbe& probe,
                    bool migrator, Layers& l);

/// Record one benchmark span [t0_ns, t1_ns) of the client thread, as a
/// child of `parent` when non-zero, under id `id` (fresh when 0).
void record_span(obs::TraceRecorder& spans, const char* name,
                 std::int64_t t0_ns, std::int64_t t1_ns, std::uint64_t parent = 0,
                 std::uint64_t id = 0);

/// Arm or disarm the program's own request tracing and metrics.
void arm_program_obs(bool on);

/// Per-layer microbenchmarks on the workload geometry (p = 7, 4 KiB).
double encode_us_per_stripe();
double accumulate_gbps();

/// One op of a pregenerated workload stream.
struct Op {
  svc::OpKind kind = svc::OpKind::kRead;
  std::int32_t volume = 0;
  std::int64_t block = 0;
  std::int64_t count = 1;     // whole blocks (kRead / kWrite)
  std::uint32_t offset = 0;   // byte offset in the block (kWriteRange)
  std::uint32_t len = 0;      // payload bytes
  std::uint32_t payload = 0;  // offset into the payload pool (writes)
};

inline bool is_read(const Op& op) {
  return op.kind == svc::OpKind::kRead || op.kind == svc::OpKind::kReadRange;
}
/// Logical blocks an op touches.
inline std::int64_t blocks_of(const Op& op) {
  return op.kind == svc::OpKind::kRead || op.kind == svc::OpKind::kWrite
             ? op.count
             : 1;
}

/// Payload bytes every write slices from; seeded.
constexpr std::size_t kPoolBytes = 4u << 20;
std::vector<std::uint8_t> make_pool(std::uint64_t seed);

/// Geometry of every controller volume: Code 5-6, p = 7, 4 KiB blocks,
/// 70 stripes of 30 data blocks (8.2 MiB of user data), and a 16-stripe
/// cache that holds the rand_4k hot set.
constexpr std::int64_t kStripes = 70;
constexpr std::size_t kCacheStripes = 16;
svc::Volume::Config volume_config(svc::TenantId owner);

/// Replays the first `n` ops of `ops` (addresses folded into one volume)
/// straight into an ArrayController of the controller-volume geometry on
/// this thread, timing each call into `layers` (controller.*_us).
void replay_controller(const std::vector<Op>& ops, std::size_t n,
                       const std::vector<std::uint8_t>& pool,
                       obs::TraceRecorder& spans, Layers& layers);

Outcome run_closed_loop(const Options& opt, obs::TraceRecorder& spans);
Outcome run_migrate(const Options& opt, obs::TraceRecorder& spans);

}  // namespace perfbench
