#pragma once
// Background metrics sampler: turns the Registry's point-in-time
// snapshots into a bounded time series.
//
// A MetricsSampler owns one background thread that, every interval
// (C56_SAMPLE_MS, default 100 ms, clamped to [1, 60000]), runs the
// registered probes (e.g. MigrationMonitor::poll, which refreshes the
// derived rate/ETA/stall gauges the snapshot is about to read), takes
// a Registry snapshot, and appends {t_us, snapshot} to a bounded ring
// — optionally also writing one JSONL line per tick so progress-vs-
// time curves (Fig. 16/17) can be plotted from a single run.
//
// Disabled-cost contract: constructing a sampler starts NOTHING — no
// thread exists until start(), and nothing in the library ever calls
// start() on your behalf. A constructed-but-idle sampler is inert
// state on the side; the instrumented code paths it observes already
// pay only their metrics_enabled()/events_enabled() branch.
//
// sample_once() takes one tick synchronously on the caller's thread —
// the deterministic seam tests and benches use instead of racing the
// background thread.

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace c56::obs {

struct MetricsSample {
  std::uint64_t t_us = 0;  // steady-clock microseconds at snapshot time
  Snapshot snap;
};

class MetricsSampler {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::int64_t kDefaultIntervalMs = 100;
  static constexpr std::uint64_t kDefaultJsonlMaxBytes = 64ull << 20;

  /// Interval comes from C56_SAMPLE_MS when set. `reg` must outlive
  /// the sampler.
  explicit MetricsSampler(Registry& reg);
  ~MetricsSampler();  // stop()s
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Configuration; call before start() (no-ops while running).
  void set_interval_ms(std::int64_t ms);  // clamped to [1, 60000]
  void set_capacity(std::size_t n);
  /// One JSONL line per tick: {"t_us": N, "metrics": {...}}.
  /// "" closes. May be called while running.
  bool set_jsonl_path(const std::string& path);
  /// Size bound on the JSONL sink (0 = unbounded). When a tick pushes
  /// the file past the cap it rotates: <path> -> <path>.1 (replacing
  /// any previous .1) and a fresh <path> — so a long monitor --series
  /// run holds at most ~2x the cap on disk. May be called any time.
  void set_jsonl_max_bytes(std::uint64_t n);
  /// Runs at the start of every tick, on the sampling thread.
  void add_probe(std::function<void()> probe);

  /// Spawn the sampling thread (idempotent).
  void start();
  /// Signal and join it (idempotent; also called by the destructor).
  void stop();
  bool running() const;

  /// One synchronous tick: probes, snapshot, ring append, JSONL line.
  void sample_once();

  std::int64_t interval_ms() const;
  /// Oldest-to-newest copy of the retained samples.
  std::vector<MetricsSample> samples() const;
  std::uint64_t ticks() const;        // samples ever taken
  std::uint64_t overwritten() const;  // evicted by ring wrap
  std::uint64_t jsonl_rotations() const;  // sink rollovers so far
  std::uint64_t jsonl_bytes() const;      // bytes in the current sink

 private:
  void run();
  void tick();

  Registry& reg_;
  mutable std::mutex mu_;  // ring + config + thread lifecycle
  std::condition_variable cv_;
  std::thread thread_;
  bool thread_active_ = false;  // a thread_ exists and must be joined
  bool stop_requested_ = false;
  std::int64_t interval_ms_ = kDefaultIntervalMs;
  Ring<MetricsSample> ring_{kDefaultCapacity};
  std::uint64_t ticks_ = 0;
  std::vector<std::function<void()>> probes_;
  std::FILE* sink_ = nullptr;
  std::string sink_path_;
  std::uint64_t sink_max_bytes_ = kDefaultJsonlMaxBytes;
  std::uint64_t sink_bytes_ = 0;
  std::uint64_t sink_rotations_ = 0;
};

}  // namespace c56::obs
