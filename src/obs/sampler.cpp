#include "obs/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "util/env.hpp"

namespace c56::obs {

namespace {

constexpr std::int64_t kMinIntervalMs = 1;
constexpr std::int64_t kMaxIntervalMs = 60000;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// One compact time-series line per tick.
std::string sample_to_jsonl(const MetricsSample& s) {
  std::ostringstream out;
  out << "{\"t_us\": " << s.t_us << ", \"metrics\": {";
  for (std::size_t i = 0; i < s.snap.metrics.size(); ++i) {
    const Metric& m = s.snap.metrics[i];
    out << (i ? ", " : "") << "\"" << detail::json_escape(m.name) << "\": ";
    switch (m.kind) {
      case MetricKind::kCounter: out << m.counter; break;
      case MetricKind::kGauge: out << m.gauge; break;
      case MetricKind::kHistogram:
        out << "{\"count\": " << m.hist.count << ", \"sum\": " << m.hist.sum
            << ", \"max\": " << m.hist.max
            << ", \"p50\": " << fmt_double(m.hist.p50)
            << ", \"p95\": " << fmt_double(m.hist.p95)
            << ", \"p99\": " << fmt_double(m.hist.p99) << "}";
        break;
    }
  }
  out << "}}";
  return out.str();
}

}  // namespace

MetricsSampler::MetricsSampler(Registry& reg) : reg_(reg) {
  if (const auto v =
          util::env_int("C56_SAMPLE_MS", kMinIntervalMs, kMaxIntervalMs)) {
    interval_ms_ = *v;
  }
}

MetricsSampler::~MetricsSampler() {
  stop();
  std::lock_guard lk(mu_);
  if (sink_) std::fclose(sink_);
}

void MetricsSampler::set_interval_ms(std::int64_t ms) {
  std::lock_guard lk(mu_);
  if (thread_active_) return;
  interval_ms_ = std::clamp(ms, kMinIntervalMs, kMaxIntervalMs);
}

void MetricsSampler::set_capacity(std::size_t n) {
  std::lock_guard lk(mu_);
  if (thread_active_ || n == 0) return;
  ring_.set_capacity(n);
}

bool MetricsSampler::set_jsonl_path(const std::string& path) {
  std::lock_guard lk(mu_);
  if (sink_) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
  sink_path_.clear();
  sink_bytes_ = 0;
  if (path.empty()) return true;
  sink_ = std::fopen(path.c_str(), "w");
  if (sink_) sink_path_ = path;
  return sink_ != nullptr;
}

void MetricsSampler::set_jsonl_max_bytes(std::uint64_t n) {
  std::lock_guard lk(mu_);
  sink_max_bytes_ = n;
}

void MetricsSampler::add_probe(std::function<void()> probe) {
  std::lock_guard lk(mu_);
  if (thread_active_) return;
  probes_.push_back(std::move(probe));
}

void MetricsSampler::start() {
  std::lock_guard lk(mu_);
  if (thread_active_) return;
  stop_requested_ = false;
  thread_ = std::thread([this] { run(); });
  thread_active_ = true;
}

void MetricsSampler::stop() {
  std::thread t;
  {
    std::lock_guard lk(mu_);
    if (!thread_active_) return;
    stop_requested_ = true;
    t = std::move(thread_);
    thread_active_ = false;
  }
  cv_.notify_all();
  t.join();
}

bool MetricsSampler::running() const {
  std::lock_guard lk(mu_);
  return thread_active_;
}

void MetricsSampler::sample_once() { tick(); }

void MetricsSampler::run() {
  for (;;) {
    tick();
    std::unique_lock lk(mu_);
    const auto interval = std::chrono::milliseconds(interval_ms_);
    if (cv_.wait_for(lk, interval, [this] { return stop_requested_; })) {
      return;
    }
  }
}

void MetricsSampler::tick() {
  // Probes and the registry snapshot run outside mu_: probes take
  // subsystem locks (monitor -> migrator) and must not see the
  // sampler's own lock held around them.
  std::vector<std::function<void()>> probes;
  {
    std::lock_guard lk(mu_);
    probes = probes_;
  }
  for (const auto& p : probes) p();
  MetricsSample s;
  s.snap = reg_.snapshot();
  s.t_us = now_us();
  std::lock_guard lk(mu_);
  if (sink_) {
    const std::string line = sample_to_jsonl(s);
    std::fprintf(sink_, "%s\n", line.c_str());
    std::fflush(sink_);
    sink_bytes_ += line.size() + 1;
    if (sink_max_bytes_ != 0 && sink_bytes_ >= sink_max_bytes_ &&
        !sink_path_.empty()) {
      // Roll the sink: keep exactly one previous generation so an
      // unattended --series run is bounded at ~2x the cap.
      std::fclose(sink_);
      const std::string prev = sink_path_ + ".1";
      std::remove(prev.c_str());
      std::rename(sink_path_.c_str(), prev.c_str());
      sink_ = std::fopen(sink_path_.c_str(), "w");
      sink_bytes_ = 0;
      ++sink_rotations_;
    }
  }
  ring_.push(std::move(s));
  ++ticks_;
}

std::int64_t MetricsSampler::interval_ms() const {
  std::lock_guard lk(mu_);
  return interval_ms_;
}

std::vector<MetricsSample> MetricsSampler::samples() const {
  std::lock_guard lk(mu_);
  return ring_.snapshot();
}

std::uint64_t MetricsSampler::ticks() const {
  std::lock_guard lk(mu_);
  return ticks_;
}

std::uint64_t MetricsSampler::overwritten() const {
  std::lock_guard lk(mu_);
  return ring_.overwritten();
}

std::uint64_t MetricsSampler::jsonl_rotations() const {
  std::lock_guard lk(mu_);
  return sink_rotations_;
}

std::uint64_t MetricsSampler::jsonl_bytes() const {
  std::lock_guard lk(mu_);
  return sink_bytes_;
}

}  // namespace c56::obs
