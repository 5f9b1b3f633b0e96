#include "obs/trace.hpp"

#include <chrono>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "util/env.hpp"

namespace c56::obs {

void set_trace_enabled(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t this_tid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity) : ring_(capacity) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* rec = [] {
    if (const auto v = util::env_int("C56_TRACE", 0, 1); v && *v != 0) {
      set_trace_enabled(true);
    }
    return new TraceRecorder();
  }();
  return *rec;
}

void TraceRecorder::record(TraceSpan span) {
  std::lock_guard lk(mu_);
  ring_.push(std::move(span));
}

std::vector<TraceSpan> TraceRecorder::snapshot() const {
  std::lock_guard lk(mu_);
  return ring_.snapshot();
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard lk(mu_);
  return ring_.overwritten();
}

void TraceRecorder::clear() {
  std::lock_guard lk(mu_);
  ring_.clear();
}

std::string TraceRecorder::to_json() const {
  const std::vector<TraceSpan> spans = snapshot();
  // Parent links only render when the parent survived the ring — a
  // wrapped ring must never leave a child pointing at an evicted span.
  std::unordered_set<std::uint64_t> present;
  for (const TraceSpan& s : spans) {
    if (s.span_id != 0) present.insert(s.span_id);
  }
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"ts\": "
        << s.start_us << ", \"dur\": " << s.dur_us << ", \"pid\": 1, "
        << "\"tid\": " << s.tid;
    if (s.trace_id != 0 || s.span_id != 0) {
      out << ", \"args\": {\"trace\": " << s.trace_id << ", \"span\": "
          << s.span_id;
      if (s.parent_id != 0 && present.contains(s.parent_id)) {
        out << ", \"parent\": " << s.parent_id;
      }
      if (s.tenant >= 0) out << ", \"tenant\": " << s.tenant;
      if (s.volume >= 0) out << ", \"volume\": " << s.volume;
      if (s.bytes >= 0) out << ", \"bytes\": " << s.bytes;
      out << "}";
    }
    out << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return out.str();
}

ScopedSpan::ScopedSpan(const char* name) {
  if (trace_enabled()) {
    name_ = name;
    start_us_ = now_us();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!name_) return;
  TraceSpan s;
  s.name = name_;
  s.start_us = start_us_;
  s.dur_us = now_us() - start_us_;
  s.tid = this_tid();
  TraceRecorder::global().record(std::move(s));
}

}  // namespace c56::obs
