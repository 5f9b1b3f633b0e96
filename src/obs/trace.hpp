#pragma once
// Bounded ring-buffer trace-span recorder.
//
// A TraceSpan is a (name, start_us, dur_us, tid) tuple, optionally
// carrying request identity: a trace id shared by every span of one
// request, this span's own id, a parent span id, and the request's
// context (tenant, volume, bytes). ScopedSpan is the RAII way to emit
// an anonymous span around a region of interest (a ranged write, a
// stripe-group conversion, a journal checkpoint); the service plane's
// completion path records full request span trees directly (see
// obs/reqtrace.hpp). Recording is off by default and gated on
// trace_enabled() — one relaxed atomic-bool branch — so instrumented
// code costs nothing when tracing is disarmed.
//
// The recorder keeps the most recent `capacity` spans in a fixed ring
// under a mutex (spans are rare, coarse events — lock cost is noise
// next to the work they bracket) and counts how many were dropped once
// the ring wrapped. to_json() renders the ring in Chrome trace-event
// style ("X" complete events) so a dump can be loaded into any
// about:tracing-compatible viewer. Because the ring can evict a parent
// while children survive, to_json() only emits a span's parent link
// when the parent is still present in the snapshot — rendered trees
// never contain dangling references.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/ring.hpp"

namespace c56::obs {

namespace detail {
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool on) noexcept;

struct TraceSpan {
  std::string name;
  std::uint64_t start_us = 0;  // steady-clock microseconds
  std::uint64_t dur_us = 0;
  std::uint64_t tid = 0;
  // Request identity (all optional; 0 / -1 mean "not a request span").
  std::uint64_t trace_id = 0;   // shared by every span of one request
  std::uint64_t span_id = 0;    // this span
  std::uint64_t parent_id = 0;  // enclosing span, 0 for roots
  std::int64_t tenant = -1;
  std::int64_t volume = -1;
  std::int64_t bytes = -1;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Process-wide recorder used by ScopedSpan.
  static TraceRecorder& global();

  void record(TraceSpan span);

  /// Oldest-to-newest copy of the retained spans.
  std::vector<TraceSpan> snapshot() const;

  /// Spans overwritten because the ring was full.
  std::uint64_t dropped() const;

  std::size_t capacity() const { return ring_.capacity(); }

  /// Drops everything recorded so far; also resets dropped().
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}).
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  Ring<TraceSpan> ring_;
};

/// Records a span covering its own lifetime when tracing is enabled at
/// construction time. The name must outlive the scope (string literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr when tracing was off
  std::uint64_t start_us_ = 0;
};

}  // namespace c56::obs
