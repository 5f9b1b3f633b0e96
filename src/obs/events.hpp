#pragma once
// Structured, leveled, rate-limited event log.
//
// Where the metrics Registry answers "how much / how fast", the
// EventLog answers "what happened, when, to which object": a bounded
// in-memory ring of Event records (level, category, message, plus the
// correlation fields a migration debugger needs — migration id, stripe
// group, worker, disk, block) with an optional JSONL sink for offline
// analysis. It absorbs the library's previously ad-hoc warn-once
// fprintfs: util::warn_env_once routes through the global log once one
// exists (see set_env_warn_sink), which covers every env-knob clamp
// warning and the unknown C56_XOR_KERNEL name path.
//
// Recording contract:
//  * kWarn / kError events are ALWAYS recorded (the flight recorder
//    must capture an abort's context even when nobody armed the log).
//  * kDebug / kInfo events are recorded only when events_enabled() —
//    and hot-path emitters must additionally gate the whole call
//    (including message construction) on events_enabled(), so a
//    disabled log costs one predictable relaxed-load branch.
//  * A per-key token budget (default 64 recorded events per key, key
//    defaults to category + message; repetitive emitters pass a stable
//    explicit key) suppresses floods; suppressed events count in
//    dropped(), exported as `events_dropped` so suppression is itself
//    observable.
//
// Warn and error events are echoed to stderr ("c56: category: message")
// unless the echo is turned off, preserving the operator-visible
// behaviour of the fprintf paths this log replaced.
//
// C56_EVENTS=1 arms events_enabled() and C56_EVENT_LOG=<path> opens the
// JSONL sink, both at first touch of EventLog::global().

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace c56::obs {

namespace detail {
inline std::atomic<bool> g_events_enabled{false};
}  // namespace detail

/// The one hot-path branch: true when optional (debug/info) events
/// should be constructed and emitted. Warn/error events ignore it.
inline bool events_enabled() noexcept {
  return detail::g_events_enabled.load(std::memory_order_relaxed);
}
void set_events_enabled(bool on) noexcept;

enum class EventLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

/// "debug" / "info" / "warn" / "error".
const char* to_string(EventLevel level) noexcept;

struct Event {
  EventLevel level = EventLevel::kInfo;
  std::string category;  // subsystem or knob name: "migration", "env", ...
  std::string message;
  // Correlation fields; empty / -1 mean "not applicable".
  std::string migration_id;
  std::int64_t group = -1;
  int worker = -1;
  int disk = -1;
  std::int64_t block = -1;
  // Stamped by emit():
  std::uint64_t t_us = 0;  // steady-clock microseconds
  std::uint64_t seq = 0;   // process-unique, monotonic per log
};

/// One JSONL line (no trailing newline); unset correlation fields are
/// omitted.
std::string to_json(const Event& ev);

class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::uint64_t kDefaultRateLimit = 64;

  explicit EventLog(std::size_t capacity = kDefaultCapacity);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Process-wide log. First touch arms events_enabled() from
  /// C56_EVENTS and the JSONL sink from C56_EVENT_LOG, and makes the
  /// log visible to the util::warn_env_once routing hook.
  static EventLog& global();

  /// Record `ev` (subject to the level and rate-limit contract above).
  /// The rate key defaults to ev.category + ev.message; emitters whose
  /// message text varies per occurrence pass a stable `rate_key`.
  void emit(Event ev);
  void emit(Event ev, const std::string& rate_key);

  /// Recorded events per rate key before suppression kicks in.
  void set_rate_limit(std::uint64_t per_key);
  /// Echo warn/error events to stderr (default on).
  void set_stderr_echo(bool on);
  /// Open (truncating) a JSONL sink; "" closes it. Every recorded
  /// event is appended as one line and flushed.
  bool set_jsonl_path(const std::string& path);

  /// Oldest-to-newest copy of the retained events.
  std::vector<Event> snapshot() const;
  /// The newest min(n, size) events, oldest first.
  std::vector<Event> tail(std::size_t n) const;

  std::uint64_t emitted() const;      // recorded into the ring
  std::uint64_t dropped() const;      // suppressed by the rate limiter
  std::uint64_t overwritten() const;  // evicted by ring wrap
  std::size_t capacity() const { return ring_.capacity(); }

  /// Drops ring contents, counters, and rate-limiter state (tests).
  void clear();

  /// Export events_emitted / events_dropped / events_overwritten
  /// through `reg` until detach_metrics() or destruction.
  void attach_metrics(Registry& reg, const std::string& prefix = "events");
  void detach_metrics();

 private:
  void record_locked(Event& ev);

  mutable std::mutex mu_;
  Ring<Event> ring_;
  std::uint64_t rate_limit_ = kDefaultRateLimit;
  std::unordered_map<std::string, std::uint64_t> rate_counts_;
  std::uint64_t next_seq_ = 1;
  std::FILE* sink_ = nullptr;
  bool stderr_echo_ = true;
  // Exported counters are atomics so the metrics collector can read
  // them without touching mu_ (no lock-order edge with the registry).
  Counter emitted_, dropped_, overwritten_;
  CollectorHandle metrics_handle_;
};

}  // namespace c56::obs
