#include "obs/events.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/env.hpp"

namespace c56::obs {

void set_events_enabled(bool on) noexcept {
  detail::g_events_enabled.store(on, std::memory_order_relaxed);
}

const char* to_string(EventLevel level) noexcept {
  switch (level) {
    case EventLevel::kDebug: return "debug";
    case EventLevel::kInfo: return "info";
    case EventLevel::kWarn: return "warn";
    case EventLevel::kError: return "error";
  }
  return "info";
}

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The global log, published only once fully constructed so the
// warn_env_once sink below can never observe (or re-enter) a
// half-built instance: EventLog::global() parses its own env knobs,
// and env_int can warn.
std::atomic<EventLog*> g_global{nullptr};

void env_warn_to_events(const char* name, const char* msg) {
  if (EventLog* log = g_global.load(std::memory_order_acquire)) {
    Event ev;
    ev.level = EventLevel::kWarn;
    ev.category = name;
    ev.message = msg;
    // Key on the variable name: warn_env_once already dedups per name,
    // this just keeps hypothetical repeats from distinct messages sane.
    log->emit(std::move(ev), std::string("env:") + name);
    return;
  }
  // Nobody has touched the global log yet — keep the historical
  // stderr behaviour.
  std::fprintf(stderr, "c56: %s: %s\n", name, msg);
}

// Linking the event log into a binary routes env warnings through it.
[[maybe_unused]] const bool g_env_sink_installed = [] {
  util::set_env_warn_sink(&env_warn_to_events);
  return true;
}();

}  // namespace

std::string to_json(const Event& ev) {
  std::ostringstream out;
  out << "{\"t_us\": " << ev.t_us << ", \"seq\": " << ev.seq
      << ", \"level\": \"" << to_string(ev.level) << "\", \"category\": \""
      << detail::json_escape(ev.category) << "\", \"message\": \""
      << detail::json_escape(ev.message) << "\"";
  if (!ev.migration_id.empty()) {
    out << ", \"migration_id\": \"" << detail::json_escape(ev.migration_id)
        << "\"";
  }
  if (ev.group >= 0) out << ", \"group\": " << ev.group;
  if (ev.worker >= 0) out << ", \"worker\": " << ev.worker;
  if (ev.disk >= 0) out << ", \"disk\": " << ev.disk;
  if (ev.block >= 0) out << ", \"block\": " << ev.block;
  out << "}";
  return out.str();
}

EventLog::EventLog(std::size_t capacity) : ring_(capacity) {}

EventLog::~EventLog() {
  detach_metrics();
  std::lock_guard lk(mu_);
  if (sink_) std::fclose(sink_);
}

EventLog& EventLog::global() {
  static EventLog* log = [] {
    auto* l = new EventLog();
    g_global.store(l, std::memory_order_release);
    // Knob parsing below may warn_env_once; the sink sees the
    // already-published log, so those warnings land in it.
    if (const auto v = util::env_int("C56_EVENTS", 0, 1); v && *v != 0) {
      set_events_enabled(true);
    }
    if (const char* path = std::getenv("C56_EVENT_LOG"); path && *path) {
      l->set_jsonl_path(path);
    }
    return l;
  }();
  return *log;
}

void EventLog::emit(Event ev) {
  const std::string key = ev.category + ev.message;
  emit(std::move(ev), key);
}

void EventLog::emit(Event ev, const std::string& rate_key) {
  // Optional levels are dropped silently when the log is disarmed —
  // that's the disabled state, not rate-limit suppression.
  if (ev.level < EventLevel::kWarn && !events_enabled()) return;
  std::lock_guard lk(mu_);
  if (++rate_counts_[rate_key] > rate_limit_) {
    dropped_.inc();
    return;
  }
  record_locked(ev);
}

void EventLog::record_locked(Event& ev) {
  ev.t_us = now_us();
  ev.seq = next_seq_++;
  if (stderr_echo_ && ev.level >= EventLevel::kWarn) {
    std::fprintf(stderr, "c56: %s: %s\n", ev.category.c_str(),
                 ev.message.c_str());
  }
  if (sink_) {
    const std::string line = obs::to_json(ev);
    std::fprintf(sink_, "%s\n", line.c_str());
    std::fflush(sink_);
  }
  if (ring_.push(std::move(ev))) overwritten_.inc();
  emitted_.inc();
}

void EventLog::set_rate_limit(std::uint64_t per_key) {
  std::lock_guard lk(mu_);
  rate_limit_ = per_key;
}

void EventLog::set_stderr_echo(bool on) {
  std::lock_guard lk(mu_);
  stderr_echo_ = on;
}

bool EventLog::set_jsonl_path(const std::string& path) {
  std::lock_guard lk(mu_);
  if (sink_) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
  if (path.empty()) return true;
  sink_ = std::fopen(path.c_str(), "w");
  return sink_ != nullptr;
}

std::vector<Event> EventLog::snapshot() const {
  std::lock_guard lk(mu_);
  return ring_.snapshot();
}

std::vector<Event> EventLog::tail(std::size_t n) const {
  std::vector<Event> all = snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - n);
  return all;
}

std::uint64_t EventLog::emitted() const { return emitted_.value(); }
std::uint64_t EventLog::dropped() const { return dropped_.value(); }
std::uint64_t EventLog::overwritten() const { return overwritten_.value(); }

void EventLog::clear() {
  std::lock_guard lk(mu_);
  ring_.clear();
  rate_counts_.clear();
  emitted_.reset();
  dropped_.reset();
  overwritten_.reset();
}

void EventLog::attach_metrics(Registry& reg, const std::string& prefix) {
  detach_metrics();
  // Counters are atomics, so the collector never touches mu_ (no
  // lock-order edge between the registry lock and the event lock).
  metrics_handle_ = reg.add_collector([this, prefix](Collection& out) {
    out.counter(prefix + "_emitted", emitted_.value());
    out.counter(prefix + "_dropped", dropped_.value());
    out.counter(prefix + "_overwritten", overwritten_.value());
  });
}

void EventLog::detach_metrics() { metrics_handle_.remove(); }

}  // namespace c56::obs
