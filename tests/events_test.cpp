// Event-log tests: ring retention, the level-gating and always-record-
// warnings contract, per-key rate limiting with an observable dropped
// counter, the JSONL sink, metrics attachment, and the routing of
// util::warn_env_once knob warnings into the global log.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "xorblk/kernel.hpp"

namespace c56 {
namespace {

obs::Event make_event(obs::EventLevel level, std::string msg) {
  obs::Event ev;
  ev.level = level;
  ev.category = "test";
  ev.message = std::move(msg);
  return ev;
}

/// Arm events_enabled() for one test body and restore the default.
class EventsEnabledScope {
 public:
  EventsEnabledScope() { obs::set_events_enabled(true); }
  ~EventsEnabledScope() { obs::set_events_enabled(false); }
};

TEST(EventLog, RingKeepsNewestAndCountsOverwrites) {
  EventsEnabledScope on;
  obs::EventLog log(4);
  log.set_stderr_echo(false);
  for (int i = 0; i < 6; ++i) {
    const std::string n = std::to_string(i);
    log.emit(make_event(obs::EventLevel::kInfo, "e" + n), "k" + n);
  }
  EXPECT_EQ(log.emitted(), 6u);
  EXPECT_EQ(log.overwritten(), 2u);
  const std::vector<obs::Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].message,
              "e" + std::to_string(i + 2));
  }
  // Sequence numbers are monotonic and the tail is the newest slice.
  EXPECT_LT(events[0].seq, events[3].seq);
  const std::vector<obs::Event> last2 = log.tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].message, "e4");
  EXPECT_EQ(last2[1].message, "e5");
}

TEST(EventLog, DebugAndInfoAreGatedWarnAndErrorAreNot) {
  // Default state: events disabled.
  ASSERT_FALSE(obs::events_enabled());
  obs::EventLog log;
  log.set_stderr_echo(false);
  log.emit(make_event(obs::EventLevel::kDebug, "dropped debug"));
  log.emit(make_event(obs::EventLevel::kInfo, "dropped info"));
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_EQ(log.dropped(), 0u);  // gated out, not rate-limited
  // The flight-recorder guarantee: warnings and errors always record.
  log.emit(make_event(obs::EventLevel::kWarn, "kept warn"));
  log.emit(make_event(obs::EventLevel::kError, "kept error"));
  EXPECT_EQ(log.emitted(), 2u);
  const std::vector<obs::Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "kept warn");
  EXPECT_EQ(events[1].message, "kept error");
}

TEST(EventLog, RateLimiterDropsPerKeyAndExportsTheDropCount) {
  EventsEnabledScope on;
  obs::Registry reg;  // must outlive the attach_metrics handle below
  obs::EventLog log;
  log.set_stderr_echo(false);
  log.set_rate_limit(2);
  for (int i = 0; i < 5; ++i) {
    obs::Event ev = make_event(obs::EventLevel::kInfo,
                               "occurrence " + std::to_string(i));
    log.emit(std::move(ev), "stable_key");
  }
  // A different key has its own budget.
  log.emit(make_event(obs::EventLevel::kInfo, "other"), "other_key");
  EXPECT_EQ(log.emitted(), 3u);
  EXPECT_EQ(log.dropped(), 3u);

  log.attach_metrics(reg);
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("events_dropped"), nullptr);
  EXPECT_EQ(snap.find("events_dropped")->counter, 3u);
  EXPECT_EQ(snap.find("events_emitted")->counter, 3u);
  EXPECT_EQ(snap.find("events_overwritten")->counter, 0u);

  // clear() resets the budget, so the key records again.
  log.clear();
  log.emit(make_event(obs::EventLevel::kInfo, "after clear"), "stable_key");
  EXPECT_EQ(log.emitted(), 1u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLog, DefaultRateKeyIsCategoryPlusMessage) {
  EventsEnabledScope on;
  obs::EventLog log;
  log.set_stderr_echo(false);
  log.set_rate_limit(1);
  log.emit(make_event(obs::EventLevel::kInfo, "same"));
  log.emit(make_event(obs::EventLevel::kInfo, "same"));      // suppressed
  log.emit(make_event(obs::EventLevel::kInfo, "different"));  // own key
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(EventLog, ToJsonOmitsUnsetFieldsAndEscapes) {
  obs::Event ev = make_event(obs::EventLevel::kWarn, "a \"quoted\" msg");
  ev.migration_id = "mig-1";
  ev.group = 7;
  ev.worker = 2;
  ev.t_us = 123;
  ev.seq = 9;
  const std::string json = to_json(ev);
  EXPECT_NE(json.find("\"level\": \"warn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"category\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"migration_id\": \"mig-1\""), std::string::npos);
  EXPECT_NE(json.find("\"group\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"worker\": 2"), std::string::npos);
  // disk/block were left at -1: omitted entirely.
  EXPECT_EQ(json.find("\"disk\""), std::string::npos);
  EXPECT_EQ(json.find("\"block\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(EventLog, JsonlSinkWritesOneLinePerEvent) {
  EventsEnabledScope on;
  const std::string path =
      ::testing::TempDir() + "c56_events_test_sink.jsonl";
  obs::EventLog log;
  log.set_stderr_echo(false);
  ASSERT_TRUE(log.set_jsonl_path(path));
  obs::Event ev = make_event(obs::EventLevel::kInfo, "to file");
  ev.disk = 3;
  log.emit(std::move(ev));
  log.emit(make_event(obs::EventLevel::kWarn, "second line"));
  ASSERT_TRUE(log.set_jsonl_path(""));  // closes + flushes

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"message\": \"to file\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"disk\": 3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\": \"warn\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLog, LevelNames) {
  EXPECT_STREQ(to_string(obs::EventLevel::kDebug), "debug");
  EXPECT_STREQ(to_string(obs::EventLevel::kInfo), "info");
  EXPECT_STREQ(to_string(obs::EventLevel::kWarn), "warn");
  EXPECT_STREQ(to_string(obs::EventLevel::kError), "error");
}

// ---------------------------------------------------------------------
// util::warn_env_once routing into the global log
// ---------------------------------------------------------------------

TEST(EventLogEnvRouting, ClampWarningBecomesStructuredEvent) {
  obs::EventLog& log = obs::EventLog::global();
  log.set_stderr_echo(false);
  log.clear();
  // warn_env_once dedups per name for the process lifetime, so this
  // test owns a knob name nothing else touches.
  ASSERT_EQ(::setenv("C56_EVENTS_TEST_KNOB", "999999", 1), 0);
  const std::optional<long long> v =
      util::env_int("C56_EVENTS_TEST_KNOB", 1, 64);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 64);  // clamped to the nearer bound
  ::unsetenv("C56_EVENTS_TEST_KNOB");

  const std::vector<obs::Event> events = log.snapshot();
  ASSERT_FALSE(events.empty());
  const obs::Event& ev = events.back();
  EXPECT_EQ(ev.level, obs::EventLevel::kWarn);
  EXPECT_EQ(ev.category, "C56_EVENTS_TEST_KNOB");
  EXPECT_NE(ev.message.find("clamp"), std::string::npos) << ev.message;
}

TEST(EventLogEnvRouting, UnknownXorKernelNameBecomesStructuredEvent) {
  obs::EventLog& log = obs::EventLog::global();
  log.set_stderr_echo(false);
  log.clear();
  // The kernel registry warns (once per process, at first touch)
  // through warn_env_once when C56_XOR_KERNEL names no registered
  // kernel; nothing else in this binary touches the registry first.
  ASSERT_EQ(::setenv("C56_XOR_KERNEL", "no-such-kernel", 1), 0);
  (void)active_kernel();
  ::unsetenv("C56_XOR_KERNEL");

  bool found = false;
  for (const obs::Event& ev : log.snapshot()) {
    if (ev.category == "C56_XOR_KERNEL" &&
        ev.level == obs::EventLevel::kWarn) {
      found = true;
    }
  }
  EXPECT_TRUE(found)
      << "unknown kernel name warning did not reach the event log";
}

}  // namespace
}  // namespace c56
