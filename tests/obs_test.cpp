// Observability layer tests: metric primitives, histogram quantiles,
// registry find-or-create, collector lifecycle, exporter agreement, and
// the trace-span ring. Ends with the acceptance-criteria integration
// test: a scripted migrate-under-faults run whose JSON and Prometheus
// renderings carry the same values as the subsystems' own accessors.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "layout/raid.hpp"
#include "migration/disk_array.hpp"
#include "migration/fault.hpp"
#include "migration/journal.hpp"
#include "migration/online.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "xorblk/xor.hpp"

namespace c56 {
namespace {

constexpr std::size_t kBlock = 64;

TEST(Counter, IncrementAndReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsDontLoseUpdates) {
  obs::Counter c;
  constexpr int kThreads = 8, kIters = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kIters; ++i) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Gauge, SetAndAddGoNegative) {
  obs::Gauge g;
  g.set(5);
  g.add(-8);
  EXPECT_EQ(g.value(), -3);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  obs::Histogram h;
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.quantile(0.99), 0.0);
}

TEST(Histogram, ZeroLandsInTheZeroBucket) {
  obs::Histogram h;
  h.observe(0);
  const obs::HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0], (std::pair<std::uint64_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.max, 0u);
}

TEST(Histogram, Log2BucketsAndQuantiles) {
  // Samples 1..8 land in bit-width buckets (ub, n):
  // (1,1) (3,2) (7,4) (15,1). Quantiles are then fully determined:
  // p50 interpolates inside the (7,4) bucket; p95 lands in (15,1) but
  // clamps to the exact tracked max of 8.
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 8; ++v) h.observe(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 8u);
  EXPECT_EQ(s.sum, 36u);
  EXPECT_EQ(s.max, 8u);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want{
      {1, 1}, {3, 2}, {7, 4}, {15, 1}};
  EXPECT_EQ(s.buckets, want);
  EXPECT_DOUBLE_EQ(s.p50, 4.75);
  EXPECT_DOUBLE_EQ(s.p95, 8.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 8.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, static_cast<double>(s.max));
}

TEST(Histogram, SingleSampleQuantilesAreExact) {
  // One sample: every quantile IS that sample. Before the fix the
  // bucket walk interpolated to the log2 bucket's interior — a single
  // observe(1000) (bucket [512, 1023]) read back as 767.5.
  obs::Histogram h;
  h.observe(1000);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 1000.0);
  EXPECT_DOUBLE_EQ(s.p95, 1000.0);
  EXPECT_DOUBLE_EQ(s.p99, 1000.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.01), 1000.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(Histogram, SingleZeroSampleQuantilesAreZero) {
  obs::Histogram h;
  h.observe(0);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Histogram, ResetClearsEverything) {
  obs::Histogram h;
  h.observe(100);
  h.reset();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_TRUE(s.buckets.empty());
}

TEST(Registry, FindOrCreateReturnsStableAddresses) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("a");
  a.inc(3);
  EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_NE(&reg.counter("b"), &a);
  // Names are per-kind namespaces: a gauge "a" is a different metric.
  reg.gauge("a").set(-1);
  EXPECT_EQ(reg.counter("a").value(), 3u);
  EXPECT_EQ(reg.gauge("a").value(), -1);
  reg.histogram("a").observe(9);
  EXPECT_EQ(reg.histogram("a").snapshot().count, 1u);
}

TEST(Registry, ResetZeroesOwnedMetricsOnly) {
  obs::Registry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(7);
  reg.histogram("h").observe(3);
  obs::Counter external;
  external.inc(9);
  const obs::CollectorHandle handle = reg.add_collector(
      [&external](obs::Collection& c) { c.counter("ext", external.value()); });
  reg.reset();
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("c")->counter, 0u);
  EXPECT_EQ(snap.find("g")->gauge, 0);
  EXPECT_EQ(snap.find("h")->hist.count, 0u);
  // Collector-backed state is the subsystem's, not the registry's.
  EXPECT_EQ(snap.find("ext")->counter, 9u);
}

TEST(Registry, CollectorHandleDetaches) {
  obs::Registry reg;
  obs::CollectorHandle h = reg.add_collector(
      [](obs::Collection& c) { c.counter("from_collector", 7); });
  EXPECT_TRUE(static_cast<bool>(h));
  ASSERT_NE(reg.snapshot().find("from_collector"), nullptr);
  EXPECT_EQ(reg.snapshot().find("from_collector")->counter, 7u);
  h.remove();
  EXPECT_FALSE(static_cast<bool>(h));
  EXPECT_EQ(reg.snapshot().find("from_collector"), nullptr);
  h.remove();  // idempotent
}

TEST(Registry, CollectorHandleMoveTransfersOwnership) {
  obs::Registry reg;
  obs::CollectorHandle a =
      reg.add_collector([](obs::Collection& c) { c.counter("moved", 1); });
  obs::CollectorHandle b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_NE(reg.snapshot().find("moved"), nullptr);
  {
    // Move-assignment over a live handle detaches the overwritten one.
    obs::CollectorHandle c =
        reg.add_collector([](obs::Collection& cc) { cc.counter("other", 2); });
    c = std::move(b);
    EXPECT_EQ(reg.snapshot().find("other"), nullptr);
    EXPECT_NE(reg.snapshot().find("moved"), nullptr);
  }  // c dies -> "moved" detaches too
  EXPECT_EQ(reg.snapshot().find("moved"), nullptr);
}

TEST(Registry, SnapshotIsNameSorted) {
  obs::Registry reg;
  reg.counter("zebra").inc();
  reg.gauge("apple").set(1);
  reg.histogram("mango").observe(2);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.metrics.begin(), snap.metrics.end(),
      [](const obs::Metric& x, const obs::Metric& y) {
        return x.name < y.name;
      }));
}

TEST(Registry, MetricsEnabledSwitchRoundTrips) {
  // The process-wide default is off; tests that arm it must disarm it.
  EXPECT_FALSE(obs::metrics_enabled());
  obs::set_metrics_enabled(true);
  EXPECT_TRUE(obs::metrics_enabled());
  obs::set_metrics_enabled(false);
  EXPECT_FALSE(obs::metrics_enabled());
}

TEST(Exporters, PrometheusSharesOneTypeLineAcrossLabeledSeries) {
  obs::Snapshot snap;
  for (int d = 0; d < 2; ++d) {
    obs::Metric m;
    m.name = "x_reads{disk=\"" + std::to_string(d) + "\"}";
    m.kind = obs::MetricKind::kCounter;
    m.counter = static_cast<std::uint64_t>(3 + 2 * d);
    snap.metrics.push_back(std::move(m));
  }
  const std::string want =
      "# HELP x_reads_total x reads total\n"
      "# TYPE x_reads_total counter\n"
      "x_reads_total{disk=\"0\"} 3\n"
      "x_reads_total{disk=\"1\"} 5\n";
  EXPECT_EQ(obs::to_prometheus(snap), want);
}

TEST(Exporters, PrometheusMergesTotalSuffixedAndLabeledCounters) {
  // "x_reads_total" (pre-suffixed) and "x_reads{...}" (labeled, bare)
  // must land in ONE exposed family with a single HELP/TYPE header.
  obs::Snapshot snap;
  obs::Metric plain;
  plain.name = "x_reads_total";
  plain.kind = obs::MetricKind::kCounter;
  plain.counter = 8;
  snap.metrics.push_back(std::move(plain));
  obs::Metric labeled;
  labeled.name = "x_reads{disk=\"0\"}";
  labeled.kind = obs::MetricKind::kCounter;
  labeled.counter = 3;
  snap.metrics.push_back(std::move(labeled));
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const obs::Metric& a, const obs::Metric& b) {
              return a.name < b.name;
            });
  const std::string want =
      "# HELP x_reads_total x reads total\n"
      "# TYPE x_reads_total counter\n"
      "x_reads_total 8\n"
      "x_reads_total{disk=\"0\"} 3\n";
  EXPECT_EQ(obs::to_prometheus(snap), want);
}

TEST(Exporters, PrometheusUsesRegisteredHelpText) {
  obs::set_metric_help("helped_ops", "Operations with custom help");
  obs::Snapshot snap;
  obs::Metric m;
  m.name = "helped_ops";
  m.kind = obs::MetricKind::kCounter;
  m.counter = 1;
  snap.metrics.push_back(std::move(m));
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(
      prom.find("# HELP helped_ops_total Operations with custom help\n"),
      std::string::npos)
      << prom;
}

TEST(Exporters, PrometheusRendersLabeledHistogramSeries) {
  obs::Registry reg;
  reg.histogram("lat_us{tenant=\"3\"}").observe(7);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE lat_us summary\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("lat_us{tenant=\"3\",quantile=\"0.5\"} 7\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lat_us_sum{tenant=\"3\"} 7\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_count{tenant=\"3\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_max{tenant=\"3\"} 7\n"), std::string::npos);
}

TEST(Exporters, JsonEscapesLabelQuotes) {
  obs::Registry reg;
  reg.counter("x_reads{disk=\"0\"}").inc(3);
  const std::string json = reg.to_json();
  // The label block's quotes must arrive backslash-escaped.
  const std::string want = "\"x_reads{disk=\\\"0\\\"}\": 3";
  EXPECT_NE(json.find(want), std::string::npos) << json;
}

TEST(Exporters, PrometheusRendersHistogramAsSummary) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat_us");
  for (std::uint64_t v = 1; v <= 8; ++v) h.observe(v);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE lat_us summary\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_us{quantile=\"0.5\"} 4.75\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_sum 36\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_count 8\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_max 8\n"), std::string::npos);
}

TEST(Exporters, PrometheusGoldenGrammar) {
  // Golden rendering of a small mixed registry: every family headed by
  // # HELP and # TYPE, counters suffixed _total before their label
  // block, histograms as a summary block with quantile labels merged
  // into any existing labels. Locks the exact grammar so scrapers can
  // rely on it.
  obs::Registry reg;
  reg.counter("io_reads{disk=\"0\"}").inc(3);
  reg.counter("io_reads{disk=\"1\"}").inc(5);
  reg.gauge("watermark").set(-1);
  reg.histogram("lat_us").observe(7);
  const std::string want =
      "# HELP io_reads_total io reads total\n"
      "# TYPE io_reads_total counter\n"
      "io_reads_total{disk=\"0\"} 3\n"
      "io_reads_total{disk=\"1\"} 5\n"
      "# HELP lat_us lat us\n"
      "# TYPE lat_us summary\n"
      "lat_us{quantile=\"0.5\"} 7\n"
      "lat_us{quantile=\"0.95\"} 7\n"
      "lat_us{quantile=\"0.99\"} 7\n"
      "lat_us_sum 7\n"
      "lat_us_count 1\n"
      "lat_us_max 7\n"
      "# HELP watermark watermark\n"
      "# TYPE watermark gauge\n"
      "watermark -1\n";
  EXPECT_EQ(reg.to_prometheus(), want);
}

TEST(Exporters, JsonAndPrometheusRenderIdenticalValues) {
  obs::Registry reg;
  reg.counter("events_total{kind=\"warn\"}").inc(9);
  reg.counter("plain_counter").inc(4);
  reg.gauge("eta_ms").set(1234);
  const obs::Snapshot snap = reg.snapshot();
  const std::string json = obs::to_json(snap);
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(json.find("\"events_total{kind=\\\"warn\\\"}\": 9"),
            std::string::npos)
      << json;
  // Already-_total bases keep one suffix; bare counters gain it.
  EXPECT_NE(prom.find("events_total{kind=\"warn\"} 9\n"), std::string::npos)
      << prom;
  EXPECT_NE(json.find("\"plain_counter\": 4"), std::string::npos);
  EXPECT_NE(prom.find("\nplain_counter_total 4\n"), std::string::npos);
  EXPECT_NE(json.find("\"eta_ms\": 1234"), std::string::npos);
  EXPECT_NE(prom.find("\neta_ms 1234\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Bounded ring
// ---------------------------------------------------------------------

TEST(Ring, PushOverwritesOldestAndSnapshotsOldestFirst) {
  obs::Ring<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_FALSE(ring.push(0));
  EXPECT_FALSE(ring.push(1));
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{0, 1}));
  EXPECT_FALSE(ring.push(2));
  EXPECT_TRUE(ring.push(3));
  EXPECT_TRUE(ring.push(4));
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(ring.overwritten(), 2u);
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_FALSE(ring.push(5));
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{5}));
  EXPECT_EQ(obs::Ring<int>(0).capacity(), 1u);
}

TEST(Ring, SetCapacityKeepsTheNewest) {
  obs::Ring<int> ring(4);
  for (int i = 0; i < 7; ++i) ring.push(i);  // wrapped: 3 4 5 6
  ring.set_capacity(2);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{5, 6}));
  EXPECT_EQ(ring.overwritten(), 3u);
  ring.push(7);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{6, 7}));
  // Growing a wrapped ring keeps oldest-first order for later pushes.
  ring.set_capacity(4);
  ring.push(8);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{6, 7, 8}));
  EXPECT_EQ(ring.overwritten(), 4u);
}

TEST(Sampler, SetCapacityKeepsNewestSamplesInOrder) {
  obs::Registry reg;
  obs::Counter& tick = reg.counter("tick");
  obs::MetricsSampler sampler(reg);
  const auto ticks_seen = [&sampler] {
    std::vector<std::uint64_t> out;
    for (const obs::MetricsSample& s : sampler.samples()) {
      out.push_back(s.snap.find("tick")->counter);
    }
    return out;
  };
  const auto sample = [&](int n) {
    for (int i = 0; i < n; ++i) {
      tick.inc();
      sampler.sample_once();
    }
  };
  sampler.set_capacity(3);
  sample(5);
  EXPECT_EQ(ticks_seen(), (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(sampler.overwritten(), 2u);
  sampler.set_capacity(2);
  EXPECT_EQ(ticks_seen(), (std::vector<std::uint64_t>{4, 5}));
  sample(1);  // wraps the shrunk ring
  sampler.set_capacity(4);
  sample(1);
  EXPECT_EQ(ticks_seen(), (std::vector<std::uint64_t>{5, 6, 7}));
  EXPECT_EQ(sampler.overwritten(), 3u);
  EXPECT_EQ(sampler.ticks(), 7u);
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(Trace, RingKeepsMostRecentAndCountsDropped) {
  obs::TraceRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    obs::TraceSpan s;
    const std::string n = std::to_string(i);
    s.name = "s" + n;
    s.start_us = static_cast<std::uint64_t>(i);
    rec.record(std::move(s));
  }
  const std::vector<obs::TraceSpan> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].name,
              "s" + std::to_string(i + 2));
  }
  EXPECT_EQ(rec.dropped(), 2u);
  rec.clear();
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, ScopedSpanHonoursEnableFlag) {
  obs::TraceRecorder& g = obs::TraceRecorder::global();
  g.clear();
  obs::set_trace_enabled(false);
  { obs::ScopedSpan off("span_off"); }
  obs::set_trace_enabled(true);
  { obs::ScopedSpan on("span_on"); }
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceSpan> spans = g.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "span_on");
  g.clear();
}

TEST(Trace, ToJsonRendersChromeTraceEvents) {
  obs::TraceRecorder rec(8);
  obs::TraceSpan s;
  s.name = "convert_group";
  s.start_us = 10;
  s.dur_us = 5;
  s.tid = 1;
  rec.record(std::move(s));
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"convert_group\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 10"), std::string::npos);
}

// ---------------------------------------------------------------------
// Integration: migrate under faults, then both exporters must agree
// with each other and with the subsystems' authoritative accessors.
// ---------------------------------------------------------------------

/// Build a valid left-asymmetric RAID-5 with random data.
void fill_raid5(mig::DiskArray& array, int m, std::uint64_t seed) {
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

TEST(ObsIntegration, MigrateUnderFaultsExportsConsistently) {
  // The registry must outlive everything attached to it.
  obs::Registry reg;

  const int p = 5, m = 4;
  const std::int64_t groups = 6;
  mig::DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 11);

  mig::OnlineMigrator migrator(array, p);
  mig::MemoryCheckpointSink sink;
  migrator.attach_journal(sink);
  migrator.set_workers(2);
  migrator.set_retry_policy({.max_attempts = 6, .backoff_us = 1});

  mig::FaultPlan plan;
  plan.sector_error_rate = 0.01;
  plan.torn_write_rate = 0.01;
  plan.disk_failures.push_back({.disk = 1, .after_ios = 30});
  array.set_fault_plan(plan);

  obs::set_metrics_enabled(true);
  migrator.start();
  Rng rng(13);
  std::vector<std::uint8_t> buf(kBlock);
  for (int i = 0; i < 120; ++i) {
    const auto l = static_cast<std::int64_t>(rng.next_below(
        static_cast<std::uint64_t>(migrator.logical_blocks())));
    if (i % 3 == 0) {
      rng.fill(buf.data(), kBlock);
      migrator.write_block(l, buf);
    } else {
      migrator.read_block(l, buf);
    }
  }
  migrator.finish();
  migrator.rebuild_failed_disks();
  obs::set_metrics_enabled(false);

  array.attach_metrics(reg);
  migrator.attach_metrics(reg);
  const obs::Snapshot snap = reg.snapshot();

  // Collector-backed values equal the accessors they mirror.
  const mig::OnlineStats st = migrator.stats();
  ASSERT_NE(snap.find("migrator_conv_reads"), nullptr);
  EXPECT_EQ(snap.find("migrator_conv_reads")->counter, st.conv_reads);
  EXPECT_EQ(snap.find("migrator_conv_writes")->counter, st.conv_writes);
  EXPECT_EQ(snap.find("migrator_app_reads")->counter, st.app_reads);
  EXPECT_EQ(snap.find("migrator_app_writes")->counter, st.app_writes);
  EXPECT_EQ(snap.find("migrator_retries")->counter, st.retries);
  EXPECT_EQ(snap.find("migrator_groups_done")->gauge, groups);
  EXPECT_GT(snap.find("migrator_journal_checkpoints")->counter, 0u);
  ASSERT_NE(snap.find("disk_array_reads_total"), nullptr);
  EXPECT_EQ(snap.find("disk_array_reads_total")->counter,
            array.total_reads());
  EXPECT_EQ(snap.find("disk_array_writes_total")->counter,
            array.total_writes());
  EXPECT_EQ(snap.find("disk_array_sector_errors")->counter,
            array.sector_errors());
  EXPECT_EQ(snap.find("disk_array_torn_writes")->counter,
            array.torn_writes());
  EXPECT_EQ(snap.find("disk_array_disk_failures")->counter,
            array.disk_failure_events());
  // rebuild_failed_disks() brought the failed disk back.
  EXPECT_EQ(snap.find("disk_array_failed_disks")->gauge, 0);
  EXPECT_EQ(snap.find("disk_array_disk_failures")->counter, 1u);

  // Per-disk labeled counters sum to the _total series.
  std::uint64_t labeled_reads = 0;
  for (int d = 0; d <= m; ++d) {
    const std::string name =
        "disk_array_reads{disk=\"" + std::to_string(d) + "\"}";
    ASSERT_NE(snap.find(name), nullptr) << name;
    labeled_reads += snap.find(name)->counter;
  }
  EXPECT_EQ(labeled_reads, array.total_reads());

  // Both exporters render the same snapshot values.
  const std::string json = obs::to_json(snap);
  const std::string prom = obs::to_prometheus(snap);
  auto json_key = [](const std::string& name) {
    std::string out;
    for (char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  // Counters expose with the _total suffix spliced in before any label
  // block; gauges keep their raw names. JSON keeps raw names for both.
  auto expo_name = [](const std::string& name) {
    const auto brace = name.find('{');
    std::string base =
        brace == std::string::npos ? name : name.substr(0, brace);
    if (!base.ends_with("_total")) base += "_total";
    return brace == std::string::npos ? base : base + name.substr(brace);
  };
  for (const obs::Metric& metric : snap.metrics) {
    std::string value;
    std::string prom_name = metric.name;
    if (metric.kind == obs::MetricKind::kCounter) {
      value = std::to_string(metric.counter);
      prom_name = expo_name(metric.name);
    } else if (metric.kind == obs::MetricKind::kGauge) {
      value = std::to_string(metric.gauge);
    } else {
      continue;  // histograms render structurally; covered above
    }
    EXPECT_NE(prom.find("\n" + prom_name + " " + value + "\n"),
              std::string::npos)
        << metric.name;
    EXPECT_NE(json.find("\"" + json_key(metric.name) + "\": " + value),
              std::string::npos)
        << metric.name;
  }

  // One TYPE line per exposed family even though "disk_array_reads_total"
  // (the unlabeled sum) and "disk_array_reads{disk=...}" (per-disk)
  // arrive under different raw names.
  std::size_t type_lines = 0;
  for (std::size_t pos = 0;
       (pos = prom.find("# TYPE disk_array_reads_total ", pos)) !=
       std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

}  // namespace
}  // namespace c56
