// c56cli — command-line front end for the library.
//
//   c56cli layout  <code> <p>                  print a stripe layout map
//   c56cli chains  <code> <p>                  dump every parity chain
//   c56cli analyze [--lb]                      Section V metric survey
//   c56cli convert <code> <approach> <p> [--lb] [--blocks N] [--kb N]
//                                              analyze + simulate one route
//   c56cli speedup [--lb]                      Table IV at n in {5,6,7}
//   c56cli mttdl   <disks> <afr%> <repair_h>   Markov reliability numbers
//   c56cli stats   [--prom]                    scripted migrate-under-faults
//                                              run, metrics dump (JSON; --prom
//                                              for Prometheus text)
//   c56cli serve-bench [--volumes N] [--tenants N] [--streams N]
//                  [--requests N] [--block BYTES] [--p PRIME] [--shards N]
//                  [--batch N] [--reads PCT] [--json]
//                                              drive the multi-tenant block
//                                              service with a stream load and
//                                              report throughput + latency
//   c56cli monitor [--groups N] [--workers N] [--ms N] [--faults]
//                  [--bundle PATH] [--series PATH]
//                                              live migration with sampler,
//                                              rate/ETA/stall monitoring, and
//                                              a post-mortem bundle on abort
//   c56cli postmortem <bundle>                 human summary of a post-mortem
//                                              bundle written by monitor (or
//                                              by MigrationMonitor anywhere)
//   c56cli scrub   [--p N] [--groups N] [--corrupt N] [--repair]
//                  [--rate N] [--json]         seeded silent-corruption demo:
//                                              migrate, plant write-time and
//                                              backdoor corruption, scrub
//                                              (detect-only unless --repair)
//   c56cli slow    [--volumes N] [--tenants N] [--streams N] [--requests N]
//                  [--block BYTES] [--p PRIME] [--shards N] [--batch N]
//                  [--reads PCT] [--n N] [--json]
//                                              run a request-traced stream
//                                              load and print the slowest-N
//                                              tail exemplars with per-stage
//                                              latency attribution (ring
//                                              capacity: C56_SLOW_N)
//   c56cli top     [--seconds N] [--ms N] [--volumes N] [--tenants N]
//                  [--streams N] [--block BYTES] [--p PRIME] [--shards N]
//                  [--reads PCT]               live per-tenant/volume/stage
//                                              view over a looping stream
//                                              load: interval req/s, stage
//                                              p99s, and SLO burn rates from
//                                              sampler snapshot deltas
//
// Codes: code56 rdp evenodd xcode pcode hcode hdp
// Approaches: via-raid0 via-raid4 direct

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reliability.hpp"
#include "analysis/report.hpp"
#include "analysis/risk.hpp"
#include "analysis/speedup.hpp"
#include "codes/registry.hpp"
#include "layout/raid.hpp"
#include "migration/controller.hpp"
#include "migration/journal.hpp"
#include "migration/monitor.hpp"
#include "migration/online.hpp"
#include "migration/trace_gen.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/sampler.hpp"
#include "scrub/scrubber.hpp"
#include "service/loadgen.hpp"
#include "service/slo.hpp"
#include "service/volume_manager.hpp"
#include "sim/event_sim.hpp"
#include "util/rng.hpp"
#include "xorblk/pool.hpp"
#include "xorblk/xor.hpp"

namespace {

using namespace c56;

std::optional<CodeId> parse_code(const std::string& s) {
  if (s == "code56" || s == "code5-6") return CodeId::kCode56;
  if (s == "rdp") return CodeId::kRdp;
  if (s == "evenodd") return CodeId::kEvenOdd;
  if (s == "xcode" || s == "x-code") return CodeId::kXCode;
  if (s == "pcode" || s == "p-code") return CodeId::kPCode;
  if (s == "hcode" || s == "h-code") return CodeId::kHCode;
  if (s == "hdp") return CodeId::kHdp;
  return std::nullopt;
}

std::optional<mig::Approach> parse_approach(const std::string& s) {
  if (s == "via-raid0" || s == "raid0") return mig::Approach::kViaRaid0;
  if (s == "via-raid4" || s == "raid4") return mig::Approach::kViaRaid4;
  if (s == "direct") return mig::Approach::kDirect;
  return std::nullopt;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

long long flag_value(int argc, char** argv, const char* flag,
                     long long fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

std::string flag_string(int argc, char** argv, const char* flag,
                        const std::string& fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Fill `array` (m disks) as a valid left-asymmetric RAID-5 with
/// seeded pseudo-random data.
void fill_raid5(mig::DiskArray& array, int m, std::uint64_t seed) {
  const std::size_t bs = array.block_bytes();
  Rng rng(seed);
  std::vector<std::uint8_t> block(bs), parity(bs);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = raid5_parity_disk(Raid5Flavor::kLeftAsymmetric,
                                        static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      rng.fill(block.data(), bs);
      std::ranges::copy(block, array.raw_block(d, row).begin());
      xor_into(parity.data(), block.data(), bs);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

char cell_glyph(const ErasureCode& code, Cell c) {
  switch (code.kind(c)) {
    case CellKind::kData: return '.';
    case CellKind::kRowParity: return 'H';
    case CellKind::kDiagParity: return 'D';
    case CellKind::kAntiDiagParity: return 'A';
    case CellKind::kVirtual: return '-';
  }
  return '?';
}

int cmd_layout(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: c56cli layout <code> <p>\n");
    return 2;
  }
  const auto id = parse_code(argv[0]);
  if (!id) {
    std::fprintf(stderr, "unknown code '%s'\n", argv[0]);
    return 2;
  }
  const auto code = make_code(*id, std::atoi(argv[1]));
  std::printf("%s: %d rows x %d cols, %d data + %d parity cells\n\n",
              code->name().c_str(), code->rows(), code->cols(),
              code->data_cell_count(), code->parity_cell_count());
  std::printf("      ");
  for (int c = 0; c < code->cols(); ++c) std::printf("d%-2d ", c);
  std::printf("\n");
  for (int r = 0; r < code->rows(); ++r) {
    std::printf("row %-2d ", r);
    for (int c = 0; c < code->cols(); ++c) {
      std::printf(" %c  ", cell_glyph(*code, {r, c}));
    }
    std::printf("\n");
  }
  std::printf(
      "\n. data  H horizontal parity  D diagonal parity  A anti-diagonal "
      "parity\n");
  return 0;
}

int cmd_chains(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: c56cli chains <code> <p>\n");
    return 2;
  }
  const auto id = parse_code(argv[0]);
  if (!id) {
    std::fprintf(stderr, "unknown code '%s'\n", argv[0]);
    return 2;
  }
  const auto code = make_code(*id, std::atoi(argv[1]));
  for (const ParityChain& ch : code->chains()) {
    std::printf("C[%d][%d] =", ch.parity.row, ch.parity.col);
    for (Cell in : ch.inputs) std::printf(" ^C[%d][%d]", in.row, in.col);
    std::printf("\n");
  }
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  const bool lb = has_flag(argc, argv, "--lb");
  TextTable t({"conversion", "invalid", "migrate", "new parity",
               "extra space", "XORs/B", "total I/O/B", "time/B*Te"});
  for (const auto& spec : ana::figure_conversion_set(lb)) {
    const auto c = mig::analyze(spec);
    t.add_row({spec.label(), TextTable::pct(c.invalid_parity_ratio),
               TextTable::pct(c.parity_migration_ratio),
               TextTable::pct(c.new_parity_generation_ratio),
               TextTable::pct(c.extra_space_ratio),
               TextTable::fmt(c.xor_per_block, 2),
               TextTable::fmt(c.total_io, 2), TextTable::fmt(c.time, 3)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_convert(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: c56cli convert <code> <approach> <p> [--lb] "
                 "[--blocks N] [--kb N]\n");
    return 2;
  }
  const auto id = parse_code(argv[0]);
  const auto approach = parse_approach(argv[1]);
  if (!id || !approach) {
    std::fprintf(stderr, "unknown code or approach\n");
    return 2;
  }
  const int p = std::atoi(argv[2]);
  const bool lb = has_flag(argc, argv, "--lb");
  mig::ConversionSpec spec;
  try {
    spec = mig::ConversionSpec::canonical(*id, *approach, p, lb);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid conversion: %s\n", e.what());
    return 2;
  }
  const auto costs = mig::analyze(spec);
  std::printf("%s\n\n", spec.label().c_str());
  std::printf("  invalid parity ratio    %6.1f %%\n",
              costs.invalid_parity_ratio * 100);
  std::printf("  parity migration ratio  %6.1f %%\n",
              costs.parity_migration_ratio * 100);
  std::printf("  new parity ratio        %6.1f %%\n",
              costs.new_parity_generation_ratio * 100);
  std::printf("  extra space ratio       %6.1f %%\n",
              costs.extra_space_ratio * 100);
  std::printf("  computation             %6.2f XORs/B\n", costs.xor_per_block);
  std::printf("  I/O                     %6.2f reads/B + %.2f writes/B\n",
              costs.read_io, costs.write_io);
  std::printf("  analytic time           %6.3f B*Te (%s)\n", costs.time,
              lb ? "LB" : "NLB");
  for (const auto& ph : costs.phases) {
    std::printf("    phase '%s': %.2f reads/B, %.2f writes/B\n",
                ph.name.c_str(), ph.reads(), ph.writes());
  }

  mig::TraceParams params;
  params.total_data_blocks = flag_value(argc, argv, "--blocks", 60'000);
  params.block_bytes =
      static_cast<std::uint32_t>(flag_value(argc, argv, "--kb", 4) * 1024);
  const double ms = ana::simulate_conversion_ms(spec, params);
  std::printf("  simulated time          %6.2f s  (B=%lld, %u KB blocks)\n",
              ms / 1e3, static_cast<long long>(params.total_data_blocks),
              params.block_bytes / 1024);
  const auto risk = ana::conversion_window_risk(
      spec, static_cast<double>(params.total_data_blocks), 8.5, 0.081);
  std::printf("  window risk             tolerates %d failure(s), "
              "P(loss)=%.2e  [%s]\n",
              risk.tolerated, risk.loss_probability,
              ana::window_risk_rating(spec));
  return 0;
}

int cmd_speedup(int argc, char** argv) {
  const bool lb = has_flag(argc, argv, "--lb");
  TextTable t({"n", "vs code", "their best conversion", "speedup"});
  for (const auto& e : ana::table4(lb)) {
    t.add_row({std::to_string(e.n), to_string(e.other),
               e.other_spec.label(), TextTable::fmt(e.speedup, 2) + "x"});
  }
  t.print(std::cout);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  const bool prom = has_flag(argc, argv, "--prom");
  obs::set_metrics_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  const obs::CollectorHandle pool_handle = attach_pool_metrics(reg);

  // Scripted migrate-under-faults workload: a RAID-5 -> RAID-6
  // conversion with transient sector errors, torn writes and one
  // mid-stream disk death, application I/O racing the converter, a
  // rebuild of the dead disk, then a batched-controller phase over a
  // cached Code 5-6 array. Everything is seeded, so two runs dump the
  // same snapshot.
  const int p = 5, m = p - 1;
  const std::int64_t groups = 8;
  constexpr std::size_t kBlock = 512;

  mig::DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56u);

  mig::MemoryCheckpointSink sink;
  mig::OnlineMigrator migrator(array, p);
  migrator.attach_journal(sink);
  migrator.set_workers(2);
  mig::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.backoff_us = 1;
  migrator.set_retry_policy(retry);

  // Route migration events through the global log so events_emitted /
  // events_dropped show up in the dump; quiet on stderr because the
  // seeded fault plan makes reconstruction warnings routine here.
  obs::EventLog& log = obs::EventLog::global();
  log.set_stderr_echo(false);
  log.attach_metrics(reg);
  migrator.attach_events(log, "stats");

  mig::FaultPlan plan;
  plan.sector_error_rate = 0.02;
  plan.torn_write_rate = 0.02;
  plan.disk_failures.push_back({.disk = 1, .after_ios = 40});
  array.set_fault_plan(plan);

  migrator.start();
  {  // application reads/writes concurrent with the conversion
    Rng rng(7);
    std::vector<std::uint8_t> buf(kBlock, 0xAB);
    for (int i = 0; i < 200; ++i) {
      const auto l = static_cast<std::int64_t>(rng.next_below(
          static_cast<std::uint64_t>(migrator.logical_blocks())));
      if (i % 3 == 0) {
        migrator.write_block(l, buf);
      } else {
        migrator.read_block(l, buf);
      }
    }
  }
  migrator.finish();
  migrator.rebuild_failed_disks();

  // Batched-controller phase: full-stripe writes, a partial-stripe
  // read-modify-write, and cached re-reads.
  auto code = make_code(CodeId::kCode56, p);
  const std::int64_t cstripes = 6;
  mig::DiskArray carray(code->cols(), cstripes * code->rows(), kBlock);
  mig::ArrayController ctrl(carray, std::move(code));
  ctrl.set_cache_stripes(4);
  {
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(ctrl.logical_blocks()) * kBlock, 0x5A);
    Rng rng(11);
    rng.fill(buf.data(), buf.size());
    ctrl.write(0, ctrl.logical_blocks(), buf);         // full stripes
    ctrl.write(1, 3, {buf.data(), 3 * kBlock});        // partial stripe
    ctrl.read(0, ctrl.logical_blocks(), buf);          // fills the cache
    ctrl.read(0, 4, {buf.data(), 4 * kBlock});         // cache hits
  }

  // Label each array/controller with the volume it played in the
  // script (0 = the migrated RAID-5, 1 = the batched Code 5-6), so the
  // dump attributes I/O per volume the way the block service does.
  array.attach_metrics(reg, "disk_array", "volume=\"0\"");
  migrator.attach_metrics(reg);
  carray.attach_metrics(reg, "disk_array", "volume=\"1\"");
  ctrl.attach_metrics(reg, "controller", "volume=\"1\"");
  const std::string out = prom ? reg.to_prometheus() : reg.to_json();
  std::fputs(out.c_str(), stdout);
  if (!out.empty() && out.back() != '\n') std::fputc('\n', stdout);
  return 0;
}

int cmd_serve_bench(int argc, char** argv) {
  const bool json = has_flag(argc, argv, "--json");
  obs::set_metrics_enabled(true);

  svc::LoadParams lp;
  lp.volumes = static_cast<int>(flag_value(argc, argv, "--volumes", 16));
  lp.tenants = static_cast<int>(flag_value(argc, argv, "--tenants", 16));
  lp.streams = flag_value(argc, argv, "--streams", 20000);
  lp.requests_per_stream =
      static_cast<int>(flag_value(argc, argv, "--requests", 2));
  lp.block_bytes =
      static_cast<std::size_t>(flag_value(argc, argv, "--block", 512));
  lp.p = static_cast<int>(flag_value(argc, argv, "--p", 7));
  // --reads is a percentage (0-100) of requests that read back.
  lp.read_fraction =
      static_cast<double>(flag_value(argc, argv, "--reads", 0)) / 100.0;
  lp.seed = 0xC56;
  if (lp.volumes < 1 || lp.tenants < 1 || lp.streams < 1 ||
      lp.requests_per_stream < 1 || lp.block_bytes < 16 ||
      lp.read_fraction < 0 || lp.read_fraction > 1) {
    std::fprintf(stderr,
                 "usage: c56cli serve-bench [--volumes N] [--tenants N] "
                 "[--streams N] [--requests N] [--block BYTES] [--p PRIME] "
                 "[--shards N] [--batch N] [--reads PCT] [--json]\n");
    return 2;
  }

  svc::ServiceConfig sc;
  sc.shards = static_cast<int>(flag_value(argc, argv, "--shards", 4));
  sc.max_batch = static_cast<int>(flag_value(argc, argv, "--batch", 256));

  // The registry must outlive the manager: volume-level collectors
  // detach from their subsystems' destructors.
  obs::Registry reg;
  svc::VolumeManager mgr(sc);
  svc::create_stream_volumes(mgr, lp);
  mgr.attach_metrics(reg);
  const svc::LoadStats st = svc::run_stream_load(mgr, lp);
  const obs::Snapshot snap = reg.snapshot();
  const auto* coalesced = snap.find("service_coalesced_runs");
  const std::uint64_t coalesced_runs = coalesced ? coalesced->counter : 0;
  mgr.detach_metrics();
  mgr.stop();

  if (json) {
    std::printf(
        "{\"streams\": %lld, \"requests\": %lld, \"volumes\": %d, "
        "\"tenants\": %d, \"shards\": %d, \"max_batch\": %d, "
        "\"block_bytes\": %zu, \"p\": %d, \"read_pct\": %.0f, "
        "\"rejected\": %lld, \"errors\": %llu, \"wall_s\": %.4f, "
        "\"mbps\": %.2f, \"device_runs\": %llu, \"device_bytes\": %llu, "
        "\"device_mbps\": %.4f, \"coalesced_runs\": %llu, "
        "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
        "\"max_us\": %llu}\n",
        static_cast<long long>(st.streams),
        static_cast<long long>(st.requests), lp.volumes, lp.tenants,
        sc.shards, sc.max_batch, lp.block_bytes, lp.p,
        lp.read_fraction * 100.0, static_cast<long long>(st.rejected),
        static_cast<unsigned long long>(st.errors), st.wall_s, st.mbps,
        static_cast<unsigned long long>(st.device_runs),
        static_cast<unsigned long long>(st.device_bytes), st.device_mbps,
        static_cast<unsigned long long>(coalesced_runs), st.p50_us,
        st.p95_us, st.p99_us, static_cast<unsigned long long>(st.max_us));
  } else {
    std::printf(
        "serve-bench: %lld streams x %d requests over %d volumes, "
        "%d tenants, %zu B blocks, p=%d (%d shards, batch %d)\n",
        static_cast<long long>(st.streams), lp.requests_per_stream,
        lp.volumes, lp.tenants, lp.block_bytes, lp.p, sc.shards,
        sc.max_batch);
    std::printf("  requests   %lld  (rejected %lld, errors %llu)\n",
                static_cast<long long>(st.requests),
                static_cast<long long>(st.rejected),
                static_cast<unsigned long long>(st.errors));
    std::printf("  in-memory  %.3f s wall, %.1f MB/s\n", st.wall_s, st.mbps);
    std::printf(
        "  device     %llu runs, %llu batched read requests, %.1f MB moved, "
        "%.3f MB/s (device model)\n",
        static_cast<unsigned long long>(st.device_runs),
        static_cast<unsigned long long>(coalesced_runs),
        static_cast<double>(st.device_bytes) / 1e6, st.device_mbps);
    std::printf("  latency    p50 %.0f us  p95 %.0f us  p99 %.0f us  "
                "max %llu us\n",
                st.p50_us, st.p95_us, st.p99_us,
                static_cast<unsigned long long>(st.max_us));
  }
  return st.errors == 0 ? 0 : 1;
}

int cmd_monitor(int argc, char** argv) {
  const auto groups = flag_value(argc, argv, "--groups", 256);
  const int workers =
      static_cast<int>(flag_value(argc, argv, "--workers", 2));
  const long long sample_ms = flag_value(argc, argv, "--ms", 20);
  const bool faults = has_flag(argc, argv, "--faults");
  const std::string bundle =
      flag_string(argc, argv, "--bundle", "postmortem.json");
  const std::string series = flag_string(argc, argv, "--series", "");
  if (groups <= 0 || workers <= 0 || sample_ms <= 0) {
    std::fprintf(stderr, "monitor: --groups/--workers/--ms must be > 0\n");
    return 2;
  }

  obs::set_metrics_enabled(true);
  obs::set_events_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  obs::EventLog& log = obs::EventLog::global();
  log.attach_metrics(reg);
  // A fault plan makes per-block reconstruction warnings routine; keep
  // the live console readable (drops are counted in events_dropped).
  log.set_rate_limit(8);

  const int p = 5, m = p - 1;
  constexpr std::size_t kBlock = 512;
  mig::DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56u);

  mig::MemoryCheckpointSink sink;
  mig::OnlineMigrator migrator(array, p);
  migrator.attach_journal(sink);
  migrator.set_workers(workers);
  mig::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_us = 1;
  migrator.set_retry_policy(retry);
  migrator.attach_events(log, "cli-monitor");
  array.attach_metrics(reg);
  migrator.attach_metrics(reg);

  // Background scrubber riding the monitored conversion, detect-only:
  // a faulted run leaves dead disks whose stale bytes fail every
  // chain, and the migration-mode scrubber has no failed-disk
  // deferral — repairs would flail. Detection still populates the
  // scrub_* counters the post-mortem summary reports.
  scrub::Scrubber scrubber(array, migrator);
  scrubber.set_repair(false);
  scrubber.set_interval_ms(sample_ms);
  scrubber.attach_metrics(reg);
  scrubber.attach_events(log);

  if (faults) {
    // Two mid-stream disk deaths exceed the source RAID-5's fault
    // tolerance, so the conversion aborts and the monitor dumps the
    // post-mortem bundle.
    mig::FaultPlan plan;
    plan.sector_error_rate = 0.01;
    plan.torn_write_rate = 0.01;
    plan.disk_failures.push_back({.disk = 1, .after_ios = 150});
    plan.disk_failures.push_back({.disk = 2, .after_ios = 400});
    array.set_fault_plan(plan);
  }

  mig::MonitorConfig mcfg;
  mcfg.migration_id = "cli-monitor";
  mcfg.postmortem_path = bundle;
  mig::MigrationMonitor monitor(migrator, reg, log, mcfg);

  obs::MetricsSampler sampler(reg);
  sampler.set_interval_ms(static_cast<std::int64_t>(sample_ms));
  if (!series.empty() && !sampler.set_jsonl_path(series)) {
    std::fprintf(stderr, "monitor: cannot open --series file '%s'\n",
                 series.c_str());
    return 2;
  }
  sampler.add_probe([&monitor] { monitor.poll(); });
  sampler.start();

  monitor.begin_phase("convert+app-io");
  scrubber.start();
  migrator.start();
  {  // application I/O racing the conversion, as in `stats`
    Rng rng(7);
    std::vector<std::uint8_t> buf(kBlock, 0xAB);
    const auto blocks = static_cast<std::uint64_t>(migrator.logical_blocks());
    for (int i = 0; i < 400 && migrator.converting(); ++i) {
      const auto l = static_cast<std::int64_t>(rng.next_below(blocks));
      if (i % 3 == 0) {
        migrator.write_block(l, buf);
      } else {
        migrator.read_block(l, buf);
      }
      if (i % 50 == 0) {
        std::printf("%s\n", monitor.status_line().c_str());
      }
    }
  }
  migrator.finish();
  scrubber.stop();
  monitor.end_phase();
  sampler.stop();
  monitor.poll();  // final poll: terminal state + abort dump if missed

  std::printf("%s\n", monitor.status_line().c_str());
  std::printf("samples=%llu events_emitted=%llu events_dropped=%llu\n",
              static_cast<unsigned long long>(sampler.ticks()),
              static_cast<unsigned long long>(log.emitted()),
              static_cast<unsigned long long>(log.dropped()));
  if (!series.empty()) {
    std::printf("time series written to %s\n", series.c_str());
  }

  if (migrator.state() == mig::MigrationState::kAborted) {
    std::printf("post-mortem bundle written to %s"
                " (inspect with: c56cli postmortem %s)\n",
                bundle.c_str(), bundle.c_str());
    return 1;
  }
  // Clean finish: still drop a bundle so the operator can inspect the
  // timeline of a healthy run with the same tooling.
  if (monitor.write_postmortem(bundle)) {
    std::printf("run bundle written to %s\n", bundle.c_str());
  }
  return 0;
}

int cmd_postmortem(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: c56cli postmortem <bundle.json>\n");
    return 2;
  }
  std::ifstream in(argv[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "postmortem: cannot read '%s'\n", argv[0]);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string summary = mig::summarize_postmortem(buf.str());
  std::fputs(summary.c_str(), stdout);
  if (!summary.empty() && summary.back() != '\n') std::fputc('\n', stdout);
  return summary.rfind("error:", 0) == 0 ? 1 : 0;
}

int cmd_mttdl(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: c56cli mttdl <disks> <afr%%> <repair_h>\n");
    return 2;
  }
  const int disks = std::atoi(argv[0]);
  const double afr = std::atof(argv[1]) / 100.0;
  const double repair = std::atof(argv[2]);
  std::printf("disks=%d AFR=%.2f%% repair=%.0fh\n", disks, afr * 100, repair);
  std::printf("  RAID-5 MTTDL: %12.0f h (%.1f years)\n",
              ana::raid5_mttdl_hours(disks, afr, repair),
              ana::raid5_mttdl_hours(disks, afr, repair) / 8760);
  std::printf("  RAID-6 MTTDL: %12.0f h (%.1f years)\n",
              ana::raid6_mttdl_hours(disks + 1, afr, repair),
              ana::raid6_mttdl_hours(disks + 1, afr, repair) / 8760);
  return 0;
}

int cmd_scrub(int argc, char** argv) {
  const int p = static_cast<int>(flag_value(argc, argv, "--p", 5));
  const std::int64_t groups = flag_value(argc, argv, "--groups", 8);
  const bool repair = has_flag(argc, argv, "--repair");
  const int rate = static_cast<int>(flag_value(argc, argv, "--rate", 0));
  const bool json = has_flag(argc, argv, "--json");
  const std::int64_t want_inject = flag_value(argc, argv, "--corrupt", 3);
  if (p < 5 || groups < 2) {
    std::fprintf(stderr, "scrub: need --p >= 5 and --groups >= 2\n");
    return 2;
  }
  constexpr std::size_t kBlock = 512;
  const int m = p - 1;

  // A finished RAID-5 -> RAID-6 migration: both parity families exist,
  // so the scrubber can locate (not just detect) single corrupted cells.
  mig::DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56u);
  mig::OnlineMigrator migrator(array, p);
  migrator.set_workers(2);
  migrator.start();
  migrator.finish();

  // One write-time silent corruption through the fault plan (the next
  // counted write of disk 0 block 0 persists with a flipped bit and
  // reports success), consumed by a full pass of application rewrites...
  mig::FaultPlan plan;
  plan.silent_corruptions.push_back({.disk = 0, .block = 0});
  array.set_fault_plan(plan);
  {
    Rng rng(21);
    std::vector<std::uint8_t> buf(kBlock);
    for (std::int64_t l = 0; l < migrator.logical_blocks(); ++l) {
      rng.fill(buf.data(), buf.size());
      migrator.write_block(l, buf);
    }
  }
  // ... plus seeded single-bit backdoor flips, one per stripe group.
  {
    Rng rng(0x5C12B);
    const std::int64_t k = std::min<std::int64_t>(want_inject, groups - 1);
    for (std::int64_t g = 1; g <= k; ++g) {
      const int disk =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
      const std::int64_t block =
          g * (p - 1) +
          static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(p - 1)));
      array.corrupt_block(disk, block,
                          static_cast<std::size_t>(rng.next_below(kBlock)),
                          static_cast<std::uint8_t>(1u << rng.next_below(8)));
    }
  }
  const std::uint64_t injected = array.silent_corruptions();

  obs::EventLog& log = obs::EventLog::global();
  log.set_stderr_echo(false);
  scrub::Scrubber scr(array, migrator);
  scr.attach_events(log);
  scr.set_repair(repair);
  scr.set_rate(rate);

  std::vector<scrub::PassReport> passes;
  for (int i = 0; i < 3; ++i) {
    passes.push_back(scr.run_pass());
    if (!repair || passes.back().dirty == 0) break;
  }
  const scrub::ScrubStats st = scr.stats();
  const bool clean = migrator.verify_raid6();

  if (json) {
    std::printf("{\"p\": %d, \"groups\": %lld, \"injected\": %llu, "
                "\"repair\": %s, \"rate\": %d, \"passes\": [",
                p, static_cast<long long>(groups),
                static_cast<unsigned long long>(injected),
                repair ? "true" : "false", rate);
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const scrub::PassReport& r = passes[i];
      std::printf("%s{\"scanned\": %lld, \"dirty\": %lld, \"located\": %lld, "
                  "\"repaired\": %lld, \"ambiguous\": %lld, "
                  "\"deferred\": %lld, \"failed\": %lld}",
                  i == 0 ? "" : ", ", static_cast<long long>(r.scanned),
                  static_cast<long long>(r.dirty),
                  static_cast<long long>(r.located),
                  static_cast<long long>(r.repaired),
                  static_cast<long long>(r.ambiguous),
                  static_cast<long long>(r.deferred),
                  static_cast<long long>(r.failed));
    }
    std::printf("], \"cells_repaired\": %llu, \"repair_failures\": %llu, "
                "\"verify_raid6\": %s}\n",
                static_cast<unsigned long long>(st.cells_repaired),
                static_cast<unsigned long long>(st.repair_failures),
                clean ? "true" : "false");
    return 0;
  }

  std::printf("scrub demo: p=%d groups=%lld corruptions=%llu "
              "(1 write-time + %llu backdoor), repair=%s rate=%d\n",
              p, static_cast<long long>(groups),
              static_cast<unsigned long long>(injected),
              static_cast<unsigned long long>(injected - 1),
              repair ? "on" : "off", rate);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const scrub::PassReport& r = passes[i];
    std::printf("  pass %zu: scanned=%lld dirty=%lld located=%lld "
                "repaired=%lld ambiguous=%lld deferred=%lld failed=%lld\n",
                i + 1, static_cast<long long>(r.scanned),
                static_cast<long long>(r.dirty),
                static_cast<long long>(r.located),
                static_cast<long long>(r.repaired),
                static_cast<long long>(r.ambiguous),
                static_cast<long long>(r.deferred),
                static_cast<long long>(r.failed));
  }
  std::printf("  totals: repaired=%llu ambiguous=%llu repair_failures=%llu\n",
              static_cast<unsigned long long>(st.cells_repaired),
              static_cast<unsigned long long>(st.ambiguous),
              static_cast<unsigned long long>(st.repair_failures));
  std::printf("  verify_raid6: %s\n", clean ? "ok" : "DIRTY");
  return 0;
}

/// Shared flag parsing for the request-traced load commands (slow, top).
svc::LoadParams parse_load_params(int argc, char** argv,
                                  std::int64_t default_streams) {
  svc::LoadParams lp;
  lp.volumes = static_cast<int>(flag_value(argc, argv, "--volumes", 8));
  lp.tenants = static_cast<int>(flag_value(argc, argv, "--tenants", 8));
  lp.streams = flag_value(argc, argv, "--streams", default_streams);
  lp.requests_per_stream =
      static_cast<int>(flag_value(argc, argv, "--requests", 2));
  lp.block_bytes =
      static_cast<std::size_t>(flag_value(argc, argv, "--block", 512));
  lp.p = static_cast<int>(flag_value(argc, argv, "--p", 7));
  lp.read_fraction =
      static_cast<double>(flag_value(argc, argv, "--reads", 25)) / 100.0;
  lp.seed = 0xC56;
  return lp;
}

bool load_params_valid(const svc::LoadParams& lp) {
  return lp.volumes >= 1 && lp.tenants >= 1 && lp.streams >= 1 &&
         lp.requests_per_stream >= 1 && lp.block_bytes >= 16 &&
         lp.read_fraction >= 0 && lp.read_fraction <= 1;
}

int cmd_slow(int argc, char** argv) {
  const bool json = has_flag(argc, argv, "--json");
  const svc::LoadParams lp = parse_load_params(argc, argv, 5000);
  if (!load_params_valid(lp)) {
    std::fprintf(stderr,
                 "usage: c56cli slow [--volumes N] [--tenants N] "
                 "[--streams N] [--requests N] [--block BYTES] [--p PRIME] "
                 "[--shards N] [--batch N] [--reads PCT] [--n N] [--json]\n");
    return 2;
  }
  svc::ServiceConfig sc;
  sc.shards = static_cast<int>(flag_value(argc, argv, "--shards", 4));
  sc.max_batch = static_cast<int>(flag_value(argc, argv, "--batch", 256));

  obs::set_metrics_enabled(true);
  obs::set_req_trace_enabled(true);
  obs::SlowRequestRing& ring = obs::SlowRequestRing::global();
  ring.clear();

  obs::Registry reg;  // outlives the manager (volume collectors)
  svc::VolumeManager mgr(sc);
  svc::create_stream_volumes(mgr, lp);
  mgr.attach_metrics(reg);
  const svc::LoadStats st = svc::run_stream_load(mgr, lp);
  mgr.detach_metrics();
  mgr.stop();

  if (json) {
    std::printf("{\"requests\": %lld, \"wall_s\": %.4f, \"mbps\": %.2f, "
                "\"considered\": %llu, \"capacity\": %zu, "
                "\"slow_requests\": %s}\n",
                static_cast<long long>(st.requests), st.wall_s, st.mbps,
                static_cast<unsigned long long>(ring.considered()),
                ring.capacity(), ring.to_json().c_str());
    return st.errors == 0 ? 0 : 1;
  }

  const auto slow = ring.snapshot();
  const auto n = std::min<std::size_t>(
      slow.size(), static_cast<std::size_t>(std::max<long long>(
                       1, flag_value(argc, argv, "--n", 16))));
  std::printf("slow: %lld requests traced, slowest %zu of %llu "
              "(ring capacity %zu; override with C56_SLOW_N)\n",
              static_cast<long long>(st.requests), n,
              static_cast<unsigned long long>(ring.considered()),
              ring.capacity());
  std::printf("  %10s %6s %6s %11s %8s | %8s %8s %8s %8s %8s %8s\n", "trace",
              "tenant", "volume", "op", "lat_us", "queue", "sched", "batch",
              "planner", "device", "complete");
  for (std::size_t i = 0; i < n; ++i) {
    const obs::SlowRequest& r = slow[i];
    std::printf("  %10llu %6d %6d %11s %8llu |",
                static_cast<unsigned long long>(r.trace_id), r.tenant,
                r.volume, obs::req_op_name(r.op),
                static_cast<unsigned long long>(r.latency_us));
    for (int s = 0; s < obs::kStageCount; ++s) {
      std::printf(" %8llu", static_cast<unsigned long long>(r.stage_us[s]));
    }
    std::printf("\n");
  }
  return st.errors == 0 ? 0 : 1;
}

int cmd_top(int argc, char** argv) {
  const long long seconds = flag_value(argc, argv, "--seconds", 3);
  const long long interval_ms = flag_value(argc, argv, "--ms", 250);
  svc::LoadParams lp = parse_load_params(argc, argv, 10000);
  if (seconds < 1 || interval_ms < 10 || !load_params_valid(lp)) {
    std::fprintf(stderr,
                 "usage: c56cli top [--seconds N>=1] [--ms N>=10] "
                 "[--volumes N] [--tenants N] [--streams N] [--block BYTES] "
                 "[--p PRIME] [--shards N] [--reads PCT]\n");
    return 2;
  }
  svc::ServiceConfig sc;
  sc.shards = static_cast<int>(flag_value(argc, argv, "--shards", 4));

  obs::set_metrics_enabled(true);
  obs::set_req_trace_enabled(true);

  obs::Registry reg;
  svc::VolumeManager mgr(sc);
  svc::create_stream_volumes(mgr, lp);
  mgr.attach_metrics(reg);
  svc::SloTracker slo(mgr);
  slo.attach_metrics(reg);
  obs::MetricsSampler sampler(reg);
  sampler.set_interval_ms(interval_ms);
  sampler.add_probe(slo.probe());

  // The load loops complete passes in the background until the watch
  // window closes; each pass reseeds so the interleave varies.
  std::atomic<bool> stop{false};
  std::thread load([&] {
    std::uint64_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      svc::LoadParams pass = lp;
      pass.seed = lp.seed + ++round;
      svc::run_stream_load(mgr, pass);
    }
  });

  std::printf("top: %d volumes, %d tenants, %d shards, SLO p99 target "
              "%llu us (C56_SLO_P99_US)\n",
              lp.volumes, lp.tenants, sc.shards,
              static_cast<unsigned long long>(slo.config().target_p99_us));
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(seconds);
  sampler.sample_once();  // baseline for the first delta
  obs::Snapshot prev = sampler.samples().back().snap;
  std::uint64_t prev_us = sampler.samples().back().t_us;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    sampler.sample_once();
    const obs::MetricsSample cur = sampler.samples().back();
    const double dt = static_cast<double>(cur.t_us - prev_us) / 1e6;
    if (dt <= 0) continue;

    const auto counter_delta = [&](const std::string& name) -> std::uint64_t {
      const obs::Metric* c = cur.snap.find(name);
      const obs::Metric* p = prev.find(name);
      if (!c) return 0;
      const std::uint64_t was = p ? p->counter : 0;
      return c->counter > was ? c->counter - was : 0;
    };
    const double wall_s =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()) /
        1e3;
    const auto* inflight = cur.snap.find("service_inflight");
    std::printf("[t=%5.1fs] %8.0f req/s  inflight %lld\n", wall_s,
                static_cast<double>(counter_delta("service_completed")) / dt,
                static_cast<long long>(inflight ? inflight->gauge : 0));

    std::printf("  stage p99 us:");
    for (int s = 0; s < obs::kStageCount; ++s) {
      const std::string name =
          std::string("service_stage_") + obs::stage_name(s) + "_us";
      const obs::Metric* c = cur.snap.find(name);
      const obs::Metric* p = prev.find(name);
      double p99 = 0;
      if (c) p99 = (p ? c->hist.minus(p->hist) : c->hist).p99;
      std::printf("  %s %.0f", obs::stage_name(s), p99);
    }
    std::printf("\n");

    auto tenants = slo.snapshot();
    std::sort(tenants.begin(), tenants.end(),
              [](const auto& a, const auto& b) {
                return a.interval_count > b.interval_count;
              });
    for (std::size_t i = 0; i < tenants.size() && i < 4; ++i) {
      const auto& t = tenants[i];
      if (t.interval_count == 0) break;
      std::printf("  tenant %-3d %8.0f req/s  p99 %7.0f us  burn %.2fx\n",
                  t.tenant, static_cast<double>(t.interval_count) / dt,
                  t.interval_p99_us, t.burn_rate);
    }
    std::vector<std::pair<std::uint64_t, int>> vols;
    for (int v = 0; v < lp.volumes; ++v) {
      const std::uint64_t ops = counter_delta(
          "service_ops{volume=\"" + std::to_string(v) + "\"}");
      if (ops > 0) vols.emplace_back(ops, v);
    }
    std::sort(vols.rbegin(), vols.rend());
    for (std::size_t i = 0; i < vols.size() && i < 4; ++i) {
      std::printf("  volume %-3d %8.0f ops/s\n", vols[i].second,
                  static_cast<double>(vols[i].first) / dt);
    }
    prev = cur.snap;
    prev_us = cur.t_us;
  }

  stop.store(true, std::memory_order_relaxed);
  load.join();
  slo.detach_metrics();
  mgr.detach_metrics();
  mgr.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: c56cli <layout|chains|analyze|convert|speedup|"
                 "mttdl|stats|serve-bench|monitor|postmortem|scrub|slow|"
                 "top> ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  argc -= 2;
  argv += 2;
  if (cmd == "layout") return cmd_layout(argc, argv);
  if (cmd == "chains") return cmd_chains(argc, argv);
  if (cmd == "analyze") return cmd_analyze(argc, argv);
  if (cmd == "convert") return cmd_convert(argc, argv);
  if (cmd == "speedup") return cmd_speedup(argc, argv);
  if (cmd == "mttdl") return cmd_mttdl(argc, argv);
  if (cmd == "stats") return cmd_stats(argc, argv);
  if (cmd == "serve-bench") return cmd_serve_bench(argc, argv);
  if (cmd == "monitor") return cmd_monitor(argc, argv);
  if (cmd == "postmortem") return cmd_postmortem(argc, argv);
  if (cmd == "scrub") return cmd_scrub(argc, argv);
  if (cmd == "slow") return cmd_slow(argc, argv);
  if (cmd == "top") return cmd_top(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
