// Benchmark of the ArrayController's two I/O paths: the per-block
// read-modify-write pair (Table III's metric) versus the batched
// stripe-aware planner behind the ranged read/write API. Measures MB/s
// of logical payload and disk I/Os per block across sequential/random
// patterns, block/row/stripe-sized requests, healthy and degraded
// arrays, and with the write-through stripe cache off and on. Results
// print as tables and land in BENCH_controller.json.
//
// Two throughputs per workload: the in-memory wall clock (planner +
// memcpy cost; the array is RAM, so this is compute-bound), and a
// device-model throughput that prices the counted I/O through the
// sim DiskParams the repo uses everywhere else — every vectored run
// pays one head reposition (seek + avg rotation), every block pays
// transfer time. The run accounting is the point of the vectored
// DiskArray API: a full-stripe batched write lands as a handful of
// per-column runs where the per-block path issues 6 discrete RMW
// requests per block.
//
// The acceptance gate is the sequential full-stripe write, healthy,
// cache off: the batched path must not be slower in memory AND must be
// >= 3x on the device model. A second gate prices the observability
// layer in its shipped-default state: the same workload with a metrics
// registry AND an event log attached (both disabled), a metrics
// sampler constructed but never started, and an idle scrubber
// (constructed, metrics/events attached, never started) must stay
// within 2% of a detached controller — the whole layer is supposed to
// cost one predictable branch, and an idle scrubber nothing at all. A
// third gate prices stripe-cache churn: shuffled single-block reads
// over a 70-stripe Code 5-6 p = 7 array through a 16-stripe cache, so
// nearly every read misses and recycles a slot, must cost at most 4x
// the same reads with the cache off. A fourth pins the write planner's
// disk traffic: sequential 16-block writes over the same array, cache
// off and 16-stripe cache, may read no more blocks and must write
// exactly as many as pinned (measure_planner_io). A fifth pins what
// the stripe cache saves on skewed traffic: a Zipf(0.99) stream of
// single-block reads and writes through a 16-stripe cache may read no
// more blocks and must write exactly as many as pinned
// (measure_zipf_io). The process exits non-zero if any gate fails — CI
// runs this with --smoke as a perf regression tripwire. The report
// embeds a registry snapshot of the attached controller under
// "metrics_snapshot".

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "migration/disk_array.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "scrub/scrubber.hpp"
#include "sim/disk_model.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xorblk/buffer.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kP = 5;
constexpr std::size_t kBlock = 4096;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  bool sequential;        // request offsets: in order vs shuffled
  std::int64_t count;     // blocks per request
  const char* size_name;  // "block" | "row" | "stripe"
  bool degraded;          // one failed disk
  bool cached;            // stripe cache sized to hold the whole array
};

struct Measurement {
  double mbps;         // in-memory wall clock
  double device_mbps;  // counted I/O priced through sim::DiskParams
  double io_per_blk;   // discrete blocks transferred per payload block
  double runs_per_blk; // head repositions per payload block
};

/// Price a counted pass on the positional disk model: one reposition
/// (seek + average rotation) per vectored run, transfer at the
/// sustained rate for every block moved.
double device_model_mbps(std::uint64_t runs, std::uint64_t io_blocks,
                         std::size_t payload_bytes) {
  const c56::sim::DiskParams d;
  const double reposition_ms = d.avg_seek_ms + d.avg_rotational_ms();
  const double xfer_bytes_per_ms = d.transfer_mb_s * 1e3;
  const double ms = static_cast<double>(runs) * reposition_ms +
                    static_cast<double>(io_blocks) *
                        static_cast<double>(kBlock) / xfer_bytes_per_ms;
  return ms > 0 ? static_cast<double>(payload_bytes) / ms / 1e3 : 0;
}

class Bench {
 public:
  Bench(std::int64_t stripes, double min_seconds)
      : stripes_(stripes), min_seconds_(min_seconds) {}

  Measurement run_write(const Config& cfg, bool batched) {
    return run(cfg, batched, /*reads=*/false);
  }
  Measurement run_read(const Config& cfg, bool batched) {
    return run(cfg, batched, /*reads=*/true);
  }

 private:
  Measurement run(const Config& cfg, bool batched, bool reads) {
    auto code = c56::make_code(c56::CodeId::kCode56, kP);
    c56::mig::DiskArray array(code->cols(), stripes_ * code->rows(), kBlock);
    c56::mig::ArrayController ctrl(array, std::move(code));
    if (cfg.degraded) ctrl.fail_disk(1);
    if (cfg.cached) {
      ctrl.set_cache_stripes(static_cast<std::size_t>(stripes_));
    }
    const std::int64_t logical = ctrl.logical_blocks();
    const std::int64_t chunks = logical / cfg.count;
    const std::size_t bytes = static_cast<std::size_t>(logical) * kBlock;

    // A shuffled permutation of chunk offsets (every chunk exactly once)
    // keeps the byte accounting exact and avoids rewarding either path
    // for the idempotent-write shortcut on duplicate offsets.
    std::vector<std::int64_t> offs(static_cast<std::size_t>(chunks));
    for (std::int64_t i = 0; i < chunks; ++i) {
      offs[static_cast<std::size_t>(i)] = i * cfg.count;
    }
    c56::Rng rng(0xC56'0BE);
    if (!cfg.sequential) {
      for (std::size_t i = offs.size() - 1; i > 0; --i) {
        std::swap(offs[i], offs[rng.next_below(i + 1)]);
      }
    }

    // Two payloads, alternated per pass, so repeat passes always carry
    // a non-zero delta (the per-block path skips no-op writes).
    c56::Buffer pay_a(bytes), pay_b(bytes), out(bytes);
    rng.fill(pay_a.data(), bytes);
    rng.fill(pay_b.data(), bytes);

    int pass = 0;
    auto op = [&] {
      std::uint8_t* pay = (pass++ & 1) ? pay_b.data() : pay_a.data();
      for (std::int64_t off : offs) {
        const auto at = static_cast<std::size_t>(off) * kBlock;
        const auto len = static_cast<std::size_t>(cfg.count) * kBlock;
        if (reads) {
          if (batched) {
            ctrl.read(off, cfg.count, {out.data() + at, len});
          } else {
            for (std::int64_t k = 0; k < cfg.count; ++k) {
              ctrl.read(off + k, {out.data() + at + k * kBlock, kBlock});
            }
          }
        } else {
          if (batched) {
            ctrl.write(off, cfg.count, {pay + at, len});
          } else {
            for (std::int64_t k = 0; k < cfg.count; ++k) {
              ctrl.write(off + k, {pay + at + k * kBlock, kBlock});
            }
          }
        }
      }
    };

    op();  // warm up (reads also need a seeded array: pass 0 wrote it)
    const std::uint64_t r0 = array.total_reads();
    const std::uint64_t w0 = array.total_writes();
    const std::uint64_t rr0 = array.total_read_runs();
    const std::uint64_t wr0 = array.total_write_runs();
    op();  // counted pass for the per-block I/O cost
    const std::uint64_t io_blocks =
        array.total_reads() - r0 + array.total_writes() - w0;
    const std::uint64_t runs =
        array.total_read_runs() - rr0 + array.total_write_runs() - wr0;
    const auto touched = static_cast<double>(chunks * cfg.count);
    Measurement m;
    m.io_per_blk = static_cast<double>(io_blocks) / touched;
    m.runs_per_blk = static_cast<double>(runs) / touched;
    m.device_mbps = device_model_mbps(
        runs, io_blocks, static_cast<std::size_t>(chunks * cfg.count) * kBlock);

    std::size_t passes = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      op();
      ++passes;
      elapsed = seconds_since(t0);
    } while (elapsed < min_seconds_);
    m.mbps = static_cast<double>(bytes) * static_cast<double>(passes) /
             elapsed / 1e6;
    return m;
  }

  std::int64_t stripes_;
  double min_seconds_;
};

/// Observability-overhead gate: alternating (plain, attached) trials of
/// the sequential full-stripe batched write on one controller that
/// toggles the full layer in its shipped-default state: registry +
/// event log attached but disabled (one branch each on the hot path),
/// sampler constructed but never start()ed (inert by contract). The
/// MB/s shown are each side's best trial; the gate statistic is built
/// from grouped trials (see below). Also snapshots the attached
/// registry after one *enabled* pass so the embedded report carries
/// real values.
struct OverheadReport {
  double detached_mbps = 0;
  double disabled_mbps = 0;
  double ratio = 0;  // median over groups of disabled/detached ratios
  std::string snapshot_json;
};

OverheadReport measure_metrics_overhead(std::int64_t stripes, int groups,
                                        int passes_per_trial) {
  auto code = c56::make_code(c56::CodeId::kCode56, kP);
  const int disks = code->cols();
  const std::int64_t bpd = stripes * code->rows();
  c56::obs::Registry reg;  // declared first: must outlive the attachments
  c56::obs::EventLog log;
  c56::mig::DiskArray array(disks, bpd, kBlock);
  c56::mig::ArrayController ctrl(array, std::move(code));
  c56::obs::MetricsSampler sampler(reg);  // never started: inert
  c56::scrub::Scrubber scrubber(array, ctrl);  // never started: inert
  c56::obs::set_metrics_enabled(false);
  c56::obs::set_events_enabled(false);

  // One controller, one array: the two sides toggle the attachments on
  // the same memory, so page placement and cache luck cancel instead of
  // biasing whichever side happened to allocate better.
  const auto attach = [&] {
    ctrl.attach_metrics(reg);
    array.attach_metrics(reg);
    log.attach_metrics(reg);
    scrubber.attach_metrics(reg);
    ctrl.attach_events(log);
    scrubber.attach_events(log);
  };
  const auto detach = [&] {
    ctrl.detach_metrics();
    array.detach_metrics();
    log.detach_metrics();
    scrubber.detach_metrics();
    ctrl.detach_events();
    scrubber.detach_events();
  };

  const std::int64_t logical = ctrl.logical_blocks();
  const std::size_t bytes = static_cast<std::size_t>(logical) * kBlock;
  c56::Buffer pay_a(bytes), pay_b(bytes);
  c56::Rng rng(0xC56'0BE5);
  rng.fill(pay_a.data(), bytes);
  rng.fill(pay_b.data(), bytes);

  auto time_side = [&](bool attached) {
    if (attached) {
      attach();
    } else {
      detach();
    }
    const auto t0 = Clock::now();
    for (int p = 0; p < passes_per_trial; ++p) {
      ctrl.write(0, logical, {(p & 1) ? pay_b.data() : pay_a.data(), bytes});
    }
    return seconds_since(t0);
  };
  time_side(false);  // warm both sides up
  time_side(true);
  // Measuring a 2% bound on a machine that may be running other work
  // takes three layers of noise control: within a group the two sides
  // alternate and each keeps its minimum, so a descheduling spike voids
  // one trial instead of one side; a group's ratio pairs minima taken
  // close together in time, so slow drift (frequency scaling, a
  // neighbour's sustained burst) cancels in the quotient; and the gate
  // uses the median across groups, so one unlucky group cannot decide
  // it. Global min-vs-min alone was observed 2% off on a busy
  // single-core host.
  constexpr int kRunsPerGroup = 3;
  double best_plain = 1e300, best_attached = 1e300;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    double group_plain = 1e300, group_attached = 1e300;
    for (int t = 0; t < kRunsPerGroup; ++t) {
      group_plain = std::min(group_plain, time_side(false));
      group_attached = std::min(group_attached, time_side(true));
    }
    best_plain = std::min(best_plain, group_plain);
    best_attached = std::min(best_attached, group_attached);
    ratios.push_back(group_plain / group_attached);
  }
  std::sort(ratios.begin(), ratios.end());
  OverheadReport r;
  const auto total = static_cast<double>(bytes) * passes_per_trial;
  r.detached_mbps = total / best_plain / 1e6;
  r.disabled_mbps = total / best_attached / 1e6;
  r.ratio = ratios[ratios.size() / 2];

  // One enabled pass so the embedded snapshot is non-trivial (the
  // events_emitted counter picks up the rate-limited batched-write
  // debug events).
  detach();
  attach();
  c56::obs::set_metrics_enabled(true);
  c56::obs::set_events_enabled(true);
  ctrl.write(0, logical, {pay_a.data(), bytes});
  c56::obs::set_metrics_enabled(false);
  c56::obs::set_events_enabled(false);
  r.snapshot_json = reg.to_json();
  while (!r.snapshot_json.empty() && r.snapshot_json.back() == '\n') {
    r.snapshot_json.pop_back();
  }
  return r;
}

/// Cache-churn gate: one controller over a 70-stripe Code 5-6 p = 7
/// array serves the same shuffled single-block read order with a
/// 16-stripe cache and with the cache off, alternating trials on the
/// same memory. Each side keeps its fastest trial.
struct ChurnReport {
  double uncached_ns = 0;  // per read, cache off
  double cached_ns = 0;    // per read, 16-stripe cache
  double ratio = 0;        // cached_ns / uncached_ns
};

ChurnReport measure_cache_churn(int trials, int passes_per_trial) {
  constexpr int kChurnP = 7;
  constexpr std::int64_t kChurnStripes = 70;
  constexpr std::size_t kChurnCache = 16;
  auto code = c56::make_code(c56::CodeId::kCode56, kChurnP);
  c56::mig::DiskArray array(code->cols(), kChurnStripes * code->rows(),
                            kBlock);
  c56::mig::ArrayController ctrl(array, std::move(code));
  std::vector<std::int64_t> order(
      static_cast<std::size_t>(ctrl.logical_blocks()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }
  c56::Rng rng(0xC56'C4C4E);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  c56::Buffer out(kBlock);
  const auto time_side = [&](bool cached) {
    ctrl.set_cache_stripes(cached ? kChurnCache : 0);
    const auto t0 = Clock::now();
    for (int p = 0; p < passes_per_trial; ++p) {
      for (const std::int64_t l : order) ctrl.read(l, out.span());
    }
    return seconds_since(t0);
  };
  time_side(false);  // warm both sides up
  time_side(true);
  double best_plain = 1e300, best_cached = 1e300;
  for (int t = 0; t < trials; ++t) {
    best_plain = std::min(best_plain, time_side(false));
    best_cached = std::min(best_cached, time_side(true));
  }
  const double reads =
      static_cast<double>(order.size()) * passes_per_trial;
  ChurnReport r;
  r.uncached_ns = best_plain / reads * 1e9;
  r.cached_ns = best_cached / reads * 1e9;
  r.ratio = r.cached_ns / r.uncached_ns;
  return r;
}

/// Write-planner read gate: sequential 16-block write(l, 16, ...) calls
/// over a 70-stripe Code 5-6 p = 7 array (4 KiB blocks), one pass to
/// seed it and one counted pass with a different payload. The counted
/// pass writes 131 runs, 2096 blocks. The planner that only read-
/// modify-wrote read 3319 blocks (1.5835 per written block) with the
/// cache off and with a 16-stripe cache; reconstruct-write must keep
/// reads at or under the pins below and writes exactly at theirs.
struct PlannerIo {
  std::uint64_t blocks = 0;  // written by the counted pass
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double per(std::uint64_t n) const {
    return static_cast<double>(n) / static_cast<double>(blocks);
  }
};

constexpr std::uint64_t kPlannerReadsCacheOff = 2571;  // 1.2266 per block
constexpr std::uint64_t kPlannerReadsCacheOn = 1561;   // 0.7448 per block
constexpr std::uint64_t kPlannerWrites = 3634;         // 1.7338 per block

PlannerIo measure_planner_io(std::size_t cache_stripes) {
  constexpr int kGateP = 7;
  constexpr std::int64_t kGateStripes = 70;
  constexpr std::int64_t kRun = 16;
  auto code = c56::make_code(c56::CodeId::kCode56, kGateP);
  c56::mig::DiskArray array(code->cols(), kGateStripes * code->rows(),
                            kBlock);
  c56::mig::ArrayController ctrl(array, std::move(code));
  ctrl.set_cache_stripes(cache_stripes);
  const std::int64_t runs = ctrl.logical_blocks() / kRun;
  const std::size_t len = static_cast<std::size_t>(kRun) * kBlock;
  c56::Buffer pay(static_cast<std::size_t>(runs) * len);
  c56::Rng rng(0xC56'5EC);
  const auto pass = [&] {
    rng.fill(pay.data(), pay.size());
    for (std::int64_t r = 0; r < runs; ++r) {
      ctrl.write(r * kRun, kRun,
                 {pay.data() + static_cast<std::size_t>(r) * len, len});
    }
  };
  pass();
  const std::uint64_t r0 = array.total_reads();
  const std::uint64_t w0 = array.total_writes();
  pass();
  return {static_cast<std::uint64_t>(runs * kRun), array.total_reads() - r0,
          array.total_writes() - w0};
}

/// Cache-read gate: a seeded Zipf(0.99) stream of single-block requests
/// mixed like perfbench's rand_4k (70% 4 KiB reads, 15% 4 KiB writes,
/// 15% 512 B write_range) over one Code 5-6 p = 7 controller, 4 KiB
/// blocks, 70 stripes, 16-stripe cache. Rank r is logical block r, so
/// the hot set is the first stripes. A prefill writes every block once
/// with the cache off; then 200,000 counted requests run from an empty
/// cache. Plain LRU, which let every one-off miss push out a hot
/// stripe, read 211,047 blocks (1.0552 per request, hit ratio 0.5404).
/// Insertion at the cold end must keep reads at or under the pin, and
/// writes exactly at theirs: the cache saves reads only.
struct ZipfIo {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double hit_ratio = 0;
  double per(std::uint64_t n) const {
    return static_cast<double>(n) / static_cast<double>(ops);
  }
};

constexpr std::uint64_t kZipfOps = 200000;
constexpr std::uint64_t kZipfReads = 168678;   // 0.8434 per request
constexpr std::uint64_t kZipfWrites = 178698;  // 0.8935 per request

ZipfIo measure_zipf_io() {
  constexpr int kGateP = 7;
  constexpr std::int64_t kGateStripes = 70;
  constexpr std::size_t kGateCache = 16;
  auto code = c56::make_code(c56::CodeId::kCode56, kGateP);
  c56::mig::DiskArray array(code->cols(), kGateStripes * code->rows(),
                            kBlock);
  c56::mig::ArrayController ctrl(array, std::move(code));
  const std::int64_t blocks = ctrl.logical_blocks();
  std::vector<double> cdf(static_cast<std::size_t>(blocks));
  double total = 0;
  for (std::int64_t r = 0; r < blocks; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  c56::Rng rng(9001);
  c56::Buffer pay(kBlock), out(kBlock);
  for (std::int64_t l = 0; l < blocks; ++l) {
    rng.fill(pay.data(), kBlock);
    ctrl.write(l, pay.span());
  }
  ctrl.set_cache_stripes(kGateCache);
  const auto s0 = ctrl.cache_stats();
  const std::uint64_t r0 = array.total_reads();
  const std::uint64_t w0 = array.total_writes();
  for (std::uint64_t i = 0; i < kZipfOps; ++i) {
    const std::int64_t l = std::min<std::int64_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.next_double() * total) -
            cdf.begin(),
        blocks - 1);
    const double mix = rng.next_double();
    if (mix < 0.70) {
      ctrl.read(l, out.span());
    } else if (mix < 0.85) {
      rng.fill(pay.data(), kBlock);
      ctrl.write(l, pay.span());
    } else {
      const auto off = static_cast<std::int64_t>(512 * rng.next_below(8));
      rng.fill(pay.data(), 512);
      ctrl.write_range(l, off, pay.span().subspan(0, 512));
    }
  }
  const auto s1 = ctrl.cache_stats();
  const std::uint64_t hits = s1.hits - s0.hits;
  const std::uint64_t looks = hits + s1.misses - s0.misses;
  return {kZipfOps, array.total_reads() - r0, array.total_writes() - w0,
          looks ? static_cast<double>(hits) / static_cast<double>(looks) : 0};
}

std::string flags(const Config& c) {
  std::string s = c.degraded ? "degraded" : "healthy";
  s += c.cached ? "+cache" : "";
  return s;
}

void json_side(std::ostringstream& json, const char* name,
               const Measurement& m) {
  json << "\"" << name << "\": {\"mbps\": " << m.mbps
       << ", \"device_mbps\": " << m.device_mbps
       << ", \"io_per_block\": " << m.io_per_blk
       << ", \"runs_per_block\": " << m.runs_per_blk << "}";
}

void json_entry(std::ostringstream& json, const char* kind, const Config& c,
                const Measurement& pb, const Measurement& ba, bool last) {
  json << "    {\"op\": \"" << kind << "\", \"pattern\": \""
       << (c.sequential ? "seq" : "rand") << "\", \"size\": \"" << c.size_name
       << "\", \"count\": " << c.count << ", \"degraded\": "
       << (c.degraded ? "true" : "false") << ", \"cache\": "
       << (c.cached ? "true" : "false") << ",\n     ";
  json_side(json, "per_block", pb);
  json << ",\n     ";
  json_side(json, "batched", ba);
  json << ",\n     \"mem_speedup\": " << (pb.mbps > 0 ? ba.mbps / pb.mbps : 0)
       << ", \"device_speedup\": "
       << (pb.device_mbps > 0 ? ba.device_mbps / pb.device_mbps : 0) << "}"
       << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::int64_t stripes = smoke ? 64 : 256;
  const double min_seconds = smoke ? 0.02 : 0.2;
  Bench bench(stripes, min_seconds);

  // Request sizes for Code 5-6 at p=5: one block, one row of data cells
  // (the planner's full-row direct-parity case), one full stripe.
  auto code = c56::make_code(c56::CodeId::kCode56, kP);
  const auto per_stripe = static_cast<std::int64_t>(code->data_cell_count());
  const std::int64_t row_cells = per_stripe / code->rows();
  code.reset();

  const std::vector<Config> write_cfgs = {
      {true, 1, "block", false, false},
      {true, row_cells, "row", false, false},
      {true, per_stripe, "stripe", false, false},
      {false, 1, "block", false, false},
      {false, row_cells, "row", false, false},
      {false, per_stripe, "stripe", false, false},
      {true, 1, "block", true, false},
      {true, per_stripe, "stripe", true, false},
      {true, 1, "block", false, true},
      {true, per_stripe, "stripe", false, true},
  };
  const std::vector<Config> read_cfgs = {
      {true, per_stripe, "stripe", false, false},
      {true, per_stripe, "stripe", false, true},
      {false, 1, "block", true, false},
  };

  std::printf(
      "Controller I/O paths: per-block RMW vs batched stripe-aware "
      "planner\np=%d (Code 5-6), %lld stripes, %zu B blocks, in-memory "
      "array%s\n\n",
      kP, static_cast<long long>(stripes), kBlock, smoke ? " [smoke]" : "");

  std::ostringstream json;
  json << "{\n  \"p\": " << kP << ",\n  \"stripes\": " << stripes
       << ",\n  \"block_bytes\": " << kBlock << ",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"workloads\": [\n";

  c56::TextTable t({"op", "pattern", "size", "state", "per-blk MB/s",
                    "batched MB/s", "mem x", "dev x", "IO/blk pb",
                    "IO/blk ba"});
  Measurement gate_pb{}, gate_ba{};
  auto add_row = [&](const char* kind, const Config& c, const Measurement& pb,
                     const Measurement& ba) {
    t.add_row({kind, c.sequential ? "seq" : "rand", c.size_name, flags(c),
               c56::TextTable::fmt(pb.mbps, 1), c56::TextTable::fmt(ba.mbps, 1),
               c56::TextTable::fmt(pb.mbps > 0 ? ba.mbps / pb.mbps : 0, 2),
               c56::TextTable::fmt(
                   pb.device_mbps > 0 ? ba.device_mbps / pb.device_mbps : 0, 2),
               c56::TextTable::fmt(pb.io_per_blk, 2),
               c56::TextTable::fmt(ba.io_per_blk, 2)});
  };
  for (std::size_t i = 0; i < write_cfgs.size(); ++i) {
    const Config& c = write_cfgs[i];
    const Measurement pb = bench.run_write(c, /*batched=*/false);
    const Measurement ba = bench.run_write(c, /*batched=*/true);
    if (c.sequential && c.count == per_stripe && !c.degraded && !c.cached) {
      gate_pb = pb;
      gate_ba = ba;
    }
    add_row("write", c, pb, ba);
    json_entry(json, "write", c, pb, ba, false);
  }
  for (std::size_t i = 0; i < read_cfgs.size(); ++i) {
    const Config& c = read_cfgs[i];
    const Measurement pb = bench.run_read(c, /*batched=*/false);
    const Measurement ba = bench.run_read(c, /*batched=*/true);
    add_row("read", c, pb, ba);
    json_entry(json, "read", c, pb, ba, i + 1 == read_cfgs.size());
  }
  std::ostringstream table_out;
  t.print(table_out);
  std::fputs(table_out.str().c_str(), stdout);

  const double mem_speedup =
      gate_pb.mbps > 0 ? gate_ba.mbps / gate_pb.mbps : 0;
  const double dev_speedup =
      gate_pb.device_mbps > 0 ? gate_ba.device_mbps / gate_pb.device_mbps : 0;
  const bool pass = gate_ba.mbps > gate_pb.mbps && dev_speedup >= 3.0;

  // Odd group counts keep the median an actual sample. The true ratio
  // is ~1.0 (one branch), so a genuine hot-path regression fails every
  // attempt — only scheduler noise benefits from the retries, which is
  // exactly what a perf tripwire should forgive.
  OverheadReport ov = measure_metrics_overhead(stripes, smoke ? 5 : 7, 16);
  for (int attempt = 1; attempt < 3 && ov.ratio < 0.98; ++attempt) {
    std::printf("observability overhead ratio %.3f below gate; remeasuring "
                "(%d/2 retries)\n", ov.ratio, attempt);
    const OverheadReport again =
        measure_metrics_overhead(stripes, smoke ? 5 : 7, 16);
    if (again.ratio > ov.ratio) ov = again;
  }
  const bool ov_pass = ov.ratio >= 0.98;

  const ChurnReport churn = measure_cache_churn(smoke ? 5 : 15, 8);

  const PlannerIo io_off = measure_planner_io(0);
  const PlannerIo io_on = measure_planner_io(16);
  const bool io_pass = io_off.reads <= kPlannerReadsCacheOff &&
                       io_on.reads <= kPlannerReadsCacheOn &&
                       io_off.writes == kPlannerWrites &&
                       io_on.writes == kPlannerWrites;
  const bool churn_pass = churn.ratio <= 4.0;
  const ZipfIo zipf = measure_zipf_io();
  const bool zipf_pass =
      zipf.reads <= kZipfReads && zipf.writes == kZipfWrites;

  json << "  ],\n  \"gate\": {\"workload\": \"seq full-stripe write, "
          "healthy, cache off\", \"per_block_mbps\": "
       << gate_pb.mbps << ", \"batched_mbps\": " << gate_ba.mbps
       << ", \"mem_speedup\": " << mem_speedup
       << ", \"per_block_device_mbps\": " << gate_pb.device_mbps
       << ", \"batched_device_mbps\": " << gate_ba.device_mbps
       << ", \"device_speedup\": " << dev_speedup
       << ", \"criteria\": \"batched >= per-block in memory and >= 3x on "
          "the device model\", \"pass\": "
       << (pass ? "true" : "false") << "},\n"
       << "  \"metrics_overhead\": {\"workload\": \"seq full-stripe "
          "batched write\", \"detached_mbps\": "
       << ov.detached_mbps << ", \"disabled_mbps\": " << ov.disabled_mbps
       << ", \"ratio\": " << ov.ratio
       << ", \"criteria\": \"registry + event log attached (disabled) + "
          "unarmed sampler >= 0.98x detached\", \"pass\": "
       << (ov_pass ? "true" : "false") << "},\n"
       << "  \"cache_churn\": {\"workload\": \"shuffled single-block reads, "
          "Code 5-6 p = 7, 70 stripes\", \"uncached_ns_per_read\": "
       << churn.uncached_ns
       << ", \"cached_ns_per_read\": " << churn.cached_ns
       << ", \"ratio\": " << churn.ratio
       << ", \"criteria\": \"16-stripe cache <= 4x cache off per read\", "
          "\"pass\": "
       << (churn_pass ? "true" : "false") << "},\n"
       << "  \"planner_io\": {\"workload\": \"sequential 16-block writes, "
          "Code 5-6 p = 7, 70 stripes\", \"written_blocks\": "
       << io_off.blocks << ", \"reads_cache_off\": " << io_off.reads
       << ", \"reads_cache_16\": " << io_on.reads
       << ", \"writes_cache_off\": " << io_off.writes
       << ", \"writes_cache_16\": " << io_on.writes
       << ", \"criteria\": \"reads <= " << kPlannerReadsCacheOff << " / "
       << kPlannerReadsCacheOn << ", writes == " << kPlannerWrites
       << "\", \"pass\": " << (io_pass ? "true" : "false") << "},\n"
       << "  \"cache_reads\": {\"workload\": \"Zipf(0.99) single-block "
          "reads/writes/512 B write_range, Code 5-6 p = 7, 70 stripes, "
          "16-stripe cache\", \"requests\": "
       << zipf.ops << ", \"hit_ratio\": " << zipf.hit_ratio
       << ", \"reads\": " << zipf.reads << ", \"writes\": " << zipf.writes
       << ", \"criteria\": \"reads <= " << kZipfReads << ", writes == "
       << kZipfWrites << "\", \"pass\": " << (zipf_pass ? "true" : "false")
       << "},\n"
       << "  \"metrics_snapshot\": " << ov.snapshot_json << "\n}\n";

  std::printf(
      "\nsequential full-stripe write: in-memory %.1f -> %.1f MB/s "
      "(%.2fx), device model %.1f -> %.1f MB/s (%.2fx) -> %s\n",
      gate_pb.mbps, gate_ba.mbps, mem_speedup, gate_pb.device_mbps,
      gate_ba.device_mbps, dev_speedup, pass ? "PASS" : "FAIL");
  std::printf(
      "observability overhead (disabled registry + event log, unarmed "
      "sampler): %.1f -> %.1f MB/s (%.3fx, need >= 0.98) -> %s\n",
      ov.detached_mbps, ov.disabled_mbps, ov.ratio,
      ov_pass ? "PASS" : "FAIL");
  std::printf(
      "cache churn (shuffled single-block reads, p = 7, 70 stripes): cache "
      "off %.0f ns/read, 16-stripe cache %.0f ns/read (%.2fx, need <= 4) "
      "-> %s\n",
      churn.uncached_ns, churn.cached_ns, churn.ratio,
      churn_pass ? "PASS" : "FAIL");

  std::printf(
      "write planner (sequential 16-block writes, p = 7, 70 stripes): reads "
      "per written block %.4f cache off (need <= %.4f), %.4f 16-stripe "
      "cache (need <= %.4f); writes %.4f / %.4f (need %.4f) -> %s\n",
      io_off.per(io_off.reads), io_off.per(kPlannerReadsCacheOff),
      io_on.per(io_on.reads), io_on.per(kPlannerReadsCacheOn),
      io_off.per(io_off.writes), io_on.per(io_on.writes),
      io_off.per(kPlannerWrites), io_pass ? "PASS" : "FAIL");
  std::printf(
      "cache reads (Zipf(0.99) single-block requests, p = 7, 70 stripes, "
      "16-stripe cache): hit ratio %.4f, disk reads per request %.4f (need "
      "<= %.4f), writes %.4f (need %.4f) -> %s\n",
      zipf.hit_ratio, zipf.per(zipf.reads), zipf.per(kZipfReads),
      zipf.per(zipf.writes), zipf.per(kZipfWrites),
      zipf_pass ? "PASS" : "FAIL");

  if (FILE* f = std::fopen("BENCH_controller.json", "w")) {
    std::fputs(json.str().c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_controller.json\n");
  }
  return pass && ov_pass && churn_pass && io_pass && zipf_pass ? 0 : 1;
}
