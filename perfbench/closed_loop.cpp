// Closed-loop workloads on controller volumes (Code 5-6, p = 7, 4 KiB):
//  * rand_4k: 16 volumes behind one 64-deep window, Zipf(0.99)
//    addresses, 70% 4 KiB reads / 15% 4 KiB writes / 15% 512 B
//    kWriteRange;
//  * seq_64k: 8 volumes, one sequential stream of 64 KiB requests per
//    volume with 4 in flight, 80% writes and 20% reads trailing the
//    writer.
// One client thread submits and waits. Each volume has one tenant, so
// the service's ordering contract makes the client's flat mirror the
// expected final contents of every volume.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "service/volume.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

// Two shards plus the client leave one of the 4 CPUs idle, which keeps
// run-to-run spread low (with three shards the closed loop's latency
// percentiles moved about 20% between identical runs).
constexpr int kShards = 2;
constexpr int kSetupReps = 3;
constexpr std::int64_t kSeqRun = 16;     // blocks per seq_64k request
constexpr std::size_t kReplayOps = 20000;
constexpr std::int64_t kWindowNs = 500'000'000;  // measurement window

struct Spec {
  int volumes;
  int window;              // requests outstanding per lane
  bool sequential;         // a lane per volume, else one shared lane
  std::int64_t lane_ops;   // pregenerated ops per lane, replayed cyclically
  std::int64_t warmup_ops;
  std::int64_t max_ops_per_s;  // sizes the latency sample storage
};
constexpr Spec kRand4k{16, 64, false, 1 << 20, 100000, 1'000'000};
constexpr Spec kSeq64k{8, 4, true, 1 << 14, 8000, 200'000};

struct Lane {
  std::vector<Op> ops;
  std::size_t next = 0;
};

struct Slot {
  int lane = 0;
  const Op* op = nullptr;
  std::int64_t t_issue = 0;
  std::vector<std::uint8_t> buf;  // read destination
};

/// Everything one set-up builds. The manager is declared last so it is
/// destroyed first, while the completion queue, slot buffers and
/// registry its shards may still touch are alive.
struct World {
  Completions done;
  obs::Registry reg;
  std::vector<std::uint8_t> pool;
  std::vector<Lane> lanes;
  std::vector<Slot> slots;
  std::vector<std::vector<std::uint8_t>> mirror;  // flat, per volume
  std::int64_t lb = 0;                            // blocks per volume
  std::unique_ptr<svc::VolumeManager> mgr;
};

std::vector<Op> gen_rand4k(Rng& rng, int volumes, std::int64_t lb,
                           std::int64_t n) {
  // Zipf(0.99) over every block of every volume. Rank r is block
  // r / volumes of volume r % volumes, so each volume's hot set is its
  // first stripes, which its stripe cache holds.
  const std::int64_t ranks = volumes * lb;
  std::vector<double> cdf(static_cast<std::size_t>(ranks));
  double total = 0;
  for (std::int64_t r = 0; r < ranks; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  std::vector<Op> ops(static_cast<std::size_t>(n));
  for (Op& op : ops) {
    const std::int64_t r = std::min<std::int64_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.next_double() * total) -
            cdf.begin(),
        ranks - 1);
    op.volume = static_cast<std::int32_t>(r % volumes);
    op.block = r / volumes;
    const double mix = rng.next_double();
    if (mix < 0.70) {
      op.kind = svc::OpKind::kRead;
      op.len = kBlock;
    } else if (mix < 0.85) {
      op.kind = svc::OpKind::kWrite;
      op.len = kBlock;
    } else {
      op.kind = svc::OpKind::kWriteRange;
      op.len = 512;
      op.offset = static_cast<std::uint32_t>(512 * rng.next_below(kBlock / 512));
    }
    if (!is_read(op)) {
      op.payload = static_cast<std::uint32_t>(rng.next_below(kPoolBytes));
    }
  }
  return ops;
}

std::vector<Op> gen_seq64k(Rng& rng, int volume, std::int64_t lb,
                           std::int64_t n) {
  const std::int64_t span = lb / kSeqRun * kSeqRun;
  std::int64_t w = static_cast<std::int64_t>(
                       rng.next_below(static_cast<std::uint64_t>(span / kSeqRun))) *
                   kSeqRun;
  std::vector<Op> ops(static_cast<std::size_t>(n));
  for (Op& op : ops) {
    op.volume = volume;
    op.count = kSeqRun;
    op.len = kSeqRun * kBlock;
    if (rng.next_double() < 0.8) {
      op.kind = svc::OpKind::kWrite;
      op.block = w;
      op.payload = static_cast<std::uint32_t>(rng.next_below(kPoolBytes));
      w = (w + kSeqRun) % span;
    } else {
      // Trail the writer by one to four requests: freshly written data.
      op.kind = svc::OpKind::kRead;
      op.block = (w + span - kSeqRun * static_cast<std::int64_t>(
                                            1 + rng.next_below(4))) %
                 span;
    }
  }
  return ops;
}

/// Submits the next op of the slot's lane; false when refused.
bool issue(World& w, SubmitProbe& probe, int s) {
  Slot& sl = w.slots[static_cast<std::size_t>(s)];
  Lane& lane = w.lanes[static_cast<std::size_t>(sl.lane)];
  const Op& op = lane.ops[lane.next];
  lane.next = (lane.next + 1) % lane.ops.size();
  svc::Request r;
  r.kind = op.kind;
  r.volume = op.volume;
  r.tenant = op.volume;
  r.logical = op.block;
  r.count = op.count;
  r.offset = op.offset;
  if (is_read(op)) {
    r.out = {sl.buf.data(), op.len};
  } else {
    r.in = {w.pool.data() + op.payload, op.len};
  }
  r.on_complete = [&done = w.done, s](const svc::Completion& c) {
    done.push({s, c.status, now_ns()});
  };
  sl.op = &op;
  sl.t_issue = now_ns();
  if (probe.submit(*w.mgr, std::move(r)) != svc::Status::kOk) return false;
  if (!is_read(op)) {
    std::memcpy(w.mirror[static_cast<std::size_t>(op.volume)].data() +
                    op.block * static_cast<std::int64_t>(kBlock) + op.offset,
                w.pool.data() + op.payload, op.len);
  }
  return true;
}

/// What the timed loop records. The run is cut into fixed windows, and
/// rates, CPU cost and latency percentiles are reported as medians over
/// the complete windows, so a burst of outside interference moves one
/// window rather than the result. With --trace 1 the run also
/// alternates plain and traced segments (odd ones traced), so one
/// process measures both sides of trace.overhead_frac.
struct Measure {
  Samples read_lat, write_lat;
  std::int64_t attempted = 0, failed = 0, ops = 0;
  std::uint64_t payload = 0, blocks = 0;
  std::int64_t t0 = 0;
  std::int64_t seg_ns = 0;  // 0: one plain segment
  std::uint64_t mode_payload[2] = {};
  std::int64_t mode_writes[2] = {};
  // Window state.
  std::int64_t win = 0;
  std::uint64_t win_payload = 0;
  double win_cpu0 = 0;
  std::vector<double> win_mb_per_s, win_cpu_ms_per_mb;

  /// Closes the current window once a completion lands in a later one;
  /// the partial window after the deadline is never closed.
  void advance_window(std::int64_t t) {
    const std::int64_t k = (t - t0) / kWindowNs;
    if (k == win) return;
    const double mib = static_cast<double>(win_payload) / kMiB;
    const double cpu = cpu_seconds();
    win_mb_per_s.push_back(mib * 1e9 / static_cast<double>(kWindowNs));
    win_cpu_ms_per_mb.push_back((cpu - win_cpu0) * 1e3 / mib);
    read_lat.mark();
    write_lat.mark();
    win = k;
    win_payload = 0;
    win_cpu0 = cpu;
  }
  int mode_at(std::int64_t t) const {
    return seg_ns ? static_cast<int>(((t - t0) / seg_ns) % 2) : 0;
  }
  double mode_seconds(int mode, std::int64_t t_end) const {
    if (!seg_ns) return mode == 0 ? static_cast<double>(t_end - t0) / 1e9 : 0;
    double s = 0;
    std::int64_t k = 0;
    for (std::int64_t a = t0; a < t_end; a += seg_ns, ++k) {
      if (k % 2 == mode) s += static_cast<double>(std::min(seg_ns, t_end - a));
    }
    return s / 1e9;
  }
  void record(const Slot& sl, const Done& d) {
    const Op& op = *sl.op;
    ++ops;
    if (d.status != svc::Status::kOk) {
      ++failed;
      return;
    }
    advance_window(d.t_ns);
    (is_read(op) ? read_lat : write_lat).add(d.t_ns - sl.t_issue);
    payload += op.len;
    win_payload += op.len;
    blocks += static_cast<std::uint64_t>(blocks_of(op));
    const int mode = mode_at(d.t_ns);
    mode_payload[mode] += op.len;
    if (!is_read(op)) ++mode_writes[mode];
  }
};

/// The closed loop: every slot keeps one request outstanding, reissuing
/// from its lane as it completes, until `max_ops` were issued (when
/// non-zero) or a completion lands past `deadline`. Returns the time of
/// the last completion.
std::int64_t drive(World& w, SubmitProbe& probe, Measure* m,
                   std::int64_t deadline, std::int64_t max_ops) {
  std::vector<Done> batch;
  batch.reserve(w.slots.size());
  std::int64_t issued = 0, outstanding = 0, t_last = now_ns();
  bool open = true;
  int mode = 0;
  const auto start = [&](int s) {
    if (!open) return;
    if (max_ops && ++issued >= max_ops) open = false;
    if (m) ++m->attempted;
    if (issue(w, probe, s)) {
      ++outstanding;
    } else if (m) {
      ++m->failed;
    }
  };
  for (int s = 0; s < static_cast<int>(w.slots.size()); ++s) start(s);
  while (outstanding > 0) {
    w.done.take(batch);
    for (const Done& d : batch) {
      --outstanding;
      t_last = std::max(t_last, d.t_ns);
      if (m) m->record(w.slots[static_cast<std::size_t>(d.slot)], d);
      if (d.t_ns >= deadline) open = false;
      start(d.slot);
    }
    if (m && m->seg_ns) {
      if (const int now_mode = m->mode_at(now_ns()); now_mode != mode) {
        mode = now_mode;
        arm_program_obs(mode == 1);
        probe.armed = mode == 1;
      }
    }
  }
  return t_last;
}

/// Writes every block of every volume once, in stripe-sized requests.
void prefill(World& w, Rng& rng) {
  constexpr std::int64_t kRun = 30;  // data blocks of one stripe
  for (std::size_t v = 0; v < w.mirror.size(); ++v) {
    for (std::int64_t l = 0; l < w.lb; l += kRun) {
      const std::int64_t n = std::min(kRun, w.lb - l);
      const auto len = static_cast<std::size_t>(n) * kBlock;
      const std::uint8_t* src = w.pool.data() + rng.next_below(kPoolBytes);
      svc::Request r;
      r.kind = svc::OpKind::kWrite;
      r.volume = static_cast<svc::VolumeId>(v);
      r.tenant = r.volume;
      r.logical = l;
      r.count = n;
      r.in = {src, len};
      if (w.mgr->submit(std::move(r)) != svc::Status::kOk) {
        throw std::runtime_error("prefill write refused");
      }
      std::memcpy(w.mirror[v].data() + l * static_cast<std::int64_t>(kBlock),
                  src, len);
    }
  }
  w.mgr->drain();
}

std::unique_ptr<World> build(const Spec& spec, const Options& opt,
                             SubmitProbe& probe) {
  auto w = std::make_unique<World>();
  Rng rng(opt.seed);
  w->pool = make_pool(opt.seed);
  svc::ServiceConfig sc;
  sc.shards = kShards;
  w->mgr = std::make_unique<svc::VolumeManager>(sc);
  for (int v = 0; v < spec.volumes; ++v) w->mgr->create_volume(volume_config(v));
  w->lb = w->mgr->volume(0)->logical_blocks();
  w->mirror.assign(static_cast<std::size_t>(spec.volumes),
                   std::vector<std::uint8_t>(
                       static_cast<std::size_t>(w->lb) * kBlock));
  if (spec.sequential) {
    for (int v = 0; v < spec.volumes; ++v) {
      w->lanes.push_back({gen_seq64k(rng, v, w->lb, spec.lane_ops)});
    }
  } else {
    w->lanes.push_back({gen_rand4k(rng, spec.volumes, w->lb, spec.lane_ops)});
  }
  const std::size_t buf = (spec.sequential ? kSeqRun : 1) * kBlock;
  for (std::size_t lane = 0; lane < w->lanes.size(); ++lane) {
    for (int i = 0; i < spec.window; ++i) {
      Slot sl;
      sl.lane = static_cast<int>(lane);
      sl.buf.resize(buf);
      w->slots.push_back(std::move(sl));
    }
  }
  prefill(*w, rng);
  drive(*w, probe, nullptr, INT64_MAX, spec.warmup_ops);
  return w;
}

/// The output check: reads every block of every volume (or of volume
/// `only`) back through the service, compares it with the mirror, and
/// scrubs the volume. Returns mismatched blocks plus inconsistent stripes.
std::int64_t check(World& w, int only = -1) {
  constexpr std::int64_t kChunk = 64;
  std::vector<std::uint8_t> got(static_cast<std::size_t>(w.lb) * kBlock);
  std::int64_t bad = 0;
  for (std::size_t v = 0; v < w.mirror.size(); ++v) {
    if (only >= 0 && v != static_cast<std::size_t>(only)) continue;
    std::atomic<std::int64_t> errors{0};
    for (std::int64_t l = 0; l < w.lb; l += kChunk) {
      const std::int64_t n = std::min(kChunk, w.lb - l);
      svc::Request r;
      r.kind = svc::OpKind::kRead;
      r.volume = static_cast<svc::VolumeId>(v);
      r.tenant = r.volume;
      r.logical = l;
      r.count = n;
      r.out = {got.data() + l * static_cast<std::int64_t>(kBlock),
               static_cast<std::size_t>(n) * kBlock};
      r.on_complete = [&errors](const svc::Completion& c) {
        if (c.status != svc::Status::kOk) errors.fetch_add(1);
      };
      if (w.mgr->submit(std::move(r)) != svc::Status::kOk) ++bad;
    }
    w.mgr->drain();
    bad += errors.load();
    for (std::int64_t b = 0; b < w.lb; ++b) {
      const auto off = static_cast<std::size_t>(b) * kBlock;
      if (std::memcmp(got.data() + off, w.mirror[v].data() + off, kBlock) !=
          0) {
        ++bad;
      }
    }
    bad += static_cast<std::int64_t>(
        w.mgr->volume(static_cast<svc::VolumeId>(v))->controller()->scrub().size());
  }
  return bad;
}

/// Always-on counters of every volume, summed.
struct Counters {
  double ios = 0, read_bytes = 0, write_bytes = 0, runs = 0;
  double hits = 0, misses = 0, evictions = 0, coalesced = 0;
  double full = 0, partial = 0, direct = 0, rmw = 0, subwrites = 0, deltas = 0;
};

Counters counters(World& w) {
  Counters c;
  for (int v = 0; v < w.mgr->volumes(); ++v) {
    svc::Volume& vol = *w.mgr->volume(v);
    const mig::DiskArray& a = vol.array();
    c.ios += static_cast<double>(a.total_reads() + a.total_writes());
    c.read_bytes += static_cast<double>(a.total_read_bytes());
    c.write_bytes += static_cast<double>(a.total_write_bytes());
    c.runs += static_cast<double>(a.total_read_runs() + a.total_write_runs());
    c.coalesced += static_cast<double>(vol.coalesced_runs());
    const auto cs = vol.controller()->cache_stats();
    c.hits += static_cast<double>(cs.hits);
    c.misses += static_cast<double>(cs.misses);
    c.evictions += static_cast<double>(cs.evictions);
    const auto pc = vol.controller()->planner_counters();
    c.full += static_cast<double>(pc.full_stripe_writes);
    c.partial += static_cast<double>(pc.partial_stripe_writes);
    c.direct += static_cast<double>(pc.direct_parities);
    c.rmw += static_cast<double>(pc.rmw_parities);
    c.subwrites += static_cast<double>(pc.subblock_writes);
    c.deltas += static_cast<double>(pc.delta_parities);
  }
  return c;
}

}  // namespace

Outcome run_closed_loop(const Options& opt, obs::TraceRecorder& spans) {
  const Spec& spec = opt.workload == "seq_64k" ? kSeq64k : kRand4k;
  SubmitProbe probe;
  probe.spans = &spans;
  std::vector<double> setup;
  std::unique_ptr<World> w;
  for (int i = 0; i < kSetupReps; ++i) {
    w.reset();
    const std::int64_t t0 = now_ns();
    w = build(spec, opt, probe);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  if (opt.trace) w->mgr->attach_metrics(w->reg);

  Measure m;
  // A fixed size, not one scaled by the warm-up's pace, keeps rss_mb
  // independent of timing.
  const auto est = static_cast<std::size_t>(spec.max_ops_per_s * opt.seconds);
  m.read_lat.reserve(est);
  m.write_lat.reserve(est);
  if (opt.trace) m.seg_ns = opt.seconds * 1'000'000'000LL / std::max(2, opt.seconds);
  const Counters c0 = counters(*w);
  m.win_cpu0 = cpu_seconds();
  m.t0 = now_ns();
  const std::int64_t t_end = drive(
      *w, probe, &m, m.t0 + opt.seconds * 1'000'000'000LL, 0);
  arm_program_obs(false);
  probe.armed = false;
  const Counters c1 = counters(*w);
  const double secs = static_cast<double>(t_end - m.t0) / 1e9;
  const auto ops = static_cast<double>(m.ops);

  Outcome out;
  out.attempted = m.attempted;
  out.failed = m.failed;
  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = median(setup);
    e.rss_mb = peak_rss_mb();
    e.read_p50_us = m.read_lat.window_quantile_us(0.5);
    e.read_p90_us = m.read_lat.window_quantile_us(0.9);
    e.write_p50_us = m.write_lat.window_quantile_us(0.5);
    e.write_p90_us = m.write_lat.window_quantile_us(0.9);
    e.ok_frac = ratio(static_cast<double>(m.attempted - m.failed),
                      static_cast<double>(m.attempted));
    e.mb_per_s = median(m.win_mb_per_s);
    e.cpu_ms_per_mb = median(m.win_cpu_ms_per_mb);
    e.ios_per_blk = ratio(c1.ios - c0.ios, static_cast<double>(m.blocks));
    e.bytes_per_byte = ratio(c1.read_bytes + c1.write_bytes - c0.read_bytes -
                                 c0.write_bytes,
                             static_cast<double>(m.payload));
    e.emit(out.metrics);
  } else {
    SnapAcc acc;
    acc.add(w->reg.snapshot());
    const auto traced_writes = static_cast<double>(m.mode_writes[1]);
    Layers l;
    service_layers(acc, probe, false, l);
    l.coalesced_runs_per_op = ratio(c1.coalesced - c0.coalesced, ops);
    // Planner counters count only while the trace is armed.
    l.delta_parities_per_subwrite =
        ratio(c1.deltas - c0.deltas, c1.subwrites - c0.subwrites);
    l.full_stripe_frac = ratio(c1.full - c0.full,
                               c1.full - c0.full + c1.partial - c0.partial);
    l.rmw_parities_per_write = ratio(c1.rmw - c0.rmw, traced_writes);
    l.direct_parities_per_write = ratio(c1.direct - c0.direct, traced_writes);
    l.cache_hit_ratio = ratio(c1.hits - c0.hits,
                              c1.hits - c0.hits + c1.misses - c0.misses);
    l.cache_evictions_per_op = ratio(c1.evictions - c0.evictions, ops);
    l.runs_per_blk = ratio(c1.runs - c0.runs, static_cast<double>(m.blocks));
    l.read_bytes_per_op = ratio(c1.read_bytes - c0.read_bytes, ops);
    l.write_bytes_per_op = ratio(c1.write_bytes - c0.write_bytes, ops);
    const double plain = static_cast<double>(m.mode_payload[0]) /
                         m.mode_seconds(0, t_end);
    const double traced = static_cast<double>(m.mode_payload[1]) /
                          m.mode_seconds(1, t_end);
    l.overhead_frac = plain > 0 && traced > 0 ? 1 - traced / plain : 0;
    l.read_samples = static_cast<double>(m.read_lat.size());
    l.write_samples = static_cast<double>(m.write_lat.size());
    replay_controller(w->lanes[0].ops, kReplayOps, w->pool, spans, l);
    l.encode_us_per_stripe = encode_us_per_stripe();
    l.accumulate_gbps = accumulate_gbps();
    l.emit(out.metrics);
  }

  const std::int64_t bad = check(*w);
  // Self-test of the check: one flipped byte on disk must not pass.
  w->mgr->volume(0)->array().corrupt_block(0, 0);
  const bool caught = check(*w, 0) > 0;
  out.correct = bad == 0 && caught;
  std::fprintf(stderr,
               "%s: %.2f s, %lld ops, check: %lld bad blocks/stripes, "
               "planted corruption %s\n",
               opt.workload.c_str(), secs, static_cast<long long>(m.ops),
               static_cast<long long>(bad), caught ? "caught" : "MISSED");
  return out;
}

}  // namespace perfbench
