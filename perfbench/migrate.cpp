// The migrate workload: RAID-5 -> Code 5-6 conversion under load. Each
// round builds a fresh manager with two zero-filled RAID-5 volumes
// (p = 7, 4 KiB blocks), starts their conversions with one worker each,
// and offers an open-loop stream of 4 KiB reads and writes (70/30) at a
// fixed rate until both are done. Latency runs from when each op was
// due, so a stall also charges every op scheduled behind it. A round
// ends with verify_raid6() on both volumes and a read-back of every
// block it wrote. One 60 MiB conversion takes tens of milliseconds, so
// a run is many rounds.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "migration/online.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kVolumes = 2;
constexpr std::int64_t kGroups = 256;  // per volume: 7680 data blocks, 30 MiB
constexpr std::int64_t kBlocks = kGroups * (kP - 1) * (kP - 2);
constexpr double kRate = 8000;  // offered foreground ops/s; sustained
constexpr int kSlots = 1024;    // cap on open-loop requests in flight
constexpr std::int64_t kStreamOps = 1 << 16;
constexpr int kSetupReps = 5;  // a set-up is short; more reps steady its median
constexpr std::size_t kReplayOps = 20000;
constexpr std::int64_t kWindowNs = 1'000'000'000;  // measurement window

struct Slot {
  const Op* op = nullptr;
  std::int64_t t_due = 0;
  std::vector<std::uint8_t> buf;  // read destination
};

/// Client state that lives across rounds.
struct Client {
  Completions done;  // outlives every round's manager
  std::vector<std::uint8_t> pool;
  std::vector<Op> ops;
  std::size_t next = 0;
  std::vector<Slot> slots;
  std::vector<int> free;
  std::vector<Done> batch;
};

std::unique_ptr<Client> make_client(std::uint64_t seed) {
  auto c = std::make_unique<Client>();
  c->pool = make_pool(seed);
  Rng rng(seed);
  c->ops.resize(kStreamOps);
  for (Op& op : c->ops) {
    op.volume = static_cast<std::int32_t>(rng.next_below(kVolumes));
    op.block = static_cast<std::int64_t>(rng.next_below(kBlocks));
    op.len = kBlock;
    if (rng.next_double() < 0.7) {
      op.kind = svc::OpKind::kRead;
    } else {
      op.kind = svc::OpKind::kWrite;
      op.payload = static_cast<std::uint32_t>(rng.next_below(kPoolBytes));
    }
  }
  c->slots.resize(kSlots);
  for (int s = 0; s < kSlots; ++s) {
    c->slots[static_cast<std::size_t>(s)].buf.resize(kBlock);
    c->free.push_back(s);
  }
  c->batch.reserve(kSlots);
  return c;
}

/// What measured rounds record.
struct Tally {
  Samples read_lat, write_lat, lateness;
  std::int64_t attempted = 0, failed = 0, ops = 0, writes = 0;
  double conv_s = 0, cpu_s = 0, conv_blocks = 0;
  double conv_ios = 0, conv_bytes = 0, app_ios = 0, interruptions = 0;
  double runs = 0, read_bytes = 0, write_bytes = 0;
  std::vector<double> round_ms, start_ms;
  double mode_blocks[2] = {}, mode_s[2] = {};
  SnapAcc acc;
  // Per-round conversion rate and CPU cost.
  std::vector<double> round_mb_per_s, round_cpu_ms_per_mb;
};

/// Retires completed requests (waiting for one when `wait`), recording
/// them into `t` when the round is measured.
void collect(Client& c, Tally* t, bool wait) {
  if (wait) {
    c.done.take(c.batch);
  } else if (!c.done.try_take(c.batch)) {
    return;
  }
  for (const Done& d : c.batch) {
    const Slot& sl = c.slots[static_cast<std::size_t>(d.slot)];
    c.free.push_back(d.slot);
    if (!t) continue;
    ++t->ops;
    if (d.status != svc::Status::kOk) {
      ++t->failed;
      continue;
    }
    (is_read(*sl.op) ? t->read_lat : t->write_lat).add(d.t_ns - sl.t_due);
    if (!is_read(*sl.op)) ++t->writes;
  }
}

/// Reads every block the round wrote back through the service and
/// compares it with the payload last written there (`last` holds the
/// payload offset + 1, 0 for never written). Returns mismatches.
std::int64_t read_back(svc::VolumeManager& mgr, const Client& c,
                       const std::vector<std::vector<std::uint32_t>>& last) {
  std::vector<std::pair<int, std::int64_t>> written;
  for (int v = 0; v < kVolumes; ++v) {
    for (std::int64_t b = 0; b < kBlocks; ++b) {
      if (last[static_cast<std::size_t>(v)][static_cast<std::size_t>(b)]) {
        written.emplace_back(v, b);
      }
    }
  }
  std::vector<std::uint8_t> got(written.size() * kBlock);
  std::atomic<std::int64_t> bad{0};
  for (std::size_t i = 0; i < written.size(); ++i) {
    svc::Request r;
    r.kind = svc::OpKind::kRead;
    r.volume = written[i].first;
    r.tenant = r.volume;
    r.logical = written[i].second;
    r.out = {got.data() + i * kBlock, kBlock};
    r.on_complete = [&bad](const svc::Completion& done) {
      if (done.status != svc::Status::kOk) bad.fetch_add(1);
    };
    if (mgr.submit(std::move(r)) != svc::Status::kOk) bad.fetch_add(1);
  }
  mgr.drain();
  for (std::size_t i = 0; i < written.size(); ++i) {
    const auto [v, b] = written[i];
    const std::uint32_t p =
        last[static_cast<std::size_t>(v)][static_cast<std::size_t>(b)] - 1;
    if (std::memcmp(got.data() + i * kBlock, c.pool.data() + p, kBlock) != 0) {
      bad.fetch_add(1);
    }
  }
  return bad.load();
}

/// One round. Returns its check failures (0: both volumes verify as
/// RAID-6 and every written block reads back). With `plant`, a flipped
/// byte is then planted on disk and *plant reports whether
/// verify_raid6() caught it.
std::int64_t round(Client& c, Tally* t, bool armed, SubmitProbe& probe,
                   obs::TraceRecorder& spans, bool* plant = nullptr) {
  obs::Registry reg;  // outlives the manager's collector
  svc::ServiceConfig sc;
  sc.shards = 1;  // plus two conversion workers and the client: 4 CPUs
  svc::VolumeManager mgr(sc);
  std::vector<mig::OnlineMigrator*> migs;
  for (int v = 0; v < kVolumes; ++v) {
    const svc::VolumeId id = mgr.create_raid5_volume(kP, kGroups, kBlock, v);
    migs.push_back(mgr.volume(id)->migrator());
    migs.back()->set_workers(1);
  }
  if (armed) mgr.attach_metrics(reg);
  arm_program_obs(armed);
  probe.armed = armed;
  std::vector<std::vector<std::uint32_t>> last(
      kVolumes, std::vector<std::uint32_t>(kBlocks, 0));

  const std::uint64_t round_id = obs::next_span_id();
  // The client busy-waits, so the program's CPU is the process's minus
  // the client thread's.
  const double cpu0 = cpu_seconds() - thread_cpu_seconds();
  const std::int64_t t0 = now_ns();
  for (mig::OnlineMigrator* m : migs) {
    const std::int64_t a = now_ns();
    m->start();
    const std::int64_t b = now_ns();
    record_span(spans, "start", a, b, round_id);
    if (t) t->start_ms.push_back(static_cast<double>(b - a) / 1e6);
  }
  // converting() is one atomic load; polling state() instead contends
  // with the workers, which take the migrator's state lock every row.
  const auto converting = [&] {
    return std::any_of(migs.begin(), migs.end(),
                       [](mig::OnlineMigrator* m) { return m->converting(); });
  };
  // The schedule starts once both conversions run: start() blocks the
  // client thread that calls it, which is not the service's lateness.
  const auto interval = static_cast<std::int64_t>(1e9 / kRate);
  std::int64_t due = now_ns();
  while (converting()) {
    collect(c, t, false);
    const std::int64_t now = now_ns();
    // Busy-wait for the next due time: on a virtual machine a sleeping
    // client's idle vCPU can take milliseconds to wake, which would
    // charge the host's scheduling to the service as lateness.
    if (now < due) continue;
    if (c.free.empty()) {
      collect(c, t, true);
      continue;
    }
    const int s = c.free.back();
    c.free.pop_back();
    Slot& sl = c.slots[static_cast<std::size_t>(s)];
    const Op& op = c.ops[c.next];
    c.next = (c.next + 1) % c.ops.size();
    svc::Request r;
    r.kind = op.kind;
    r.volume = op.volume;
    r.tenant = op.volume;
    r.logical = op.block;
    if (is_read(op)) {
      r.out = {sl.buf.data(), kBlock};
    } else {
      r.in = {c.pool.data() + op.payload, kBlock};
    }
    r.on_complete = [&done = c.done, s](const svc::Completion& comp) {
      done.push({s, comp.status, now_ns()});
    };
    sl.op = &op;
    sl.t_due = due;
    if (t) {
      ++t->attempted;
      t->lateness.add(now - due);
    }
    if (probe.submit(mgr, std::move(r)) != svc::Status::kOk) {
      c.free.push_back(s);
      if (t) ++t->failed;
    } else if (!is_read(op)) {
      last[static_cast<std::size_t>(op.volume)]
          [static_cast<std::size_t>(op.block)] = op.payload + 1;
    }
    due += interval;
  }
  const std::int64_t t1 = now_ns();
  const double cpu1 = cpu_seconds() - thread_cpu_seconds();
  for (mig::OnlineMigrator* m : migs) {
    const std::int64_t a = now_ns();
    m->finish();
    record_span(spans, "finish", a, now_ns(), round_id);
  }
  mgr.drain();
  while (c.free.size() < c.slots.size()) collect(c, t, true);
  arm_program_obs(false);
  probe.armed = false;
  record_span(spans, "round", t0, now_ns(), 0, round_id);

  if (t) {
    const double secs = static_cast<double>(t1 - t0) / 1e9;
    const double blocks = static_cast<double>(kVolumes * kBlocks);
    t->conv_s += secs;
    t->cpu_s += cpu1 - cpu0;
    t->conv_blocks += blocks;
    t->round_ms.push_back(secs * 1e3);
    const double mib = blocks * kBlock / kMiB;
    t->round_mb_per_s.push_back(mib / secs);
    t->round_cpu_ms_per_mb.push_back((cpu1 - cpu0) * 1e3 / mib);
    t->mode_blocks[armed] += blocks;
    t->mode_s[armed] += secs;
    for (int v = 0; v < kVolumes; ++v) {
      const mig::OnlineStats s = migs[static_cast<std::size_t>(v)]->stats();
      const mig::DiskArray& a = mgr.volume(v)->array();
      const double app = static_cast<double>(s.app_reads + s.app_writes);
      const double bytes =
          static_cast<double>(a.total_read_bytes() + a.total_write_bytes());
      t->conv_ios += static_cast<double>(s.conv_reads + s.conv_writes);
      t->app_ios += app;
      t->interruptions += static_cast<double>(s.interruptions);
      // Application I/O on a migrating volume is whole-block.
      t->conv_bytes += bytes - app * kBlock;
      t->runs += static_cast<double>(a.total_read_runs() + a.total_write_runs());
      t->read_bytes += static_cast<double>(a.total_read_bytes());
      t->write_bytes += static_cast<double>(a.total_write_bytes());
    }
    if (armed) t->acc.add(reg.snapshot());
  }

  std::int64_t bad = 0;
  for (mig::OnlineMigrator* m : migs) {
    if (m->state() != mig::MigrationState::kDone || !m->verify_raid6()) ++bad;
  }
  bad += read_back(mgr, c, last);
  if (plant) {
    mgr.volume(0)->array().corrupt_block(0, 0);
    *plant = !migs[0]->verify_raid6();
  }
  return bad;
}

}  // namespace

Outcome run_migrate(const Options& opt, obs::TraceRecorder& spans) {
  SubmitProbe probe;
  probe.spans = &spans;
  std::vector<double> setup;
  std::unique_ptr<Client> c;
  std::int64_t bad = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    c.reset();
    const std::int64_t t0 = now_ns();
    c = make_client(opt.seed);
    bad += round(*c, nullptr, false, probe, spans);  // warm-up round
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Tally t;
  const auto est = static_cast<std::size_t>(kRate * opt.seconds * 1.5) + 1024;
  t.read_lat.reserve(est);
  t.write_lat.reserve(est);
  t.lateness.reserve(est);
  // With --trace 1, odd rounds run traced and even rounds plain, so one
  // process measures both sides of trace.overhead_frac. The conversion
  // rate and CPU cost are medians over rounds, and latency percentiles
  // medians over windows of about a second of rounds, so a burst of
  // outside interference moves one round or window rather than the
  // result.
  const std::int64_t start = now_ns();
  const std::int64_t end = start + opt.seconds * 1'000'000'000LL;
  std::int64_t win_start = start;
  int rounds = 0;
  for (; rounds == 0 || now_ns() < end; ++rounds) {
    bad += round(*c, &t, opt.trace && rounds % 2 == 1, probe, spans);
    if (now_ns() - win_start >= kWindowNs) {
      t.read_lat.mark();
      t.write_lat.mark();
      win_start = now_ns();
    }
  }
  bool caught = false;
  bad += round(*c, nullptr, false, probe, spans, &caught);

  Outcome out;
  out.attempted = t.attempted;
  out.failed = t.failed;
  const double mib = t.conv_blocks * kBlock / kMiB;
  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = median(setup);
    e.rss_mb = peak_rss_mb();
    e.read_p50_us = t.read_lat.window_quantile_us(0.5);
    e.read_p90_us = t.read_lat.window_quantile_us(0.9);
    e.write_p50_us = t.write_lat.window_quantile_us(0.5);
    e.write_p90_us = t.write_lat.window_quantile_us(0.9);
    e.ok_frac = ratio(static_cast<double>(t.attempted - t.failed),
                      static_cast<double>(t.attempted));
    e.mb_per_s = median(t.round_mb_per_s);
    e.cpu_ms_per_mb = median(t.round_cpu_ms_per_mb);
    e.ios_per_blk = t.conv_ios / t.conv_blocks;
    e.bytes_per_byte = t.conv_bytes / (t.conv_blocks * kBlock);
    e.emit(out.metrics);
  } else {
    Layers l;
    service_layers(t.acc, probe, true, l);
    l.coalesced_runs_per_op =
        ratio(static_cast<double>(t.acc.counter("service_coalesced_runs")),
              static_cast<double>(probe.calls));
    // The conversion's unit of work is one data block.
    l.runs_per_blk = ratio(t.runs, t.conv_blocks);
    l.read_bytes_per_op = ratio(t.read_bytes, t.conv_blocks);
    l.write_bytes_per_op = ratio(t.write_bytes, t.conv_blocks);
    l.app_ios_per_op = ratio(t.app_ios, static_cast<double>(t.ops));
    l.interruptions_per_write =
        ratio(t.interruptions, static_cast<double>(t.writes));
    l.start_ms = t.start_ms.empty()
                     ? 0
                     : std::accumulate(t.start_ms.begin(), t.start_ms.end(),
                                       0.0) /
                           static_cast<double>(t.start_ms.size());
    l.round_ms_p50 = quantile(t.round_ms, 0.5);
    l.round_ms_p90 = quantile(t.round_ms, 0.9);
    const double plain = ratio(t.mode_blocks[0], t.mode_s[0]);
    const double traced = ratio(t.mode_blocks[1], t.mode_s[1]);
    l.overhead_frac = plain > 0 && traced > 0 ? 1 - traced / plain : 0;
    l.lateness_p50 = t.lateness.quantile_us(0.5);
    l.lateness_p90 = t.lateness.quantile_us(0.9);
    l.read_samples = static_cast<double>(t.read_lat.size());
    l.write_samples = static_cast<double>(t.write_lat.size());
    replay_controller(c->ops, kReplayOps, c->pool, spans, l);
    l.encode_us_per_stripe = encode_us_per_stripe();
    l.accumulate_gbps = accumulate_gbps();
    l.emit(out.metrics);
  }
  out.correct = bad == 0 && caught;
  std::fprintf(stderr,
               "migrate: %d rounds, %.1f MiB converted in %.2f s, %lld "
               "foreground ops, check: %lld failures, planted corruption %s\n",
               rounds, mib, t.conv_s, static_cast<long long>(t.ops),
               static_cast<long long>(bad), caught ? "caught" : "MISSED");
  return out;
}

}  // namespace perfbench
