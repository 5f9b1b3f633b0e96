#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>

#include "bench.hpp"
#include "codes/registry.hpp"
#include "layout/stripe.hpp"
#include "obs/reqtrace.hpp"
#include "service/volume.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"
#include "xorblk/kernel.hpp"

namespace perfbench {

namespace {

/// Shortest round-trip decimal form; non-finite values (a metric whose
/// base was empty) print as 0 so the line stays valid JSON.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Report::json() const {
  std::string s = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i) s += ", ";
    s += "\"" + e.name + "\": {\"value\": " + number(e.value) +
         ", \"unit\": \"" + e.unit + "\"}";
  }
  return s + "}";
}

std::string Report::text() const {
  std::string s;
  for (const Entry& e : entries_) {
    s += "  " + e.name + " " + number(e.value) + " " + e.unit + "\n";
  }
  return s;
}

namespace {

/// Nearest-rank quantile of [first, last) in microseconds; reorders the
/// range.
double rank_quantile_us(std::vector<std::uint32_t>::iterator first,
                        std::vector<std::uint32_t>::iterator last, double q) {
  const std::ptrdiff_t n = last - first;
  if (n == 0) return 0;
  const auto rank = std::clamp<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(std::ceil(q * static_cast<double>(n))), 1,
      n);
  std::nth_element(first, first + (rank - 1), last);
  return first[rank - 1] / 1e3;
}

}  // namespace

void Samples::add(std::int64_t ns) {
  // uint32 nanoseconds hold 4.29 s, far above any latency seen here.
  v_.push_back(static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, UINT32_MAX)));
}

double Samples::quantile_us(double q) {
  return rank_quantile_us(v_.begin(), v_.end(), q);
}

double Samples::window_quantile_us(double q) {
  const auto min_n = static_cast<std::size_t>(std::ceil(10 / (1 - q)));
  std::vector<double> per_window;
  std::size_t a = 0;
  for (const std::size_t b : marks_) {
    if (b - a >= min_n) {
      per_window.push_back(rank_quantile_us(
          v_.begin() + static_cast<std::ptrdiff_t>(a),
          v_.begin() + static_cast<std::ptrdiff_t>(b), q));
    }
    a = b;
  }
  return per_window.empty() ? quantile_us(q) : median(per_window);
}

double Samples::mean_us() const {
  double sum = 0;
  for (std::uint32_t v : v_) sum += v;
  return v_.empty() ? 0 : sum / static_cast<double>(v_.size()) / 1e3;
}

void EndToEnd::emit(Report& r) const {
  r.add("setup_s", setup_s, "s");
  r.add("rss_mb", rss_mb, "MiB");
  r.add("read_p50_us", read_p50_us, "us");
  r.add("read_p90_us", read_p90_us, "us");
  r.add("write_p50_us", write_p50_us, "us");
  r.add("write_p90_us", write_p90_us, "us");
  r.add("ok_frac", ok_frac, "frac");
  r.add("mb_per_s", mb_per_s, "MiB/s");
  r.add("cpu_ms_per_mb", cpu_ms_per_mb, "ms/MiB");
  r.add("ios_per_blk", ios_per_blk, "io/blk");
  r.add("bytes_per_byte", bytes_per_byte, "B/B");
}

void Layers::emit(Report& r) const {
  r.add("volume_manager.submit_us.mean", vm_submit_us, "us");
  r.add("volume_manager.inflight_mean", vm_inflight, "count");
  r.add("volume_manager.queue_full_per_op", vm_queue_full_per_op, "1/op");
  r.add("shard.queue_wait_us.mean", queue_wait_mean, "us");
  r.add("shard.queue_wait_us.p90", queue_wait_p90, "us");
  r.add("shard.sched_wait_us.mean", sched_wait_mean, "us");
  r.add("shard.sched_wait_us.p90", sched_wait_p90, "us");
  r.add("shard.complete_us.mean", complete_mean, "us");
  r.add("shard.batch_ops.mean", batch_ops_mean, "count");
  r.add("shard.queue_depth.mean", queue_depth_mean, "count");
  r.add("volume.coalesced_runs_per_op", coalesced_runs_per_op, "1/op");
  r.add("volume.batch_assembly_us.mean", batch_assembly_mean, "us");
  r.add("controller.planner_us.mean", ctl_planner_mean, "us");
  r.add("controller.planner_us.p90", ctl_planner_p90, "us");
  r.add("controller.delta_parities_per_subwrite", delta_parities_per_subwrite,
        "1/op");
  r.add("controller.full_stripe_frac", full_stripe_frac, "frac");
  r.add("controller.rmw_parities_per_write", rmw_parities_per_write, "1/op");
  r.add("controller.direct_parities_per_write", direct_parities_per_write,
        "1/op");
  r.add("controller.read_us.mean", ctl_read_us, "us");
  r.add("controller.write_us.mean", ctl_write_us, "us");
  r.add("controller.write_range_us.mean", ctl_write_range_us, "us");
  r.add("stripe_cache.hit_ratio", cache_hit_ratio, "frac");
  r.add("stripe_cache.evictions_per_op", cache_evictions_per_op, "1/op");
  r.add("disk_array.device_us.mean", device_mean, "us");
  r.add("disk_array.device_us.p90", device_p90, "us");
  r.add("disk_array.runs_per_blk", runs_per_blk, "1/blk");
  r.add("disk_array.read_bytes_per_op", read_bytes_per_op, "B/op");
  r.add("disk_array.write_bytes_per_op", write_bytes_per_op, "B/op");
  r.add("online.planner_us.mean", online_planner_mean, "us");
  r.add("online.planner_us.p90", online_planner_p90, "us");
  r.add("online.app_ios_per_op", app_ios_per_op, "io/op");
  r.add("online.interruptions_per_write", interruptions_per_write, "1/op");
  r.add("online.start_ms.mean", start_ms, "ms");
  r.add("online.round_convert_ms.p50", round_ms_p50, "ms");
  r.add("online.round_convert_ms.p90", round_ms_p90, "ms");
  r.add("codes.encode_us_per_stripe", encode_us_per_stripe, "us");
  r.add("xorblk.accumulate_gbps", accumulate_gbps, "GB/s");
  r.add("trace.overhead_frac", overhead_frac, "frac");
  r.add("client.lateness_us.p50", lateness_p50, "us");
  r.add("client.lateness_us.p90", lateness_p90, "us");
  r.add("client.read_samples", read_samples, "count");
  r.add("client.write_samples", write_samples, "count");
}

void Completions::push(const Done& d) {
  // Notify under the lock: the client may return and destroy this
  // object as soon as it can observe the last completion.
  std::lock_guard<std::mutex> lk(mu_);
  done_.push_back(d);
  pending_.store(true, std::memory_order_release);
  if (waiting_) cv_.notify_one();
}

void Completions::take(std::vector<Done>& out) {
  out.clear();
  // Spin briefly before sleeping: completions arrive microseconds apart
  // under load, and a futex sleep/wake per batch makes the client's pace
  // depend on scheduler timing.
  const std::int64_t spin_until = now_ns() + 20'000;
  while (!pending_.load(std::memory_order_acquire) && now_ns() < spin_until) {
  }
  std::unique_lock<std::mutex> lk(mu_);
  waiting_ = true;
  cv_.wait(lk, [&] { return !done_.empty(); });
  waiting_ = false;
  out.swap(done_);
  pending_.store(false, std::memory_order_relaxed);
}

bool Completions::try_take(std::vector<Done>& out) {
  out.clear();
  std::lock_guard<std::mutex> lk(mu_);
  if (done_.empty()) return false;
  out.swap(done_);
  pending_.store(false, std::memory_order_relaxed);
  return true;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  }
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

void SnapAcc::add(const obs::Snapshot& snap) {
  for (const obs::Metric& m : snap.metrics) {
    if (m.kind == obs::MetricKind::kGauge) continue;
    auto it = std::find_if(m_.begin(), m_.end(), [&](const obs::Metric& x) {
      return x.name == m.name && x.kind == m.kind;
    });
    if (it == m_.end()) {
      m_.push_back(m);
      continue;
    }
    if (m.kind == obs::MetricKind::kCounter) {
      it->counter += m.counter;
      continue;
    }
    obs::HistogramSnapshot& h = it->hist;
    std::map<std::uint64_t, std::uint64_t> buckets(h.buckets.begin(),
                                                   h.buckets.end());
    for (const auto& [ub, n] : m.hist.buckets) buckets[ub] += n;
    h.buckets.assign(buckets.begin(), buckets.end());
    h.count += m.hist.count;
    h.sum += m.hist.sum;
    h.max = std::max(h.max, m.hist.max);
  }
}

const obs::Metric* SnapAcc::find(const std::string& name) const {
  for (const obs::Metric& m : m_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double SnapAcc::mean(const std::string& name) const {
  const obs::Metric* m = find(name);
  return m ? ratio(static_cast<double>(m->hist.sum),
                   static_cast<double>(m->hist.count))
           : 0;
}

double SnapAcc::quantile(const std::string& name, double q) const {
  const obs::Metric* m = find(name);
  return m && m->hist.count ? m->hist.quantile(q) : 0;
}

std::uint64_t SnapAcc::counter(const std::string& name) const {
  const obs::Metric* m = find(name);
  return m ? m->counter : 0;
}

svc::Status SubmitProbe::submit(svc::VolumeManager& mgr, svc::Request req) {
  if (!armed) return mgr.submit(std::move(req));
  const std::int64_t inflight = mgr.inflight();
  const std::int64_t t0 = now_ns();
  const svc::Status st = mgr.submit(std::move(req));
  const std::int64_t t1 = now_ns();
  ++calls;
  ns += t1 - t0;
  inflight_sum += inflight;
  record_span(*spans, "submit", t0, t1);
  return st;
}

void service_layers(const SnapAcc& acc, const SubmitProbe& probe,
                    bool migrator, Layers& l) {
  const auto calls = static_cast<double>(probe.calls);
  l.vm_submit_us = ratio(static_cast<double>(probe.ns) / 1e3, calls);
  l.vm_inflight = ratio(static_cast<double>(probe.inflight_sum), calls);
  l.vm_queue_full_per_op =
      ratio(static_cast<double>(acc.counter("service_rejected_budget") +
                                acc.counter("service_rejected_queue")),
            calls);
  l.queue_wait_mean = acc.mean("service_stage_queue_wait_us");
  l.queue_wait_p90 = acc.quantile("service_stage_queue_wait_us", 0.9);
  l.sched_wait_mean = acc.mean("service_stage_sched_wait_us");
  l.sched_wait_p90 = acc.quantile("service_stage_sched_wait_us", 0.9);
  l.complete_mean = acc.mean("service_stage_complete_us");
  l.batch_ops_mean = acc.mean("service_batch_ops");
  l.queue_depth_mean = acc.mean("service_queue_depth");
  l.batch_assembly_mean = acc.mean("service_stage_batch_assembly_us");
  l.device_mean = acc.mean("service_stage_device_us");
  l.device_p90 = acc.quantile("service_stage_device_us", 0.9);
  const double planner_mean = acc.mean("service_stage_planner_us");
  const double planner_p90 = acc.quantile("service_stage_planner_us", 0.9);
  (migrator ? l.online_planner_mean : l.ctl_planner_mean) = planner_mean;
  (migrator ? l.online_planner_p90 : l.ctl_planner_p90) = planner_p90;
}

void record_span(obs::TraceRecorder& spans, const char* name,
                 std::int64_t t0_ns, std::int64_t t1_ns, std::uint64_t parent,
                 std::uint64_t id) {
  obs::TraceSpan s;
  s.name = name;
  s.start_us = static_cast<std::uint64_t>(t0_ns / 1000);
  s.dur_us = static_cast<std::uint64_t>((t1_ns - t0_ns) / 1000);
  s.span_id = id != 0 ? id : obs::next_span_id();
  s.parent_id = parent;
  s.trace_id = parent != 0 ? parent : s.span_id;
  spans.record(std::move(s));
}

void arm_program_obs(bool on) {
  obs::set_metrics_enabled(on);
  obs::set_req_trace_enabled(on);
}

double encode_us_per_stripe() {
  const auto code = make_code(CodeId::kCode56, kP);
  Buffer buf(static_cast<std::size_t>(code->cell_count()) * kBlock);
  Rng(kP).fill(buf.data(), buf.size());
  const StripeView view(buf.span(), code->rows(), code->cols(), kBlock);
  constexpr int kIters = 2000;
  code->encode(view);  // warm the chain cache
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) code->encode(view);
  return static_cast<double>(now_ns() - t0) / 1e3 / kIters;
}

double accumulate_gbps() {
  // One diagonal-parity chain of the conversion: p - 1 source blocks.
  constexpr int kSrcs = kP - 1;
  const XorKernel& k = active_kernel();
  Buffer src(kSrcs * kBlock), dst(kBlock);
  Rng(kSrcs).fill(src.data(), src.size());
  const void* ptrs[kSrcs];
  for (int i = 0; i < kSrcs; ++i) ptrs[i] = src.data() + i * kBlock;
  constexpr int kIters = 50000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    k.xor_accumulate(dst.data(), ptrs, kSrcs, kBlock);
  }
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  return static_cast<double>(kIters) * kSrcs * kBlock / secs / 1e9;
}

std::vector<std::uint8_t> make_pool(std::uint64_t seed) {
  // Slack past kPoolBytes so a payload may start anywhere below it.
  std::vector<std::uint8_t> pool(kPoolBytes + (1u << 17));
  Rng(seed ^ 0x5eed'9a71'0ad5ULL).fill(pool.data(), pool.size());
  return pool;
}

svc::Volume::Config volume_config(svc::TenantId owner) {
  svc::Volume::Config vc;
  vc.code = CodeId::kCode56;
  vc.p = kP;
  vc.stripes = kStripes;
  vc.block_bytes = kBlock;
  vc.cache_stripes = kCacheStripes;
  vc.owner = owner;
  return vc;
}

void replay_controller(const std::vector<Op>& ops, std::size_t n,
                       const std::vector<std::uint8_t>& pool,
                       obs::TraceRecorder& spans, Layers& layers) {
  svc::Volume vol(0, volume_config(0));
  mig::ArrayController& ctl = *vol.controller();
  const std::int64_t lb = vol.logical_blocks();
  std::vector<std::uint8_t> out;
  Samples read, write, write_range;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = ops[i % ops.size()];
    const std::int64_t l = op.block % (lb - op.count + 1);
    const std::span<const std::uint8_t> in(pool.data() + op.payload, op.len);
    if (out.size() < op.len) out.resize(op.len);
    const std::span<std::uint8_t> dst(out.data(), op.len);
    const char* name = "controller.read";
    Samples* s = &read;
    const std::int64_t t0 = now_ns();
    switch (op.kind) {
      case svc::OpKind::kRead:
        if (op.count == 1) {
          ctl.read(l, dst);
        } else {
          ctl.read(l, op.count, dst);
        }
        break;
      case svc::OpKind::kWrite:
        if (op.count == 1) {
          ctl.write(l, in);
        } else {
          ctl.write(l, op.count, in);
        }
        name = "controller.write";
        s = &write;
        break;
      case svc::OpKind::kWriteRange:
        ctl.write_range(l, op.offset, in);
        name = "controller.write_range";
        s = &write_range;
        break;
      case svc::OpKind::kReadRange:
        ctl.read_range(l, op.offset, dst);
        break;
    }
    const std::int64_t t1 = now_ns();
    s->add(t1 - t0);
    record_span(spans, name, t0, t1);
  }
  layers.ctl_read_us = read.mean_us();
  layers.ctl_write_us = write.mean_us();
  layers.ctl_write_range_us = write_range.mean_us();
}

}  // namespace perfbench
