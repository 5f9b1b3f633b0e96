#include "service/volume_manager.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/reqtrace.hpp"
#include "util/env.hpp"

namespace c56::svc {

namespace {
constexpr std::int64_t kMaxOpCost = 1024;  // DRR cost clamp, blocks
}

VolumeManager::VolumeManager(ServiceConfig cfg) {
  obs::arm_req_trace_from_env();
  if (const auto v = util::env_int("C56_SERVICE_SHARDS", 1, 256)) {
    cfg.shards = static_cast<int>(*v);
  }
  if (const auto v = util::env_int("C56_SERVICE_BATCH", 1, 1 << 16)) {
    cfg.max_batch = static_cast<int>(*v);
  }
  if (const auto v = util::env_int("C56_SERVICE_INFLIGHT", 1, 1 << 20)) {
    cfg.tenant_inflight = *v;
  }
  if (const auto v = util::env_int("C56_SERVICE_QUEUE", 1, 1 << 22)) {
    cfg.shard_queue_cap = *v;
  }
  if (const auto v = util::env_int("C56_SERVICE_QUANTUM", 1, 1 << 16)) {
    cfg.quantum_blocks = static_cast<int>(*v);
  }
  if (const auto v = util::env_int("C56_SERVICE_TRIM_KB", 0, 1 << 20)) {
    cfg.idle_trim_bytes = static_cast<std::size_t>(*v) << 10;
  }
  // Defensive clamps for caller-passed configs (same floors the env
  // parser enforces).
  cfg.shards = std::clamp(cfg.shards, 1, 256);
  cfg.max_batch = std::max(cfg.max_batch, 1);
  cfg.tenant_inflight = std::max<std::int64_t>(cfg.tenant_inflight, 1);
  cfg.shard_queue_cap = std::max<std::int64_t>(cfg.shard_queue_cap, 1);
  cfg.quantum_blocks = std::max(cfg.quantum_blocks, 1);
  shared_.cfg = cfg;

  shards_.reserve(static_cast<std::size_t>(cfg.shards));
  for (int s = 0; s < cfg.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, shared_));
  }
  if (!cfg.manual_pump) {
    for (auto& s : shards_) s->start();
  }
}

VolumeManager::~VolumeManager() { stop(); }

VolumeId VolumeManager::create_volume(const Volume::Config& cfg) {
  std::lock_guard<std::mutex> lk(create_mu_);
  const int id = volume_count_.load(std::memory_order_relaxed);
  if (id >= kMaxVolumes) {
    throw std::length_error("VolumeManager: volume table full");
  }
  volumes_[static_cast<std::size_t>(id)] =
      std::make_unique<Volume>(id, cfg);
  volume_count_.store(id + 1, std::memory_order_release);
  return id;
}

VolumeId VolumeManager::create_raid5_volume(int p, std::int64_t groups,
                                            std::size_t block_bytes,
                                            TenantId owner) {
  std::lock_guard<std::mutex> lk(create_mu_);
  const int id = volume_count_.load(std::memory_order_relaxed);
  if (id >= kMaxVolumes) {
    throw std::length_error("VolumeManager: volume table full");
  }
  volumes_[static_cast<std::size_t>(id)] =
      std::make_unique<Volume>(id, p, groups, block_bytes, owner);
  volume_count_.store(id + 1, std::memory_order_release);
  return id;
}

Volume* VolumeManager::volume(VolumeId id) noexcept {
  const int n = volume_count_.load(std::memory_order_acquire);
  if (id < 0 || id >= n) return nullptr;
  return volumes_[static_cast<std::size_t>(id)].get();
}

Status VolumeManager::submit(Request req) {
  if (!accepting_.load(std::memory_order_relaxed)) return Status::kShutdown;
  if (req.tenant < 0 || req.tenant >= kMaxTenants) {
    return Status::kInvalidArgument;
  }
  Volume* vol = volume(req.volume);
  if (!vol) return Status::kNoSuchVolume;
  if (const Status s = vol->validate(req); s != Status::kOk) return s;

  // Admission: optimistic bump, undo on rejection. The budget bounds
  // accepted-but-uncompleted ops per tenant, which in turn bounds how
  // much of any shard's queue one tenant can own.
  auto& budget = shared_.tenant_inflight[static_cast<std::size_t>(req.tenant)];
  if (budget.fetch_add(1, std::memory_order_relaxed) >=
      shared_.cfg.tenant_inflight) {
    budget.fetch_sub(1, std::memory_order_relaxed);
    shared_.metrics.rejected_budget.inc();
    return Status::kQueueFull;
  }
  shared_.total_inflight.fetch_add(1, std::memory_order_relaxed);

  QueuedOp op;
  const TenantId tenant = req.tenant;
  op.cost = std::clamp<std::int64_t>(
      (req.kind == OpKind::kRead || req.kind == OpKind::kWrite) ? req.count
                                                                : 1,
      1, kMaxOpCost);
  op.volume = vol;
  op.submitted = std::chrono::steady_clock::now();
  if (obs::req_trace_enabled()) {
    op.rt.trace_id = obs::next_trace_id();
    // Derived from the same clock read as `submitted` so the stage
    // decomposition and the completion latency share one origin.
    op.rt.t_submit_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            op.submitted.time_since_epoch())
            .count());
  }
  op.req = std::move(req);

  const Status s = shard_of(op.req.volume).enqueue(std::move(op));
  if (s != Status::kOk) {
    shared_.tenant_inflight[static_cast<std::size_t>(tenant)].fetch_sub(
        1, std::memory_order_relaxed);
    shared_.total_inflight.fetch_sub(1, std::memory_order_relaxed);
    if (s == Status::kQueueFull) shared_.metrics.rejected_queue.inc();
    return s;
  }
  shared_.metrics.submitted.inc();
  return Status::kOk;
}

void VolumeManager::drain() {
  if (shared_.cfg.manual_pump) {
    while (pump_all() != 0) {
    }
    return;
  }
  std::unique_lock<std::mutex> lk(shared_.drain_mu);
  shared_.drain_cv.wait(lk, [&] {
    return shared_.total_inflight.load(std::memory_order_acquire) == 0;
  });
}

void VolumeManager::stop() {
  accepting_.store(false, std::memory_order_relaxed);
  if (stopped_) return;
  stopped_ = true;
  for (auto& s : shards_) s->stop();
}

std::size_t VolumeManager::pump_all() {
  std::size_t done = 0;
  for (auto& s : shards_) done += s->pump();
  return done;
}

void VolumeManager::attach_metrics(obs::Registry& registry,
                                   const std::string& prefix) {
  obs::set_metric_help(prefix + "_submitted",
                       "Requests accepted into a shard submission queue");
  obs::set_metric_help(prefix + "_completed",
                       "Requests completed (any status)");
  obs::set_metric_help(prefix + "_rejected_budget",
                       "Rejections by the per-tenant in-flight budget");
  obs::set_metric_help(prefix + "_rejected_queue",
                       "Rejections by the shard submission-queue cap");
  obs::set_metric_help(prefix + "_coalesced_runs",
                       "Read requests handed to the controller in one "
                       "call with at least one other read request");
  obs::set_metric_help(prefix + "_latency_us",
                       "End-to-end latency of request-traced ops per tenant");
  for (int s = 0; s < obs::kStageCount; ++s) {
    obs::set_metric_help(
        prefix + "_stage_" + obs::stage_name(s) + "_us",
        std::string("Request lifecycle stage latency: ") +
            obs::stage_name(s));
  }
  metrics_handle_ =
      registry.add_collector([this, prefix](obs::Collection& c) {
    const ServiceMetrics& m = shared_.metrics;
    c.counter(prefix + "_submitted", m.submitted.value());
    c.counter(prefix + "_completed", m.completed.value());
    c.counter(prefix + "_rejected_budget", m.rejected_budget.value());
    c.counter(prefix + "_rejected_queue", m.rejected_queue.value());
    c.counter(prefix + "_errors", m.errors.value());
    c.gauge(prefix + "_inflight", inflight());
    c.gauge(prefix + "_volumes", volumes());
    c.gauge(prefix + "_shards", static_cast<std::int64_t>(shards_.size()));
    c.histogram(prefix + "_queue_depth", m.queue_depth.snapshot());
    c.histogram(prefix + "_batch_ops", m.batch_ops.snapshot());
    c.histogram(prefix + "_read_latency_us", m.read_latency_us.snapshot());
    c.histogram(prefix + "_write_latency_us", m.write_latency_us.snapshot());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      c.gauge(prefix + "_queued{shard=\"" + std::to_string(s) + "\"}",
              shards_[s]->queued());
    }
    // Service-wide stage decomposition (populated only while request
    // tracing is armed; empty histograms still export for discovery).
    for (int s = 0; s < obs::kStageCount; ++s) {
      c.histogram(prefix + "_stage_" + obs::stage_name(s) + "_us",
                  shared_.metrics.stages.h[s].snapshot());
    }
    const int nvol = volumes();
    std::uint64_t coalesced = 0;
    for (int v = 0; v < nvol; ++v) {
      const Volume& vol = *volumes_[static_cast<std::size_t>(v)];
      const std::string label = "{volume=\"" + std::to_string(v) + "\"}";
      c.counter(prefix + "_ops" + label, vol.ops_completed());
      c.counter(prefix + "_blocks" + label, vol.blocks_io());
      c.counter(prefix + "_io_errors" + label, vol.io_errors());
      coalesced += vol.coalesced_runs();
      // Per-volume stages carry data only once a traced op completed
      // on this volume; skip empty ones to keep the exposition lean.
      for (int s = 0; s < obs::kStageCount; ++s) {
        auto snap = vol.stages().h[s].snapshot();
        if (snap.count == 0) continue;
        c.histogram(prefix + "_stage_" + obs::stage_name(s) + "_us" + label,
                    std::move(snap));
      }
    }
    c.counter(prefix + "_coalesced_runs", coalesced);
    for (TenantId t = 0; t < kMaxTenants; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const std::uint64_t done = shared_.tenant_completed[ti].value();
      const std::int64_t inf =
          shared_.tenant_inflight[ti].load(std::memory_order_relaxed);
      if (done == 0 && inf == 0) continue;  // never-seen tenants stay out
      const std::string label = "{tenant=\"" + std::to_string(t) + "\"}";
      c.counter(prefix + "_tenant_completed" + label, done);
      c.gauge(prefix + "_tenant_inflight" + label, inf);
      if (const TenantObs* to =
              shared_.tenant_obs[ti].load(std::memory_order_acquire)) {
        c.histogram(prefix + "_latency_us" + label,
                    to->latency_us.snapshot());
        for (int s = 0; s < obs::kStageCount; ++s) {
          auto snap = to->stages.h[s].snapshot();
          if (snap.count == 0) continue;
          c.histogram(
              prefix + "_stage_" + obs::stage_name(s) + "_us" + label,
              std::move(snap));
        }
      }
    }
  });
}

obs::HistogramSnapshot VolumeManager::tenant_latency(TenantId tenant) const {
  if (tenant < 0 || tenant >= kMaxTenants) return {};
  const TenantObs* to =
      shared_.tenant_obs[static_cast<std::size_t>(tenant)].load(
          std::memory_order_acquire);
  return to ? to->latency_us.snapshot() : obs::HistogramSnapshot{};
}

std::vector<TenantId> VolumeManager::traced_tenants() const {
  std::vector<TenantId> out;
  for (TenantId t = 0; t < kMaxTenants; ++t) {
    if (shared_.tenant_obs[static_cast<std::size_t>(t)].load(
            std::memory_order_acquire) != nullptr) {
      out.push_back(t);
    }
  }
  return out;
}

void VolumeManager::attach_volume_metrics(obs::Registry& registry) {
  const int nvol = volumes();
  for (int v = 0; v < nvol; ++v) {
    Volume& vol = *volumes_[static_cast<std::size_t>(v)];
    const std::string label = "volume=\"" + std::to_string(v) + "\"";
    vol.array().attach_metrics(registry, "disk_array", label);
    if (vol.controller()) {
      vol.controller()->attach_metrics(registry, "controller", label);
    }
  }
}

}  // namespace c56::svc
