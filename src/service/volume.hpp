#pragma once
// One hosted volume of the block service: a DiskArray plus either an
// ArrayController (any code in the zoo — the steady-state RAID-6
// volume) or an OnlineMigrator (a RAID-5 volume that can start its
// Code 5-6 conversion mid-traffic; application I/O rides the
// migrator's watermark-aware paths from the first request, so start()
// needs no quiesce).
//
// execute() is the batch executor behind the shard event loop's
// queue-depth-aware batching. It receives one drained slice of this
// volume's operations — already in per-tenant FIFO order:
//  * every write of the slice goes to the controller in one batched
//    write_range(), in submission order: one SubWrite per whole block
//    (a span of the request's own buffer) or per sub-block range. The
//    controller's planner does all the combining — full stripes cost
//    one encode, each parity a stripe's writes feed is updated once,
//    consecutive rows go out as vectored runs — and applies a stripe's
//    entries in batch order, so same-block writes land in submission
//    order (the SQ/CQ ordering contract). The slice's writes share one
//    status: kIoError for all of them if the call throws;
//  * every read then goes to one batched read_range(), one SubRead per
//    block or range, into the request's own buffer. If it throws, each
//    read request is re-run alone and takes its own status.

#include <cstdint>
#include <chrono>
#include <memory>
#include <span>

#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "migration/disk_array.hpp"
#include "migration/online.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "service/request.hpp"

namespace c56::svc {

class Volume;

/// Request-lifecycle timestamps, populated only for ops admitted while
/// obs::req_trace_enabled() (trace_id != 0 is the marker). All values
/// share obs::now_us()'s steady-clock timebase, so the six stages
/// derived at completion telescope exactly to end-to-end latency (see
/// obs/reqtrace.hpp).
struct ReqTimes {
  std::uint64_t trace_id = 0;       // 0: tracing was off at submit
  std::uint64_t t_submit_us = 0;    // accepted into the shard SQ
  std::uint64_t t_wake_us = 0;      // the drain pass taking it began
  std::uint64_t t_drain_us = 0;     // popped by the DRR scheduler
  std::uint64_t t_exec_start_us = 0;  // its volume group began executing
  std::uint64_t t_exec_end_us = 0;    // its volume group finished
  std::uint64_t device_ns = 0;      // counted DiskArray wall in the group
};

/// A request accepted into a shard's submission queue.
struct QueuedOp {
  Request req;
  Volume* volume = nullptr;
  std::chrono::steady_clock::time_point submitted;
  std::int64_t cost = 1;            // DRR cost in blocks (clamped)
  Status result = Status::kOk;      // filled by Volume::execute
  ReqTimes rt;
};

class Volume {
 public:
  struct Config {
    CodeId code = CodeId::kCode56;
    int p = 5;
    std::int64_t stripes = 8;
    std::size_t block_bytes = 4096;
    std::size_t cache_stripes = 0;  // 0 = stripe cache off
    TenantId owner = 0;
  };

  /// Controller-backed volume (steady-state erasure-coded array).
  Volume(VolumeId id, const Config& cfg);

  /// Migrator-backed RAID-5 volume of p-1 disks and `groups` stripe
  /// groups, zero-filled (a valid RAID-5: all-zero parity). Start the
  /// online conversion whenever desired via migrator()->start();
  /// application I/O flows through the migrator the whole time.
  Volume(VolumeId id, int p, std::int64_t groups, std::size_t block_bytes,
         TenantId owner);

  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;

  VolumeId id() const noexcept { return id_; }
  TenantId owner() const noexcept { return owner_; }
  std::size_t block_bytes() const noexcept { return array_->block_bytes(); }
  std::int64_t logical_blocks() const noexcept { return logical_blocks_; }

  mig::DiskArray& array() noexcept { return *array_; }
  /// Null for migrator-backed volumes.
  mig::ArrayController* controller() noexcept { return ctrl_.get(); }
  /// Null for controller-backed volumes.
  mig::OnlineMigrator* migrator() noexcept { return mig_.get(); }

  /// Synchronous geometry/buffer validation run at submit() time, so
  /// a malformed request is rejected before anything is queued.
  Status validate(const Request& req) const noexcept;

  /// Execute one drained slice of this volume's operations, filling
  /// each op's `result`. Called only from the owning shard's thread
  /// (one shard per volume), so it needs no locking of its own.
  void execute(std::span<QueuedOp> ops);

  // Always-on per-volume accounting (exported by the manager with
  // volume="id" labels).
  std::uint64_t ops_completed() const noexcept { return ops_.value(); }
  std::uint64_t blocks_io() const noexcept { return blocks_.value(); }
  std::uint64_t io_errors() const noexcept { return errors_.value(); }
  /// Read requests that shared one controller call with another read
  /// request. Writes are not counted (a slice's writes are one call too).
  std::uint64_t coalesced_runs() const noexcept {
    return coalesced_runs_.value();
  }

  /// Per-volume stage latency decomposition, observed by the shard's
  /// completion path for request-traced ops while metrics are on.
  obs::StageHistograms& stages() noexcept { return stages_; }
  const obs::StageHistograms& stages() const noexcept { return stages_; }

 private:
  void execute_controller(std::span<QueuedOp> ops);
  void execute_migrator(std::span<QueuedOp> ops);

  VolumeId id_;
  TenantId owner_;
  std::int64_t logical_blocks_ = 0;
  std::unique_ptr<mig::DiskArray> array_;
  std::unique_ptr<mig::ArrayController> ctrl_;
  std::unique_ptr<mig::OnlineMigrator> mig_;

  obs::Counter ops_;
  obs::Counter blocks_;
  obs::Counter errors_;
  obs::Counter coalesced_runs_;
  obs::StageHistograms stages_;
};

}  // namespace c56::svc
