#include "service/volume.hpp"

#include <iterator>
#include <stdexcept>
#include <vector>

namespace c56::svc {

namespace {

const char* status_names[] = {"ok",          "queue_full", "no_such_volume",
                              "invalid_arg", "io_error",   "shutdown"};

/// Physical disks a code occupies: its columns minus the leading
/// all-virtual ones (same rule ArrayController enforces).
int physical_disks(const ErasureCode& code) {
  int virt = 0;
  for (int c = 0; c < code.cols(); ++c) {
    bool all_virtual = true;
    for (int r = 0; r < code.rows(); ++r) {
      if (code.kind({r, c}) != CellKind::kVirtual) {
        all_virtual = false;
        break;
      }
    }
    if (!all_virtual) break;
    ++virt;
  }
  return code.cols() - virt;
}

}  // namespace

const char* to_string(Status s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < std::size(status_names) ? status_names[i] : "unknown";
}

Volume::Volume(VolumeId id, const Config& cfg) : id_(id), owner_(cfg.owner) {
  auto code = make_code(cfg.code, cfg.p);
  if (cfg.stripes < 1) {
    throw std::invalid_argument("Volume: stripes must be >= 1");
  }
  array_ = std::make_unique<mig::DiskArray>(
      physical_disks(*code), cfg.stripes * code->rows(), cfg.block_bytes);
  ctrl_ = std::make_unique<mig::ArrayController>(*array_, std::move(code));
  if (cfg.cache_stripes != 0) ctrl_->set_cache_stripes(cfg.cache_stripes);
  logical_blocks_ = ctrl_->logical_blocks();
}

Volume::Volume(VolumeId id, int p, std::int64_t groups,
               std::size_t block_bytes, TenantId owner)
    : id_(id), owner_(owner) {
  if (groups < 1) throw std::invalid_argument("Volume: groups must be >= 1");
  array_ = std::make_unique<mig::DiskArray>(
      p - 1, groups * static_cast<std::int64_t>(p - 1), block_bytes);
  mig_ = std::make_unique<mig::OnlineMigrator>(*array_, p);
  logical_blocks_ = mig_->logical_blocks();
}

Status Volume::validate(const Request& r) const noexcept {
  const std::int64_t lb = logical_blocks_;
  const auto bs = static_cast<std::int64_t>(block_bytes());
  switch (r.kind) {
    case OpKind::kRead:
    case OpKind::kWrite: {
      if (r.logical < 0 || r.count < 1 || r.count > lb ||
          r.logical > lb - r.count) {
        return Status::kInvalidArgument;
      }
      const auto need = static_cast<std::uint64_t>(r.count) *
                        static_cast<std::uint64_t>(bs);
      const std::size_t have =
          r.kind == OpKind::kRead ? r.out.size() : r.in.size();
      if (have != need) return Status::kInvalidArgument;
      return Status::kOk;
    }
    case OpKind::kReadRange:
    case OpKind::kWriteRange: {
      if (r.logical < 0 || r.logical >= lb || r.offset < 0) {
        return Status::kInvalidArgument;
      }
      const auto len = static_cast<std::int64_t>(
          r.kind == OpKind::kReadRange ? r.out.size() : r.in.size());
      if (len < 1 || len > bs - r.offset) return Status::kInvalidArgument;
      return Status::kOk;
    }
  }
  return Status::kInvalidArgument;
}

void Volume::execute(std::span<QueuedOp> ops) {
  if (mig_) {
    execute_migrator(ops);
  } else {
    execute_controller(ops);
  }
  for (const QueuedOp& op : ops) {
    ops_.inc();
    blocks_.inc(static_cast<std::uint64_t>(
        (op.req.kind == OpKind::kRead || op.req.kind == OpKind::kWrite)
            ? op.req.count
            : 1));
    if (op.result != Status::kOk) errors_.inc();
  }
}

void Volume::execute_controller(std::span<QueuedOp> ops) {
  // Every write of the slice reaches the planner in one batched call,
  // in submission order: write_range applies a stripe's entries in
  // batch order (a later write to the same bytes wins), so each parity
  // a stripe's writes feed is updated once per slice. The reads follow
  // in one batched call of their own.
  using SubRead = mig::ArrayController::SubRead;
  const std::size_t bs = block_bytes();
  // Per-thread scratch, cleared per call: a shard never nests execute.
  thread_local std::vector<mig::ArrayController::SubWrite> subs;
  thread_local std::vector<SubRead> reads;
  thread_local std::vector<QueuedOp*> writes, readers;
  subs.clear();
  reads.clear();
  writes.clear();
  readers.clear();
  for (QueuedOp& op : ops) {
    const Request& r = op.req;
    const bool read = r.kind == OpKind::kRead || r.kind == OpKind::kReadRange;
    (read ? readers : writes).push_back(&op);
    if (r.kind == OpKind::kWriteRange) {
      subs.push_back({r.logical, r.offset, r.in});
    } else if (r.kind == OpKind::kReadRange) {
      reads.push_back({r.logical, r.offset, r.out});
    } else {
      // One whole-block entry per block, a span of the request's buffer.
      for (std::int64_t b = 0; b < r.count; ++b) {
        const auto off = static_cast<std::size_t>(b) * bs;
        if (read) {
          reads.push_back({r.logical + b, 0, r.out.subspan(off, bs)});
        } else {
          subs.push_back({r.logical + b, 0, r.in.subspan(off, bs)});
        }
      }
    }
  }
  if (!writes.empty()) {
    // One call, one outcome: the slice's writes share its status.
    Status st = Status::kOk;
    try {
      ctrl_->write_range(subs);
    } catch (const std::exception&) {
      st = Status::kIoError;
    }
    for (QueuedOp* op : writes) op->result = st;
  }
  if (readers.empty()) return;
  if (readers.size() > 1) coalesced_runs_.inc(readers.size());
  const auto read_ok = [this](std::span<const SubRead> b) {
    try {
      ctrl_->read_range(b);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };
  // Reads are idempotent: after a failed call, each request is re-run
  // alone, so only the ones that fail on their own report kIoError.
  const bool all_ok = read_ok(reads);
  std::size_t first = 0;
  for (QueuedOp* op : readers) {
    const auto n = static_cast<std::size_t>(
        op->req.kind == OpKind::kRead ? op->req.count : 1);
    const bool ok = all_ok || (readers.size() > 1 &&
                               read_ok(std::span(reads).subspan(first, n)));
    op->result = ok ? Status::kOk : Status::kIoError;
    first += n;
  }
}

void Volume::execute_migrator(std::span<QueuedOp> ops) {
  // Migrator volumes execute strictly in queue order: the migrator's
  // application path is per-block by design (it arbitrates with the
  // conversion workers per stripe group), so there is nothing to
  // coalesce, and order-preservation is free.
  const std::size_t bs = block_bytes();
  for (QueuedOp& op : ops) {
    mig::IoResult r = mig::IoResult::success();
    switch (op.req.kind) {
      case OpKind::kRead:
        for (std::int64_t b = 0; b < op.req.count && r.ok(); ++b) {
          r = mig_->read_block(
              op.req.logical + b,
              op.req.out.subspan(static_cast<std::size_t>(b) * bs, bs));
        }
        break;
      case OpKind::kWrite:
        for (std::int64_t b = 0; b < op.req.count && r.ok(); ++b) {
          r = mig_->write_block(
              op.req.logical + b,
              op.req.in.subspan(static_cast<std::size_t>(b) * bs, bs));
        }
        break;
      case OpKind::kWriteRange:
        r = mig_->write_range(op.req.logical,
                              static_cast<std::size_t>(op.req.offset),
                              op.req.in);
        break;
      case OpKind::kReadRange:
        r = mig_->read_range(op.req.logical,
                             static_cast<std::size_t>(op.req.offset),
                             op.req.out);
        break;
    }
    op.result = r.ok() ? Status::kOk : Status::kIoError;
  }
}

}  // namespace c56::svc
