#pragma once
// Shared degraded-I/O primitives over the fault-injecting DiskArray:
// bounded retry-with-backoff for transient errors (latent sector errors
// on reads, torn writes) and the executor of a RepairPlan. read_repaired
// is the one reconstruction routine: the RAID controller's degraded
// reads, the online migrator's RAID-5 row reconstruction and both
// components' whole-disk rebuilds (rebuild_stripes) run through it.

#include <cstdint>
#include <span>

#include "codes/erasure_code.hpp"
#include "migration/disk_array.hpp"
#include "migration/fault.hpp"

namespace c56::mig {

/// Attempt accounting for one degraded operation; callers fold these
/// into their own stats under their own locking.
struct IoCounters {
  std::uint64_t reads = 0;    // counted reads issued, retries included
  std::uint64_t writes = 0;   // counted writes issued, retries included
  std::uint64_t retries = 0;  // reissues after a transient error
  std::uint64_t backoff_us = 0;  // time slept between retry attempts
};

/// Read with retry. kSectorError is transient (reissued up to
/// policy.max_attempts with exponential backoff); kDiskFailed is
/// permanent and returned immediately.
IoResult read_block_retry(DiskArray& a, int disk, std::int64_t block,
                          std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters);

/// Write with retry. A torn write is repaired by rewriting the whole
/// block; kDiskFailed is permanent.
IoResult write_block_retry(DiskArray& a, int disk, std::int64_t block,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters);

/// Sub-block variants: same retry discipline over DiskArray's range
/// I/O. A torn range write is repaired by rewriting the whole range.
IoResult read_range_retry(DiskArray& a, int disk, std::int64_t block,
                          std::size_t offset, std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters);
IoResult write_range_retry(DiskArray& a, int disk, std::int64_t block,
                           std::size_t offset,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters);

/// Read half of a RepairPlan (over `code`'s flat cells) on stripes
/// [first, first + count): cell row * cols + col of stripe s is block
/// s * rows + row of disk col - virtual_cols. Reads plan.reads of every
/// stripe as per-disk runs of consecutive blocks (a run that faults is
/// redone block by block with retries, the redo counting as one retry
/// when the fault was transient), then stores the XOR of recipe t of
/// stripe first + s in block s * plan.recipes.size() + t of `out`. A
/// recipe {c, {c}} copies a surviving cell. Returns the first read that
/// failed for good.
IoResult read_repaired(DiskArray& a, const ErasureCode& code,
                       int virtual_cols, const RepairPlan& plan,
                       std::int64_t first, std::int64_t count,
                       std::span<std::uint8_t> out,
                       const RetryPolicy& policy, IoCounters* counters);

/// read_repaired, then the targets written back as per-disk runs with
/// the same fault fallback. Every read comes before the first write.
IoResult rebuild_stripes(DiskArray& a, const ErasureCode& code,
                         int virtual_cols, const RepairPlan& plan,
                         std::int64_t first, std::int64_t count,
                         const RetryPolicy& policy, IoCounters* counters);

}  // namespace c56::mig
