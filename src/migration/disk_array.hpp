#pragma once
// In-memory block-device array: the substrate the online migrator
// (Algorithm 2) runs against. Each disk is a flat vector of fixed-size
// blocks; per-disk I/O counters let tests and examples account for the
// traffic the conversion and the concurrent application generate, and a
// FaultPlan injects the failures (whole-disk, latent sector, torn
// write) that the degraded migration paths must survive.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <utility>
#include <vector>

#include "migration/fault.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "xorblk/buffer.hpp"

namespace c56::mig {

class DiskArray {
 public:
  DiskArray(int disks, std::int64_t blocks_per_disk, std::size_t block_bytes);

  int disks() const { return static_cast<int>(disks_.size()); }
  std::int64_t blocks_per_disk() const { return blocks_per_disk_; }
  std::size_t block_bytes() const { return block_bytes_; }

  /// Append a disk (the "add a new disk" step of Algorithm 2) and
  /// return its index. It holds `storage`, which must be exactly
  /// blocks_per_disk() * block_bytes() bytes (else invalid_argument),
  /// or a zeroed allocation made here when `storage` is empty. Passing
  /// storage made in advance keeps the allocation and its fill out of
  /// whatever quiesce the caller holds around the append.
  int add_disk(Buffer storage = {});

  /// Raw access to a block's storage (no counter update, no fault
  /// injection — the setup/verification backdoor). Throws
  /// std::out_of_range for invalid coordinates.
  std::span<std::uint8_t> raw_block(int disk, std::int64_t block);
  std::span<const std::uint8_t> raw_block(int disk, std::int64_t block) const;

  /// Raw contiguous view over `count` consecutive blocks of one disk
  /// (same backdoor semantics as raw_block).
  std::span<std::uint8_t> raw_blocks(int disk, std::int64_t block,
                                     std::int64_t count);
  std::span<const std::uint8_t> raw_blocks(int disk, std::int64_t block,
                                           std::int64_t count) const;

  /// Counted accesses. Bounds are checked (std::out_of_range names the
  /// offending coordinates); injected faults surface in the IoResult
  /// instead of silently succeeding. A read on a failed disk transfers
  /// nothing; a torn write persists only the first half of the block.
  IoResult read_block(int disk, std::int64_t block,
                      std::span<std::uint8_t> out);
  IoResult write_block(int disk, std::int64_t block,
                       std::span<const std::uint8_t> in);

  /// Counted sub-block access: transfer out.size()/in.size() bytes at
  /// `offset` within one block. Counts exactly like a single-block
  /// access (one transfer, one run, one fail_after ordinal) — the
  /// savings a range access models are bytes moved, not repositions.
  /// Fault semantics mirror the whole-block calls: a sector error or a
  /// failed disk transfers nothing; a torn write persists only the
  /// first half of the *range*; a silent-corruption flip lands inside
  /// the written range. A bad block is only remapped (cleared) by a
  /// full-block rewrite — a partial write leaves the bad mark in place.
  /// The range must be non-empty and inside the block.
  IoResult read_range(int disk, std::int64_t block, std::size_t offset,
                      std::span<std::uint8_t> out);
  IoResult write_range(int disk, std::int64_t block, std::size_t offset,
                       std::span<const std::uint8_t> in);

  /// Vectored counted access over `count` consecutive blocks of one
  /// disk. Bounds are checked once for the whole run; the buffer must
  /// hold exactly count * block_bytes(). The run counts `count`
  /// per-block transfers in reads()/writes() but only one sequential
  /// run in read_runs()/write_runs(). Fault injection keeps per-block
  /// semantics: the first injected fault aborts the run at its block
  /// (earlier blocks of the run are already transferred) and is
  /// reported with that block's coordinates.
  IoResult read_blocks(int disk, std::int64_t block, std::int64_t count,
                       std::span<std::uint8_t> out);
  IoResult write_blocks(int disk, std::int64_t block, std::int64_t count,
                        std::span<const std::uint8_t> in);

  /// Install a fault plan (replaces any previous one and reseeds the
  /// injection RNG). Not safe against concurrent in-flight I/O.
  void set_fault_plan(const FaultPlan& plan);
  /// Explicit failure control (a plan's DiskFailure ends up here too).
  void fail_disk(int disk);
  /// Clears the failed flag and any scripted failure for the disk; the
  /// stale contents stay in place until a rebuild overwrites them.
  void repair_disk(int disk);
  bool disk_failed(int disk) const;
  int failed_disks() const;

  std::uint64_t reads(int disk) const;
  std::uint64_t writes(int disk) const;
  std::uint64_t total_reads() const;
  std::uint64_t total_writes() const;
  /// Sequential-run accounting: a read_block/write_block counts one
  /// run; a read_blocks/write_blocks batch counts one run regardless
  /// of its length.
  std::uint64_t read_runs(int disk) const;
  std::uint64_t write_runs(int disk) const;
  std::uint64_t total_read_runs() const;
  std::uint64_t total_write_runs() const;
  /// Payload bytes of counted accesses, tallied at issue like
  /// reads()/writes(): a block access adds block_bytes(), a run
  /// count * block_bytes(), and a range access only its range length —
  /// the byte savings the sub-block plane is measured by.
  std::uint64_t read_bytes(int disk) const;
  std::uint64_t write_bytes(int disk) const;
  std::uint64_t total_read_bytes() const;
  std::uint64_t total_write_bytes() const;

  /// Flip `mask` into the stored byte at `offset` of a block, with no
  /// counter update and no IoResult: the direct silent-corruption
  /// backdoor for scrub tests (a plan's SilentCorruption entries and
  /// bit_rot_rate land on the same counter). The caller must exclude
  /// concurrent I/O on the block, exactly as for raw_block writes.
  void corrupt_block(int disk, std::int64_t block, std::size_t offset = 0,
                     std::uint8_t mask = 0xFF);

  /// Fault events observed by counted I/O since construction: injected
  /// sector errors and torn writes surfaced to callers, silent
  /// corruptions planted (scripted, bit-rot, and corrupt_block), and
  /// disks that transitioned to failed (scripted fail_after trips and
  /// explicit fail_disk calls; repairs don't subtract).
  std::uint64_t sector_errors() const { return sector_errors_.value(); }
  std::uint64_t torn_writes() const { return torn_writes_.value(); }
  std::uint64_t silent_corruptions() const {
    return silent_corruptions_.value();
  }
  std::uint64_t disk_failure_events() const {
    return disk_failure_events_.value();
  }

  /// Export the per-disk counters, totals, and fault events through
  /// `registry` snapshots as `{prefix}_reads{disk="0"}`,
  /// `{prefix}_reads_total`, `{prefix}_sector_errors`, ... plus a
  /// `{prefix}_failed_disks` gauge. The collector detaches when the
  /// array is destroyed (or on detach_metrics). Safe to attach before
  /// the geometry is final: the snapshot-time walk holds the geometry
  /// lock shared, so a concurrent add_disk (which takes it exclusive)
  /// cannot reallocate the disk table under it.
  /// A non-empty `labels` block (e.g. `volume="3"`) is merged into the
  /// per-disk label set and appended to the totals, so many arrays can
  /// share one registry in multi-volume services.
  void attach_metrics(obs::Registry& registry,
                      const std::string& prefix = "disk_array",
                      const std::string& labels = "");
  void detach_metrics() { metrics_handle_.remove(); }

 private:
  static constexpr std::uint64_t kNeverFails = ~std::uint64_t{0};

  struct Disk {
    Buffer data;
    // Registry-backed counters (obs::Counter is the same relaxed atomic
    // the bespoke counters were); the reads()/writes()/*_runs()
    // accessors stay the authoritative API and keep counting whether or
    // not metrics are enabled or a registry is attached.
    obs::Counter reads;
    obs::Counter writes;
    obs::Counter read_runs;
    obs::Counter write_runs;
    obs::Counter read_bytes;
    obs::Counter write_bytes;
    std::atomic<std::uint64_t> ios{0};  // reads + writes, for fail_after
    std::atomic<std::uint64_t> fail_after{kNeverFails};
    std::atomic<bool> failed{false};
  };

  // Marks the disk failed, counting the event only on the transition.
  void mark_failed(Disk& d);

  void check(int disk, std::int64_t block) const;  // throws out_of_range
  void check_run(int disk, std::int64_t block, std::int64_t count) const;
  void check_range(int disk, std::int64_t block, std::size_t offset,
                   std::size_t len) const;
  bool roll(double rate);  // one injection-RNG draw under fault_mu_
  bool is_bad(int disk, std::int64_t block) const;
  void clear_bad(int disk, std::int64_t block);
  /// Byte flip (offset, mask) a counted write of this block must apply
  /// after persisting, or nullopt: consumes a scripted SilentCorruption
  /// entry for the block, else draws against bit_rot_rate. Runs in the
  /// writing thread, so the flip itself inherits the writer's exclusion.
  std::optional<std::pair<std::size_t, std::uint8_t>> rot_for_write(
      int disk, std::int64_t block);

  std::vector<std::unique_ptr<Disk>> disks_;
  std::int64_t blocks_per_disk_;
  std::size_t block_bytes_;

  // Guards the disks_ table's *shape* only: add_disk takes it exclusive
  // around the push_back, the metrics collector takes it shared for its
  // walk. Hot I/O paths index disks_ lock-free — they are serialised
  // against geometry growth by the migrator's exclusive ops gate, which
  // is the contract add_disk callers already honour.
  mutable std::shared_mutex geom_mu_;

  // Fault-injection state (cold path; guarded by fault_mu_ except the
  // per-disk atomics above).
  mutable std::mutex fault_mu_;
  bool injecting_ = false;
  double sector_error_rate_ = 0.0;
  double torn_write_rate_ = 0.0;
  double bit_rot_rate_ = 0.0;
  std::vector<std::pair<int, std::int64_t>> bad_blocks_;
  std::vector<std::pair<int, std::int64_t>> rot_blocks_;  // scripted, one-shot
  Rng rng_{0};

  // Array-wide fault-event counters.
  obs::Counter sector_errors_;
  obs::Counter torn_writes_;
  obs::Counter silent_corruptions_;
  obs::Counter disk_failure_events_;

  // Declared last so the collector detaches before anything it reads
  // is torn down.
  obs::CollectorHandle metrics_handle_;
};

}  // namespace c56::mig
