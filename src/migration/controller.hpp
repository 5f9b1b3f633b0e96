#pragma once
// Block-level RAID controller over a DiskArray for any code in the zoo.
//
// This is the substrate behind two of the paper's qualitative claims:
// Table III's "single write performance" column (a small write costs
// one read-modify-write per parity the block feeds — optimal codes pay
// exactly two) and the degraded-mode service that motivates high
// reliability during conversion (Table VI). The controller serves
// logical data blocks, maintains every parity on writes, reconstructs
// reads under up to two failed disks, rebuilds replaced disks, and
// scrubs stripes.
//
// Geometry: disk d stores target column d + v of the code (v = virtual
// columns, which have no physical disk); logical data blocks enumerate
// the code's data cells stripe by stripe in row-major order.
//
// Every multi-entry write goes through the batched write_range: it
// validates the entries, stable-sorts them by stripe, and makes one call
// per stripe, under the stripe lock, to a single planner, write_stripe.
// write(l, count, in) is one whole-block entry per block and
// write_range(l, off, in) one entry; write(l, in) calls write_stripe
// directly. The service hands it every write of a drained slice at once.
// The planner applies Table III's rule (one read-modify-write per parity
// a block feeds) with every saving the batch allows:
//   * Ranges. Every code in the zoo XORs parity bytewise, so a byte at
//     offset o feeds its parities at offset o only. A touched cell moves
//     the hull of its entries' ranges (entries apply in batch order,
//     later ones win); set_subblock_delta(false) widens it to the block.
//   * Direct parities. A parity whose expanded inputs are all covered
//     whole-block is recomputed from new data, with no pre-read of it
//     or of old data feeding only direct parities. A stripe covered
//     whole is one encode().
//   * RMW or RCW parities. Every other surviving parity is either
//     read-modify-written (rmw: read once over the union of its changed
//     inputs' ranges, updated with parity ^= new ^ old, written once)
//     or reconstruct-written (rcw: its untouched inputs read whole, the
//     parity recomputed from them and the new images). rcw is offered
//     only to a parity the batch writes whole at two or more inputs,
//     none partly and none on a failed disk. plan_repair's search
//     (UnionChoice) picks the mix that fetches the fewest blocks, a
//     cell the stripe cache holds (StripeCache::probe) priced as a
//     fetch but not a disk read; ties keep rmw. A cell whose old image
//     was read and whose bytes do not change is skipped.
//   * Two-phase I/O. All reads (old images from the cache, by
//     reconstruction, or from disk; then parity pre-reads) are retried
//     and happen before any write, so a failed read leaves the stripe
//     untouched. Whole-block accesses on consecutive rows of a column
//     are one vectored run, partial ones range I/O. Torn writes are
//     retried; a disk that dies mid-batch is left to fail_disk/rebuild.
// Parities on failed disks are skipped (rebuild regenerates them).
//
// Reads mirror this through read_range and one reader, read_from_stripe:
// cache hits first, then each missed cell once over its entries' hull, or
// one whole-block read_repaired plan if a missed cell is lost. Only cells
// read or rebuilt whole fill the cache.
//
// An optional write-through stripe cache (set_cache_stripes() or
// C56_CACHE_STRIPES, default off) caches *data* cells, keyed by data
// index, at their current logical value: reads fill it, writes update
// it, so a hit never goes to disk. It is one preallocated slab of
// min(n, stripes()) slots under one mutex; a miss recycles the coldest
// slot instead of allocating. A newly cached stripe enters at the cold
// end and only a second touch (a hit, or another fill, such as the next
// cell of a multi-block request) promotes it, so one-off misses on
// skewed traffic evict one another, not the hot set.
// fail_disk/rebuild_disk invalidate it wholesale; external writers to
// the same DiskArray (e.g. an online-migration hand-off) must call
// invalidate_cache().

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <set>
#include <vector>

#include "codes/erasure_code.hpp"
#include "migration/disk_array.hpp"
#include "migration/stripe_cache.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace c56::mig {

class ArrayController {
 public:
  /// `array` must expose exactly code->cols() - virtual columns disks,
  /// with blocks_per_disk a multiple of code->rows().
  ArrayController(DiskArray& array, std::unique_ptr<ErasureCode> code);

  const ErasureCode& code() const { return *code_; }
  std::int64_t stripes() const { return stripes_; }
  std::int64_t logical_blocks() const;

  /// Data-block I/O. Reads reconstruct on the fly when the block's disk
  /// is failed; writes update every affected surviving parity and, for
  /// a failed data disk, keep the block recoverable through parity.
  /// Both throw out_of_range for a bad block and invalid_argument for a
  /// buffer that is not one block, before any cache lookup or I/O.
  void read(std::int64_t logical, std::span<std::uint8_t> out);
  void write(std::int64_t logical, std::span<const std::uint8_t> in);

  /// Ranged data-block I/O over [logical, logical + count); the buffer
  /// holds count consecutive logical blocks. A degraded stripe is one
  /// repair plan, so each block it needs is read once.
  void read(std::int64_t logical, std::int64_t count,
            std::span<std::uint8_t> out);
  void write(std::int64_t logical, std::int64_t count,
             std::span<const std::uint8_t> in);

  /// Sub-block I/O: write_range replaces bytes [offset, offset +
  /// in.size()) of logical block `logical`, moving only that byte range
  /// of the block and of every surviving parity it feeds. A zero-length
  /// range is a validated no-op; offset/len outside the block throw
  /// out_of_range. A full-block range is write(logical, in).
  void write_range(std::int64_t logical, std::int64_t offset,
                   std::span<const std::uint8_t> in);
  void read_range(std::int64_t logical, std::int64_t offset,
                  std::span<std::uint8_t> out);

  struct SubWrite {
    std::int64_t logical = 0;
    std::int64_t offset = 0;
    std::span<const std::uint8_t> data;
  };
  /// Batched sub-block writes. Entries are validated up front, grouped
  /// by stripe, and applied in batch order within each stripe (later
  /// entries win on overlap), so each affected parity block is read and
  /// written at most once per batch however many entries feed it.
  void write_range(std::span<const SubWrite> batch);

  struct SubRead {
    std::int64_t logical = 0;
    std::int64_t offset = 0;
    std::span<std::uint8_t> out;
  };
  /// Batched sub-block reads, validated like write_range's (one bad
  /// entry aborts the batch before any I/O); each cell is read once.
  void read_range(std::span<const SubRead> batch);

  /// Delta-plane switch (default on). Off widens every write range to
  /// the whole block: the whole-block read-modify-write baseline that
  /// the differential tests and benchmarks compare against.
  void set_subblock_delta(bool on) { subblock_delta_ = on; }
  bool subblock_delta() const { return subblock_delta_; }

  /// Stripe cache control. n == 0 disables (the default, unless the
  /// C56_CACHE_STRIPES environment variable set a size at construction
  /// time). Allocates min(n, stripes()) slots up front; cache_stripes()
  /// reports n. Resizing drops all cached contents.
  void set_cache_stripes(std::size_t n);
  std::size_t cache_stripes() const { return cache_stripes_; }
  /// Drop every cached block. Required after anything other than this
  /// controller writes the underlying DiskArray (migration hand-off,
  /// raw_block pokes, ...).
  void invalidate_cache();
  /// Zeroed stats when the cache is disabled.
  StripeCache::Stats cache_stats() const;

  /// Write-planner decision counters, maintained only while
  /// obs::metrics_enabled(). Per stripe write: full_stripe_writes when
  /// the batch covers every data cell whole (one encode()), else
  /// partial_stripe_writes. Per parity: direct_parities (every input
  /// covered whole, recomputed with no pre-read), rmw_parities
  /// (read-modify-written) or rcw_parities (reconstruct-written from its
  /// untouched inputs); delta_parities is the part of rmw_parities
  /// updated over less than a whole block.
  /// subblock_writes counts entries shorter than a block. ranged_reads
  /// and ranged_writes count batched (span and count-form) calls.
  struct PlannerCounters {
    std::uint64_t ranged_reads = 0;
    std::uint64_t ranged_writes = 0;
    std::uint64_t full_stripe_writes = 0;
    std::uint64_t partial_stripe_writes = 0;
    std::uint64_t direct_parities = 0;
    std::uint64_t rmw_parities = 0;
    std::uint64_t rcw_parities = 0;
    std::uint64_t subblock_writes = 0;
    std::uint64_t delta_parities = 0;
  };
  PlannerCounters planner_counters() const;

  /// Export planner counters, ranged-I/O latency histograms
  /// ({prefix}_read_latency_us / {prefix}_write_latency_us), and the
  /// stripe-cache stats (plus a {prefix}_cache_hit_ratio_pct gauge)
  /// through `registry` snapshots. Detaches on destruction.
  /// A non-empty `labels` block (e.g. `volume="3"`) is appended to
  /// every counter/gauge name so one registry can host many
  /// controllers; the latency histograms are skipped in that case —
  /// histogram names must stay label-free (metrics.hpp), and two
  /// controllers sharing an unlabeled name would collide.
  void attach_metrics(obs::Registry& registry,
                      const std::string& prefix = "controller",
                      const std::string& labels = "");
  void detach_metrics() { metrics_handle_.remove(); }

  /// Record structured events (disk failures, rebuilds, and — while
  /// obs::events_enabled() — rate-limited ranged-I/O debug events) into
  /// `log`, which is kept by reference and must outlive the controller.
  void attach_events(obs::EventLog& log) { events_ = &log; }
  void detach_events() { events_ = nullptr; }

  /// Failure management. At most two concurrent failures (the code's
  /// fault tolerance); fail_disk throws beyond that. Safe under live
  /// I/O: fail_disk and rebuild_disk hold every stripe lock across the
  /// change. failed() and failed_count() take no lock; call them from
  /// the failing thread or under with_stripe_lock.
  void fail_disk(int disk);
  bool failed(int disk) const;
  int failed_count() const { return static_cast<int>(failed_.size()); }
  /// Reconstruct every block of a failed disk in place and mark it
  /// healthy again. Returns blocks rebuilt. One plan_repair plan (every
  /// failed disk's cells erased, this disk's cells the targets) picks
  /// the chains that keep each stripe's surviving reads fewest: 9 per
  /// stripe for a Code 5-6 data disk at p = 5, not 12. rebuild_stripes
  /// runs it stripe by stripe; throws if an I/O fails after its retries.
  /// I/O waits for the whole rebuild: a write to a rebuilt stripe while
  /// the disk is still marked failed would skip its cell.
  std::int64_t rebuild_disk(int disk);

  /// Verify every stripe; returns the indices of inconsistent stripes.
  /// Each stripe is verified under its stripe lock (the same gate every
  /// writer path takes), so a stripe written mid-verify can no longer
  /// report a false positive.
  std::vector<std::int64_t> scrub();

  /// Run `fn` with stripe `stripe` locked against this controller's
  /// writers — the scrubber's coordination hook (scrub() and the write
  /// paths take the same lock internally). `fn` must not call back into
  /// this controller's locked I/O entry points.
  void with_stripe_lock(std::int64_t stripe,
                        const std::function<void()>& fn) const;

  /// Cells of one stripe as a buffer + view. Contract: blocks are read
  /// *as stored* through the raw (uncounted, fault-free) backdoor —
  /// failed columns are NOT reconstructed, they return whatever stale
  /// bytes the dead disk holds, and the stripe cache is bypassed.
  /// Callers that want the logical value of a failed cell must decode
  /// explicitly. read_stripe() allocates a fresh Buffer per call;
  /// loop-heavy callers (scrub, migrators) should call
  /// read_stripe_into() with a reused/pooled buffer instead.
  Buffer read_stripe(std::int64_t stripe) const;
  /// Same contract, into caller storage of exactly
  /// cell_count() * block_bytes() bytes (checked).
  void read_stripe_into(std::int64_t stripe,
                        std::span<std::uint8_t> out) const;

 private:
  struct Locus {
    Cell cell;
    std::int64_t stripe;
  };
  Locus locate(std::int64_t logical) const;
  /// Argument checks naming `what`: blocks [logical, logical + count)
  /// filling `len` bytes; bytes [offset, offset + len) of block logical.
  void check_blocks(std::int64_t logical, std::int64_t count, std::size_t len,
                    const char* what) const;
  void check_range(std::int64_t logical, std::int64_t offset, std::size_t len,
                   const char* what) const;
  int disk_of(int col) const { return col - virtual_cols_; }
  int col_of(int disk) const { return disk + virtual_cols_; }
  std::int64_t block_of(std::int64_t stripe, int row) const {
    return stripe * code_->rows() + row;
  }
  int flat_of(Cell c) const { return c.row * code_->cols() + c.col; }
  bool cell_failed(Cell c) const;
  /// Expanded data-cell inputs of the parity at flat index `pflat`.
  std::span<const Cell> parity_inputs(int pflat) const;
  /// Parities fed by data cell index `idx` (CSR over flat arrays).
  std::span<const Cell> parities_of(int idx) const;
  /// Refills repair_ for the current failure set and drops the cache.
  void reset_recovery_state();
  /// Body of the batched read_range/write_range: checks every entry, then
  /// calls fn(stripe, non-empty entries in batch order) stripe by stripe.
  template <class Sub, class Bytes, class Fn>
  void for_each_stripe(std::span<const Sub> batch, Bytes Sub::*bytes,
                       const char* what, obs::Counter& calls,
                       obs::Histogram& latency, Fn&& fn);
  /// The reader (see header comment): validated, non-empty `ops` of one
  /// stripe; it takes the stripe lock itself, after the cache.
  void read_from_stripe(std::int64_t stripe, std::span<const SubRead> ops);
  /// The write planner (see header comment): applies `ops` — validated,
  /// non-empty, all in `stripe`, in batch order — under the caller's
  /// stripe lock.
  void write_stripe(std::int64_t stripe, std::span<const SubWrite> ops);
  /// Bytes [lo, hi) of one cell of a stripe, moved to or from
  /// block + lo (`block` addresses the whole block).
  template <class Byte>
  struct CellIo {
    Cell cell;
    std::size_t lo, hi;
    Byte* block;
  };
  using CellRead = CellIo<std::uint8_t>;
  using CellWrite = CellIo<const std::uint8_t>;
  /// Counted, retried transfers; both sort `io` and send whole-block
  /// entries on consecutive rows of one column as one vectored run,
  /// everything else as range I/O. read_cells throws on a failed read.
  /// write_cells retries torn writes, leaves a disk that died mid-batch
  /// to fail_disk/rebuild_disk, and throws on any other failure after
  /// issuing the whole batch.
  void read_cells(std::int64_t stripe, std::vector<CellRead>& io);
  /// Whole blocks of data cells of one stripe, lost or not, through one
  /// read_repaired call: a lost cell by its repair_ recipe, any other as
  /// the identity recipe {c, {c}}, so a block shared by several recipes
  /// is read once. Throws if a read fails after its retries.
  void read_repaired_cells(std::int64_t stripe, std::span<const CellRead> io);
  void write_cells(std::int64_t stripe, std::vector<CellWrite>& io);
  /// Stripe cache access for data cell `c`, keyed by its data index.
  bool cache_lookup(std::int64_t stripe, Cell c, std::span<std::uint8_t> out) {
    return cache_ && cache_->lookup(stripe, data_idx(c), out);
  }
  void cache_fill(std::int64_t stripe, Cell c,
                  std::span<const std::uint8_t> v) {
    if (cache_) cache_->fill(stripe, data_idx(c), v);
  }
  int data_idx(Cell c) const {
    return data_index_[static_cast<std::size_t>(flat_of(c))];
  }

  /// Stripe-level writer/scrub exclusion, striped over a fixed pool of
  /// mutexes (two stripes may alias one mutex). I/O paths hold one
  /// stripe lock at a time; fail_disk and rebuild_disk hold all of them,
  /// taken in index order, so aliasing cannot deadlock. Only the stripe
  /// cache's, the event log's and DiskArray's internal mutexes nest
  /// inside. 32, not more: a thread holding all of them plus those must
  /// stay under ThreadSanitizer's limit of 64 locks held at once.
  std::mutex& stripe_lock(std::int64_t s) const {
    return stripe_locks_[static_cast<std::size_t>(s) % kStripeLockStripes];
  }
  static constexpr std::size_t kStripeLockStripes = 32;
  mutable std::array<std::mutex, kStripeLockStripes> stripe_locks_;
  /// Every stripe lock, in index order: held across any change to
  /// failed_ and repair_, which I/O paths read under one stripe lock.
  auto lock_all_stripes() const {
    std::array<std::unique_lock<std::mutex>, kStripeLockStripes> all;
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = std::unique_lock(stripe_locks_[i]);
    }
    return all;
  }

  DiskArray& array_;
  std::unique_ptr<ErasureCode> code_;
  int virtual_cols_;
  std::int64_t stripes_;

  // Flat dense cell metadata, computed once in the constructor and
  // indexed by row * cols + col (no maps on the hot path).
  std::vector<Cell> data_cells_;       // logical order
  std::vector<int> data_index_;        // flat cell -> logical idx, -1
  std::vector<CellKind> kind_;         // flat cell -> kind
  std::vector<int> parities_offset_;   // CSR: per data idx into ...
  std::vector<Cell> parities_cells_;   // ... this parity-cell pool
  std::vector<int> chain_offset_;      // CSR: flat parity -> inputs in ...
  std::vector<Cell> chain_inputs_;     // ... this expanded-input pool
  std::vector<int> chain_begin_;       // flat parity -> index into offsets
                                       // (-1 for non-parity cells)

  std::set<int> failed_;                // failed disk ids
  // Flat cell -> the recipe that reconstructs it under failed_ (target
  // -1 for a surviving cell): its single-target plan_repair recipe, the
  // chain-choice rule rebuild uses. Both change only under
  // lock_all_stripes(), so any one stripe lock is enough to read them.
  std::vector<RecoveryRecipe> repair_;

  std::unique_ptr<StripeCache> cache_;  // null when disabled
  std::size_t cache_stripes_ = 0;

  // Delta write plane switch (see set_subblock_delta).
  bool subblock_delta_ = true;

  // Observability (updated only under obs::metrics_enabled()).
  obs::Counter ranged_reads_;
  obs::Counter ranged_writes_;
  obs::Counter full_stripe_writes_;
  obs::Counter partial_stripe_writes_;
  obs::Counter direct_parities_;
  obs::Counter rmw_parities_;
  obs::Counter rcw_parities_;
  obs::Counter subblock_writes_;
  obs::Counter delta_parities_;
  obs::Histogram read_latency_us_;
  obs::Histogram write_latency_us_;
  // Declared last so the collector detaches before anything it reads.
  /// No-op while no EventLog is attached; hot callers additionally
  /// guard on events_ && obs::events_enabled() before building text.
  void emit_event(obs::EventLevel level, std::string message, int disk = -1,
                  const char* rate_key = nullptr) const;
  obs::EventLog* events_ = nullptr;

  obs::CollectorHandle metrics_handle_;
};

}  // namespace c56::mig
