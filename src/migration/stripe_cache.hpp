#pragma once
// Write-through stripe cache of data blocks, keyed by (stripe, data
// index within the stripe). It is one slab of fixed slots allocated at
// construction: a slot holds one stripe's data blocks plus a validity
// bitmap, so the cache can hold partially populated stripes (each block
// becomes valid when it is first read or written through the owning
// controller).
//
// Replacement is LRU with insertion at the cold end (LIP, Qureshi et
// al., ISCA 2007): a fill of an absent stripe takes a free slot if
// there is one, else the coldest slot, and leaves the stripe at the
// eviction end; only a later touch (a lookup hit, or a fill of the
// stripe while it is present) moves it to the hot end. A stripe touched
// once is the next victim, so one-off misses on skewed traffic evict
// one another rather than the hot set. A multi-block request fills its
// stripe cell by cell, so its second cell already promotes it. A
// recycled slot has its validity bits cleared and is re-keyed, so a
// miss that evicts allocates no block storage and zero-fills nothing.
// An invalidated slot goes back to the free list.
//
// The cache never goes to disk itself: the ArrayController performs the
// I/O and calls fill() after every successful read or write
// (write-through), so a hit is always the block's current logical value
// as long as every mutation of the array flows through that controller.
// Anything else touching the array — a disk failure, a rebuild, an
// online-migration hand-off — must invalidate (the controller does this
// on fail_disk/rebuild_disk and exposes invalidate_cache() for external
// writers).
//
// probe() reports which data cells of a stripe are cached without
// copying or touching anything; the write planner prices its reads with
// it. It is a hint only: what it reports may be evicted before lookup().
//
// Thread safety: one mutex guards both lists, the index and every copy, so
// concurrent lookup/fill/invalidate from any number of threads is safe
// and a block is only ever copied whole (no torn block is visible).

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace c56::mig {

class StripeCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;  // stripes installed into a slot
    std::uint64_t evictions = 0;   // stripes pushed out by capacity
  };

  /// Cache of `capacity_stripes` stripes of `cells_per_stripe` data
  /// blocks of `block_bytes` each; every slot is allocated here.
  StripeCache(std::size_t capacity_stripes, int cells_per_stripe,
              std::size_t block_bytes);

  std::size_t capacity_stripes() const { return capacity_; }

  /// Copy the cached value of (stripe, cell) into `out` and move the
  /// stripe to the hot end. False (and no copy) when the block is absent.
  bool lookup(std::int64_t stripe, int cell, std::span<std::uint8_t> out);

  /// Which data cells of `stripe` are cached: bit i of `valid` (64 cells
  /// per word, valid_words() words) is set for each cached cell i. Takes
  /// the lock once, copies no block and counts or touches nothing, so it
  /// is only a hint: a cell it reports may be evicted before its
  /// lookup(), which then misses as usual.
  void probe(std::int64_t stripe, std::span<std::uint64_t> valid) const;
  std::size_t valid_words() const { return valid_words_; }

  /// Install the block's current value. A present stripe moves to the
  /// hot end; an absent one takes a free slot, else the coldest slot,
  /// and stays at the cold end until its next touch.
  void fill(std::int64_t stripe, int cell, std::span<const std::uint8_t> in);

  /// Drop one stripe / everything.
  void invalidate(std::int64_t stripe);
  void invalidate_all();

  Stats stats() const;

 private:
  struct Slot {
    std::int64_t stripe = -1;        // its key while in used_
    std::uint8_t* blocks = nullptr;  // cells_per_stripe blocks, in slab_
    std::uint64_t* valid = nullptr;  // bitmap over data indices, in valid_
  };
  using Slots = std::list<Slot>;

  std::uint8_t* block(const Slot& s, int cell) const {
    return s.blocks + static_cast<std::size_t>(cell) * block_bytes_;
  }

  std::size_t capacity_;
  std::size_t block_bytes_;
  std::size_t valid_words_;  // bitmap words per slot
  std::unique_ptr<std::uint8_t[]> slab_;
  std::vector<std::uint64_t> valid_;

  mutable std::mutex mu_;
  Slots used_;  // keyed slots; front = hot end, back = next victim
  Slots free_;  // never used or invalidated; taken before any eviction
  std::unordered_map<std::int64_t, Slots::iterator> index_;
  Stats stats_;
};

}  // namespace c56::mig
