#pragma once
// Write-through LRU cache of stripe data blocks, keyed by (stripe, data
// index within the stripe). It is one slab of fixed slots allocated at
// construction: a slot holds one stripe's data blocks plus a validity
// bitmap, so the cache can hold partially populated stripes (each block
// becomes valid when it is first read or written through the owning
// controller). A fill of an absent stripe takes the least recently used
// slot, clears its validity bits and re-keys it, so a miss that evicts
// allocates no block storage and zero-fills nothing. An invalidated
// slot moves to the LRU tail and is reused first.
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
// Thread safety: one mutex guards the LRU, the index and every copy, so
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

  /// Copy the cached value of (stripe, cell) into `out` and refresh
  /// its LRU position. False (and no copy) when the block is absent.
  bool lookup(std::int64_t stripe, int cell, std::span<std::uint8_t> out);

  /// Which data cells of `stripe` are cached: bit i of `valid` (64 cells
  /// per word, valid_words() words) is set for each cached cell i. Takes
  /// the lock once, copies no block and counts or touches nothing, so it
  /// is only a hint: a cell it reports may be evicted before its
  /// lookup(), which then misses as usual.
  void probe(std::int64_t stripe, std::span<std::uint64_t> valid) const;
  std::size_t valid_words() const { return valid_words_; }

  /// Install the block's current value (insert-or-update + LRU touch),
  /// recycling the least recently used slot when the stripe is absent.
  void fill(std::int64_t stripe, int cell, std::span<const std::uint8_t> in);

  /// Drop one stripe / everything.
  void invalidate(std::int64_t stripe);
  void invalidate_all();

  Stats stats() const;

 private:
  static constexpr std::int64_t kFree = -1;
  struct Slot {
    std::int64_t stripe = kFree;
    std::uint8_t* blocks = nullptr;  // cells_per_stripe blocks, in slab_
    std::uint64_t* valid = nullptr;  // bitmap over data indices, in valid_
  };
  using Lru = std::list<Slot>;

  std::uint8_t* block(const Slot& s, int cell) const {
    return s.blocks + static_cast<std::size_t>(cell) * block_bytes_;
  }

  std::size_t capacity_;
  std::size_t block_bytes_;
  std::size_t valid_words_;  // bitmap words per slot
  std::unique_ptr<std::uint8_t[]> slab_;
  std::vector<std::uint64_t> valid_;

  mutable std::mutex mu_;
  Lru lru_;  // every slot; front = most recently used, free slots last
  std::unordered_map<std::int64_t, Lru::iterator> index_;
  Stats stats_;
};

}  // namespace c56::mig
