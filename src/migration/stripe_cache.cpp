#include "migration/stripe_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace c56::mig {

StripeCache::StripeCache(std::size_t capacity_stripes, int cells_per_stripe,
                         std::size_t block_bytes)
    : capacity_(capacity_stripes),
      block_bytes_(block_bytes),
      valid_words_((static_cast<std::size_t>(cells_per_stripe) + 63) / 64) {
  if (capacity_stripes == 0 || cells_per_stripe <= 0 || block_bytes == 0) {
    throw std::invalid_argument("StripeCache: invalid geometry");
  }
  const std::size_t slot_bytes =
      static_cast<std::size_t>(cells_per_stripe) * block_bytes;
  // Left uninitialised: a block is only read after fill() wrote it, and
  // pages nobody fills are never faulted in.
  slab_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity_stripes *
                                                         slot_bytes);
  valid_.assign(capacity_stripes * valid_words_, 0);
  for (std::size_t i = 0; i < capacity_stripes; ++i) {
    free_.push_back({.blocks = slab_.get() + i * slot_bytes,
                     .valid = valid_.data() + i * valid_words_});
  }
  index_.reserve(capacity_stripes);
}

bool StripeCache::lookup(std::int64_t stripe, int cell,
                         std::span<std::uint8_t> out) {
  std::lock_guard lk(mu_);
  const auto it = index_.find(stripe);
  const auto word = static_cast<std::size_t>(cell) / 64;
  const std::uint64_t bit = 1ull << (static_cast<std::size_t>(cell) % 64);
  if (it == index_.end() || !(it->second->valid[word] & bit)) {
    ++stats_.misses;
    return false;
  }
  std::memcpy(out.data(), block(*it->second, cell), block_bytes_);
  used_.splice(used_.begin(), used_, it->second);
  ++stats_.hits;
  return true;
}

void StripeCache::probe(std::int64_t stripe,
                        std::span<std::uint64_t> valid) const {
  assert(valid.size() == valid_words_);
  std::lock_guard lk(mu_);
  const auto it = index_.find(stripe);
  if (it == index_.end()) {
    std::fill(valid.begin(), valid.end(), 0);
  } else {
    std::copy_n(it->second->valid, valid_words_, valid.begin());
  }
}

void StripeCache::fill(std::int64_t stripe, int cell,
                       std::span<const std::uint8_t> in) {
  assert(stripe >= 0 && "StripeCache keys are non-negative stripe indices");
  std::lock_guard lk(mu_);
  auto it = index_.find(stripe);
  if (it != index_.end()) {
    used_.splice(used_.begin(), used_, it->second);  // a later touch
  } else {
    // A newcomer enters at the cold end: in a free slot while there is
    // one, else in the coldest slot, whose stripe it evicts.
    if (!free_.empty()) {
      used_.splice(used_.end(), free_, free_.begin());
      it = index_.emplace(stripe, std::prev(used_.end())).first;
    } else {
      auto node = index_.extract(used_.back().stripe);
      node.key() = stripe;
      it = index_.insert(std::move(node)).position;
      ++stats_.evictions;
    }
    it->second->stripe = stripe;
    std::fill_n(it->second->valid, valid_words_, 0);
    ++stats_.insertions;
  }
  Slot& s = *it->second;
  std::memcpy(block(s, cell), in.data(), block_bytes_);
  s.valid[static_cast<std::size_t>(cell) / 64] |=
      1ull << (static_cast<std::size_t>(cell) % 64);
}

void StripeCache::invalidate(std::int64_t stripe) {
  std::lock_guard lk(mu_);
  const auto it = index_.find(stripe);
  if (it == index_.end()) return;
  free_.splice(free_.end(), used_, it->second);
  index_.erase(it);
}

void StripeCache::invalidate_all() {
  std::lock_guard lk(mu_);
  free_.splice(free_.end(), used_);
  index_.clear();
}

StripeCache::Stats StripeCache::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace c56::mig
