#pragma once
// Bounded FIFO ring behind EventLog, TraceRecorder and MetricsSampler:
// keeps the newest `capacity` elements (zero counts as one) and counts
// the ones it evicted. Not thread-safe; each owner holds its own mutex.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace c56::obs {

template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity)
      : cap_(std::max<std::size_t>(capacity, 1)) {}

  std::size_t capacity() const { return cap_; }
  /// Elements evicted by push() since construction or clear().
  std::uint64_t overwritten() const { return overwritten_; }

  /// Appends `v`; once full it replaces the oldest and returns true.
  bool push(T v) {
    if (buf_.size() < cap_) {
      buf_.push_back(std::move(v));
      return false;
    }
    buf_[oldest_] = std::move(v);
    oldest_ = (oldest_ + 1) % cap_;
    ++overwritten_;
    return true;
  }

  /// Oldest-to-newest copy of the retained elements.
  std::vector<T> snapshot() const {
    const auto mid = buf_.begin() + static_cast<std::ptrdiff_t>(oldest_);
    std::vector<T> out(mid, buf_.end());
    out.insert(out.end(), buf_.begin(), mid);
    return out;
  }

  void clear() {
    buf_.clear();
    oldest_ = 0;
    overwritten_ = 0;
  }

  /// Keeps the newest min(retained, n) elements; overwritten() stays.
  void set_capacity(std::size_t n) {
    buf_ = snapshot();
    oldest_ = 0;
    cap_ = std::max<std::size_t>(n, 1);
    if (buf_.size() > cap_) {
      buf_.erase(buf_.begin(),
                 buf_.end() - static_cast<std::ptrdiff_t>(cap_));
    }
  }

 private:
  std::size_t cap_;
  std::vector<T> buf_;
  std::size_t oldest_ = 0;  // the oldest element's index once full
  std::uint64_t overwritten_ = 0;
};

}  // namespace c56::obs
