#include "migration/degraded.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "xorblk/buffer.hpp"
#include "xorblk/pool.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

void backoff(const RetryPolicy& policy, int attempt, IoCounters* counters) {
  if (policy.backoff_us == 0) return;
  const std::uint64_t us = static_cast<std::uint64_t>(policy.backoff_us)
                           << (attempt - 1);
  if (counters) counters->backoff_us += us;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

bool transient(IoStatus s) {
  return s == IoStatus::kSectorError || s == IoStatus::kTornWrite;
}

// Issues `io` until it succeeds, fails for good, or runs out of
// attempts; every attempt bumps counters->*issued.
template <class Io>
IoResult with_retry(const RetryPolicy& policy, IoCounters* counters,
                    std::uint64_t IoCounters::*issued, Io&& io) {
  for (int attempt = 1;; ++attempt) {
    const IoResult r = io();
    if (counters) ++(counters->*issued);
    if (r.ok() || !transient(r.status) || attempt >= policy.max_attempts) {
      return r;
    }
    if (counters) ++counters->retries;
    backoff(policy, attempt, counters);
  }
}

// The copies of some cells in stripes [first, first + count), laid out
// in disk order so that every run of consecutive blocks on one disk is
// one contiguous range of slots. Cell i of stripe first + s sits in
// slot[s * cells.size() + i].
struct BatchCells {
  struct Run {
    int disk;
    std::int64_t block, n;
    std::size_t slot;
  };
  std::vector<std::size_t> slot;
  std::vector<Run> runs;

  BatchCells(std::span<const int> cells, const ErasureCode& code,
             int virtual_cols, std::int64_t first, std::int64_t count) {
    std::vector<std::pair<int, std::int64_t>> at;  // (disk, block)
    for (std::int64_t s = first; s < first + count; ++s) {
      for (int c : cells) {
        at.emplace_back(c % code.cols() - virtual_cols,
                        s * code.rows() + c / code.cols());
      }
    }
    std::vector<std::size_t> order(at.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::sort(order, {}, [&](std::size_t x) { return at[x]; });
    slot.resize(at.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto [disk, block] = at[order[k]];
      slot[order[k]] = k;
      if (!runs.empty() && runs.back().disk == disk &&
          runs.back().block + runs.back().n == block) {
        ++runs.back().n;
      } else {
        runs.push_back({disk, block, 1, k});
      }
    }
  }
};

// One call per run of `cells`, to or from `mem`. Reads are idempotent
// and a rewrite repairs a torn block, so a faulted run is redone block
// by block with retries.
IoResult run_io(DiskArray& a, const BatchCells& cells,
                std::span<std::uint8_t> mem, bool write,
                const RetryPolicy& policy, IoCounters* counters) {
  const std::size_t bs = a.block_bytes();
  for (const BatchCells::Run& r : cells.runs) {
    const auto buf =
        mem.subspan(r.slot * bs, static_cast<std::size_t>(r.n) * bs);
    if (counters) {
      (write ? counters->writes : counters->reads) +=
          static_cast<std::uint64_t>(r.n);
    }
    const IoResult whole = write ? a.write_blocks(r.disk, r.block, r.n, buf)
                                 : a.read_blocks(r.disk, r.block, r.n, buf);
    if (whole.ok()) continue;
    // A transient fault's block-by-block redo is the run's retry.
    if (counters && transient(whole.status)) ++counters->retries;
    for (std::int64_t b = 0; b < r.n; ++b) {
      const auto one = buf.subspan(static_cast<std::size_t>(b) * bs, bs);
      const IoResult res =
          write ? write_block_retry(a, r.disk, r.block + b, one, policy,
                                    counters)
                : read_block_retry(a, r.disk, r.block + b, one, policy,
                                   counters);
      if (!res.ok()) return res;
    }
  }
  return IoResult::success();
}

}  // namespace

IoResult read_block_retry(DiskArray& a, int disk, std::int64_t block,
                          std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters) {
  return with_retry(policy, counters, &IoCounters::reads,
                    [&] { return a.read_block(disk, block, out); });
}

IoResult write_block_retry(DiskArray& a, int disk, std::int64_t block,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters) {
  return with_retry(policy, counters, &IoCounters::writes,
                    [&] { return a.write_block(disk, block, in); });
}

IoResult read_range_retry(DiskArray& a, int disk, std::int64_t block,
                          std::size_t offset, std::span<std::uint8_t> out,
                          const RetryPolicy& policy, IoCounters* counters) {
  return with_retry(policy, counters, &IoCounters::reads,
                    [&] { return a.read_range(disk, block, offset, out); });
}

IoResult write_range_retry(DiskArray& a, int disk, std::int64_t block,
                           std::size_t offset,
                           std::span<const std::uint8_t> in,
                           const RetryPolicy& policy, IoCounters* counters) {
  return with_retry(policy, counters, &IoCounters::writes,
                    [&] { return a.write_range(disk, block, offset, in); });
}

IoResult read_repaired(DiskArray& a, const ErasureCode& code,
                       int virtual_cols, const RepairPlan& plan,
                       std::int64_t first, std::int64_t count,
                       std::span<std::uint8_t> out,
                       const RetryPolicy& policy, IoCounters* counters) {
  const std::size_t bs = a.block_bytes();
  const BatchCells in(plan.reads, code, virtual_cols, first, count);
  PooledBuffer src(in.slot.size() * bs);
  if (const IoResult r = run_io(a, in, src.span(), false, policy, counters);
      !r.ok()) {
    return r;
  }
  const std::size_t nr = plan.reads.size();
  std::vector<const void*> srcs;
  std::uint8_t* dst = out.data();
  for (std::size_t s = 0; s < static_cast<std::size_t>(count); ++s) {
    for (const RecoveryRecipe& recipe : plan.recipes) {
      srcs.clear();
      for (int c : recipe.sources) {
        const auto i = static_cast<std::size_t>(
            std::ranges::lower_bound(plan.reads, c) - plan.reads.begin());
        srcs.push_back(src.data() + in.slot[s * nr + i] * bs);
      }
      xor_accumulate(dst, srcs.data(), srcs.size(), bs);
      dst += bs;
    }
  }
  return IoResult::success();
}

IoResult rebuild_stripes(DiskArray& a, const ErasureCode& code,
                         int virtual_cols, const RepairPlan& plan,
                         std::int64_t first, std::int64_t count,
                         const RetryPolicy& policy, IoCounters* counters) {
  const std::size_t bs = a.block_bytes();
  std::vector<int> targets;
  for (const RecoveryRecipe& r : plan.recipes) targets.push_back(r.target);
  const BatchCells out(targets, code, virtual_cols, first, count);
  PooledBuffer rep(out.slot.size() * bs), dst(out.slot.size() * bs);
  if (const IoResult r = read_repaired(a, code, virtual_cols, plan, first,
                                       count, rep.span(), policy, counters);
      !r.ok()) {
    return r;
  }
  // Recipe order to disk order, so every write run is one range.
  for (std::size_t k = 0; k < out.slot.size(); ++k) {
    std::memcpy(dst.data() + out.slot[k] * bs, rep.data() + k * bs, bs);
  }
  return run_io(a, out, dst.span(), true, policy, counters);
}

}  // namespace c56::mig
