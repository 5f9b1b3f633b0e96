#include "migration/controller.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "migration/degraded.hpp"
#include "util/env.hpp"
#include "xorblk/pool.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {

namespace {

[[noreturn]] void throw_io(const char* what, const IoResult& r) {
  throw std::runtime_error(std::string("ArrayController: ") + what + " (" +
                           to_string(r.status) + ") at disk " +
                           std::to_string(r.disk) + " block " +
                           std::to_string(r.block));
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// Sorts `io` by (column, row) and calls run(i, j) for each stretch
// [i, j) that goes to disk as one access: whole-block entries on
// consecutive rows of one column form a vectored run; a partial range is
// a stretch of its own.
template <class Io, class Run>
void for_each_run(std::vector<Io>& io, std::size_t bs, Run&& run) {
  std::sort(io.begin(), io.end(), [](const Io& a, const Io& b) {
    return std::pair(a.cell.col, a.cell.row) <
           std::pair(b.cell.col, b.cell.row);
  });
  const auto whole = [bs](const Io& x) { return x.lo == 0 && x.hi == bs; };
  std::size_t i = 0;
  while (i < io.size()) {
    std::size_t j = i + 1;
    while (whole(io[i]) && j < io.size() && whole(io[j]) &&
           io[j].cell.col == io[i].cell.col &&
           io[j].cell.row == io[j - 1].cell.row + 1) {
      ++j;
    }
    run(i, j);
    i = j;
  }
}

// One whole-block entry per block of `buf`, from block `logical` on.
template <class Sub, class Byte>
std::vector<Sub> whole_blocks(std::int64_t logical, std::span<Byte> buf,
                              std::size_t bs) {
  std::vector<Sub> batch(buf.size() / bs);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    batch[k] = {logical + static_cast<std::int64_t>(k), 0,
                buf.subspan(k * bs, bs)};
  }
  return batch;
}

}  // namespace

ArrayController::ArrayController(DiskArray& array,
                                 std::unique_ptr<ErasureCode> code)
    : array_(array), code_(std::move(code)) {
  virtual_cols_ = 0;
  for (int c = 0; c < code_->cols(); ++c) {
    bool all_virtual = true;
    for (int r = 0; r < code_->rows(); ++r) {
      if (code_->kind({r, c}) != CellKind::kVirtual) {
        all_virtual = false;
        break;
      }
    }
    if (all_virtual) {
      ++virtual_cols_;
    } else {
      break;  // virtual columns are the leading ones (Fig. 8)
    }
  }
  if (array_.disks() != code_->cols() - virtual_cols_) {
    throw std::invalid_argument(
        "ArrayController: disk count must match physical columns");
  }
  if (array_.blocks_per_disk() % code_->rows() != 0) {
    throw std::invalid_argument(
        "ArrayController: blocks per disk must be a multiple of rows");
  }
  stripes_ = array_.blocks_per_disk() / code_->rows();

  const int rows = code_->rows();
  const int cols = code_->cols();
  kind_.resize(static_cast<std::size_t>(rows) * cols);
  data_index_.assign(static_cast<std::size_t>(rows) * cols, -1);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto f = static_cast<std::size_t>(r) * cols + c;
      kind_[f] = code_->kind({r, c});
      if (kind_[f] == CellKind::kData) {
        data_index_[f] = static_cast<int>(data_cells_.size());
        data_cells_.push_back({r, c});
      }
    }
  }

  // Per-data-cell parity lists and per-parity expanded input lists, laid
  // out as CSR so the write planner walks plain arrays.
  const std::vector<ParityChain>& expanded = code_->expanded_chains();
  std::vector<std::vector<Cell>> by_data(data_cells_.size());
  chain_begin_.assign(static_cast<std::size_t>(rows) * cols, -1);
  chain_offset_.push_back(0);
  for (const ParityChain& ch : expanded) {
    chain_begin_[static_cast<std::size_t>(flat_of(ch.parity))] =
        static_cast<int>(chain_offset_.size()) - 1;
    for (Cell in : ch.inputs) {
      const int idx = data_idx(in);
      assert(idx >= 0);
      by_data[static_cast<std::size_t>(idx)].push_back(ch.parity);
      chain_inputs_.push_back(in);
    }
    chain_offset_.push_back(static_cast<int>(chain_inputs_.size()));
  }
  parities_offset_.push_back(0);
  for (const std::vector<Cell>& ps : by_data) {
    parities_cells_.insert(parities_cells_.end(), ps.begin(), ps.end());
    parities_offset_.push_back(static_cast<int>(parities_cells_.size()));
  }

  // Checked knob parsing: garbage keeps the default (off), negative or
  // absurd sizes clamp instead of wrapping through strtoull. The cap is
  // a sanity bound on cache stripes, not a recommendation.
  if (const auto v = util::env_int("C56_CACHE_STRIPES", 0, 1 << 22)) {
    if (*v > 0) set_cache_stripes(static_cast<std::size_t>(*v));
  }
}

std::int64_t ArrayController::logical_blocks() const {
  return stripes_ * static_cast<std::int64_t>(data_cells_.size());
}

ArrayController::Locus ArrayController::locate(std::int64_t logical) const {
  assert(logical >= 0 && logical < logical_blocks());
  const auto per_stripe = static_cast<std::int64_t>(data_cells_.size());
  return {data_cells_[static_cast<std::size_t>(logical % per_stripe)],
          logical / per_stripe};
}

bool ArrayController::cell_failed(Cell c) const {
  if (kind_[static_cast<std::size_t>(flat_of(c))] == CellKind::kVirtual) {
    return false;
  }
  return failed_.count(disk_of(c.col)) != 0;
}

std::span<const Cell> ArrayController::parity_inputs(int pflat) const {
  const int k = chain_begin_[static_cast<std::size_t>(pflat)];
  assert(k >= 0 && "cell is not a parity");
  return std::span<const Cell>(chain_inputs_)
      .subspan(static_cast<std::size_t>(chain_offset_[k]),
               static_cast<std::size_t>(chain_offset_[k + 1] -
                                        chain_offset_[k]));
}

std::span<const Cell> ArrayController::parities_of(int idx) const {
  return std::span<const Cell>(parities_cells_)
      .subspan(static_cast<std::size_t>(parities_offset_[idx]),
               static_cast<std::size_t>(parities_offset_[idx + 1] -
                                        parities_offset_[idx]));
}

void ArrayController::read_repaired_cells(std::int64_t stripe,
                                          std::span<const CellRead> io) {
  const std::size_t bs = array_.block_bytes();
  RepairPlan plan;
  for (const CellRead& x : io) {
    const int f = flat_of(x.cell);
    const RecoveryRecipe& r = repair_[static_cast<std::size_t>(f)];
    plan.recipes.push_back(r.target < 0 ? RecoveryRecipe{f, {f}} : r);
    const std::vector<int>& src = plan.recipes.back().sources;
    plan.reads.insert(plan.reads.end(), src.begin(), src.end());
  }
  std::ranges::sort(plan.reads);
  plan.reads.erase(std::ranges::unique(plan.reads).begin(), plan.reads.end());
  PooledBuffer tmp(io.size() * bs);
  const IoResult r = read_repaired(array_, *code_, virtual_cols_, plan, stripe,
                                   1, tmp.span(), RetryPolicy{}, nullptr);
  if (!r.ok()) throw_io("reconstruction read failed", r);
  for (std::size_t k = 0; k < io.size(); ++k) {
    std::memcpy(io[k].block, tmp.data() + k * bs, bs);
  }
}

void ArrayController::check_range(std::int64_t logical, std::int64_t offset,
                                  std::size_t len, const char* what) const {
  const std::size_t bs = array_.block_bytes();
  if (logical < 0 || logical >= logical_blocks() || offset < 0 ||
      offset > static_cast<std::int64_t>(bs) ||
      len > bs - static_cast<std::size_t>(offset)) {
    throw std::out_of_range(std::string("ArrayController::") + what +
                            ": bad range");
  }
}

void ArrayController::check_blocks(std::int64_t logical, std::int64_t count,
                                   std::size_t len, const char* what) const {
  // Overflow-safe range check: `logical + count` can wrap for huge
  // counts, so compare count against the remaining span instead. A
  // range ending exactly at logical_blocks() is valid.
  if (count < 0 || logical < 0 || logical > logical_blocks() ||
      count > logical_blocks() - logical) {
    throw std::out_of_range(std::string("ArrayController::") + what +
                            ": bad logical range");
  }
  if (len != static_cast<std::size_t>(count) * array_.block_bytes()) {
    throw std::invalid_argument(std::string("ArrayController::") + what +
                                ": bad buffer size");
  }
}

void ArrayController::read(std::int64_t logical, std::span<std::uint8_t> out) {
  check_blocks(logical, 1, out.size(), "read");
  const SubRead r{logical, 0, out};
  read_from_stripe(locate(logical).stripe, {&r, 1});
}

void ArrayController::write(std::int64_t logical,
                            std::span<const std::uint8_t> in) {
  check_blocks(logical, 1, in.size(), "write");
  const SubWrite w{logical, 0, in};
  const std::int64_t stripe = locate(logical).stripe;
  std::lock_guard sl(stripe_lock(stripe));
  write_stripe(stripe, {&w, 1});
}

void ArrayController::read(std::int64_t logical, std::int64_t count,
                           std::span<std::uint8_t> out) {
  check_blocks(logical, count, out.size(), "read");
  read_range(whole_blocks<SubRead>(logical, out, array_.block_bytes()));
}

void ArrayController::write(std::int64_t logical, std::int64_t count,
                            std::span<const std::uint8_t> in) {
  check_blocks(logical, count, in.size(), "write");
  write_range(whole_blocks<SubWrite>(logical, in, array_.block_bytes()));
}

void ArrayController::read_cells(std::int64_t stripe,
                                 std::vector<CellRead>& io) {
  const std::size_t bs = array_.block_bytes();
  for_each_run(io, bs, [&](std::size_t i, std::size_t j) {
    const int d = disk_of(io[i].cell.col);
    if (j - i > 1) {
      PooledBuffer staging((j - i) * bs);
      const IoResult r =
          array_.read_blocks(d, block_of(stripe, io[i].cell.row),
                             static_cast<std::int64_t>(j - i), staging.span());
      if (r.ok()) {
        for (std::size_t k = i; k < j; ++k) {
          std::memcpy(io[k].block, staging.data() + (k - i) * bs, bs);
        }
        return;
      }
      // An injected fault: reads are idempotent, so redo the run block
      // by block with retries.
    }
    for (std::size_t k = i; k < j; ++k) {
      const CellRead& x = io[k];
      const IoResult r = read_range_retry(
          array_, d, block_of(stripe, x.cell.row), x.lo,
          {x.block + x.lo, x.hi - x.lo}, RetryPolicy{}, nullptr);
      if (!r.ok()) throw_io("read failed", r);
    }
  });
}

void ArrayController::write_cells(std::int64_t stripe,
                                  std::vector<CellWrite>& io) {
  const std::size_t bs = array_.block_bytes();
  // A disk that dies mid-batch is left to fail_disk/rebuild_disk; any
  // other failure that survives the retries is reported once the batch
  // is out.
  IoResult bad;
  const auto note = [&bad](const IoResult& r) {
    if (bad.ok() && !r.ok() && r.status != IoStatus::kDiskFailed) bad = r;
  };
  for_each_run(io, bs, [&](std::size_t i, std::size_t j) {
    const int d = disk_of(io[i].cell.col);
    if (j - i > 1) {
      PooledBuffer staging((j - i) * bs);
      for (std::size_t k = i; k < j; ++k) {
        std::memcpy(staging.data() + (k - i) * bs, io[k].block, bs);
      }
      const IoResult r =
          array_.write_blocks(d, block_of(stripe, io[i].cell.row),
                              static_cast<std::int64_t>(j - i), staging.span());
      if (r.status != IoStatus::kTornWrite) {
        note(r);
        return;
      }
      // A torn block is repaired by a full rewrite; redo the run block
      // by block so only the torn one is retried with backoff.
    }
    for (std::size_t k = i; k < j; ++k) {
      const CellWrite& x = io[k];
      note(write_range_retry(array_, d, block_of(stripe, x.cell.row), x.lo,
                             {x.block + x.lo, x.hi - x.lo}, RetryPolicy{},
                             nullptr));
    }
  });
  if (!bad.ok()) throw_io("write failed", bad);
}

void ArrayController::write_stripe(std::int64_t stripe,
                                   std::span<const SubWrite> ops) {
  const std::size_t bs = array_.block_bytes();
  const int cols = code_->cols();
  const std::size_t D = data_cells_.size();
  const auto per = static_cast<std::int64_t>(D);

  // A touched data cell. [lo, hi) is the hull of the cell's entries (the
  // whole block with the delta plane off): the only bytes read, compared
  // and written for it. `whole` means an entry covers the block, so the
  // new image needs no old bytes.
  struct Touch {
    int idx;
    std::size_t lo, hi;
    int entries = 0;
    bool whole = false;
    bool need_old = false;
    bool old_full = false;  // the whole old block is known
    bool changed = true;
    const std::uint8_t* img = nullptr;  // new image, block base
  };
  // A surviving parity the batch feeds. kDirect (every input covered
  // whole) and kRcw (reconstruct-write) recompute it from its inputs'
  // current images: a touched input's new one, an untouched input's old
  // one. kRmw reads it over [lo, hi), the union of its changed inputs'
  // ranges (empty: nothing to do), and folds in parity ^= new ^ old.
  // rcw_ok: rcw may be planned (see the choice below).
  enum class How : std::uint8_t { kDirect, kRmw, kRcw };
  struct Par {
    int flat;
    How how;
    bool rcw_ok;
    std::size_t lo, hi;
    std::uint8_t* img = nullptr;  // new image, block base
  };
  // Scratch reused across calls on this thread (the planner never
  // nests), so a steady-state write allocates nothing.
  thread_local std::vector<int> slot_of, old_at, fetch, pslot, weight;
  thread_local std::vector<Touch> touch;
  thread_local std::vector<Par> par;
  thread_local std::vector<CellRead> rd, lost;
  thread_local std::vector<CellWrite> wr;
  thread_local std::vector<const std::uint8_t*> srcs;
  thread_local std::vector<std::uint64_t> cached;
  thread_local UnionChoice pick;
  slot_of.assign(D, -1);
  pslot.assign(kind_.size(), -1);
  touch.clear();
  par.clear();
  fetch.clear();

  for (const SubWrite& w : ops) {
    int& s = slot_of[static_cast<std::size_t>(w.logical % per)];
    if (s < 0) {
      s = static_cast<int>(touch.size());
      touch.push_back({static_cast<int>(w.logical % per), bs, 0});
    }
    Touch& t = touch[static_cast<std::size_t>(s)];
    const auto off = static_cast<std::size_t>(w.offset);
    t.lo = subblock_delta_ ? std::min(t.lo, off) : 0;
    t.hi = subblock_delta_ ? std::max(t.hi, off + w.data.size()) : bs;
    t.whole = t.whole || w.data.size() == bs;
    ++t.entries;
  }
  const std::size_t T = touch.size();
  const auto slot = [&](Cell c) {
    return slot_of[static_cast<std::size_t>(data_idx(c))];
  };
  // old_at: where a cell's old image goes, the touched cells' slots
  // first, then the untouched cells rcw reads (listed in `fetch`).
  old_at = slot_of;

  // Parities, each once; failed ones are regenerated at rebuild time. A
  // parity is direct when the batch covers every expanded input whole.
  // rcw is offered to a parity the batch writes whole at two or more
  // inputs, none partly and none on a failed disk: with one input it
  // never reads less, and it rewrites cells rmw would find unchanged.
  bool full = T == D;
  bool any_rcw = false;
  for (Touch& t : touch) {
    full = full && t.whole;
    t.need_old = !t.whole;
    for (Cell pc : parities_of(t.idx)) {
      const int pf = flat_of(pc);
      if (cell_failed(pc) || pslot[static_cast<std::size_t>(pf)] >= 0) {
        continue;
      }
      pslot[static_cast<std::size_t>(pf)] = static_cast<int>(par.size());
      bool direct = true, rcw_ok = true;
      int whole_inputs = 0;
      for (Cell ic : parity_inputs(pf)) {
        const int s = slot(ic);
        const bool whole = s >= 0 && touch[static_cast<std::size_t>(s)].whole;
        direct = direct && whole;
        whole_inputs += whole;
        rcw_ok = rcw_ok && (s < 0 || whole) && !cell_failed(ic);
      }
      rcw_ok = rcw_ok && !direct && whole_inputs >= 2;
      any_rcw = any_rcw || rcw_ok;
      par.push_back({pf, direct ? How::kDirect : How::kRmw, rcw_ok,
                     direct ? 0 : bs, direct ? bs : 0});
    }
  }

  // rmw or rcw per parity, whichever mix fetches the fewest blocks. One
  // target per non-direct parity: option 0 (rmw) reads it and its
  // touched inputs' old images, option 1 (rcw, where offered) reads its
  // untouched inputs whole. A parity without the choice is a one-option
  // target, which also covers every partly covered cell's old bytes. A
  // cell weighs 64 per block fetched plus 1 from disk, so a cached cell
  // still counts as a copy: fewest blocks first, then fewest disk reads.
  if (any_rcw) {
    weight.assign(kind_.size(), 65);
    if (cache_) {
      cached.resize(cache_->valid_words());
      cache_->probe(stripe, cached);
      for (std::size_t i = 0; i < D; ++i) {
        if (cached[i / 64] >> (i % 64) & 1) {
          weight[static_cast<std::size_t>(flat_of(data_cells_[i]))] = 64;
        }
      }
    }
    pick.clear();
    for (const Par& p : par) {
      if (p.how == How::kDirect) continue;
      pick.add_target();
      pick.add_option();
      pick.add_cell(p.flat);
      for (Cell ic : parity_inputs(p.flat)) {
        if (slot(ic) >= 0) pick.add_cell(flat_of(ic));
      }
      if (!p.rcw_ok) continue;
      pick.add_option();
      for (Cell ic : parity_inputs(p.flat)) {
        if (slot(ic) < 0) pick.add_cell(flat_of(ic));
      }
    }
    const std::span<const std::size_t> choice = pick.solve(weight);
    std::size_t k = 0;
    for (Par& p : par) {
      if (p.how == How::kDirect || choice[k++] == 0) continue;
      p = {p.flat, How::kRcw, true, 0, bs};
      for (Cell ic : parity_inputs(p.flat)) {
        int& at = old_at[static_cast<std::size_t>(data_idx(ic))];
        if (at >= 0) continue;
        at = static_cast<int>(T + fetch.size());
        fetch.push_back(data_idx(ic));
      }
    }
  }
  for (const Par& p : par) {
    if (p.how != How::kRmw) continue;
    for (Cell ic : parity_inputs(p.flat)) {
      if (const int s = slot(ic); s >= 0) {
        touch[static_cast<std::size_t>(s)].need_old = true;
      }
    }
  }

  // Read phase 1: old images (cache, then reconstruction for a failed
  // cell, then disk), over a touched cell's range unless the whole block
  // comes for free; the cells rcw reads whole. imgs holds the old images
  // (old_at order), then T new-image slots: sized by the batch, so a
  // small write's scratch stays small.
  PooledBuffer imgs((2 * T + fetch.size()) * bs);
  std::uint8_t* const news = imgs.data() + (T + fetch.size()) * bs;
  const auto old_of = [&](int idx) {
    return imgs.data() +
           static_cast<std::size_t>(old_at[static_cast<std::size_t>(idx)]) *
               bs;
  };
  rd.clear();
  lost.clear();
  for (Touch& t : touch) {
    if (!t.need_old) continue;
    const Cell c = data_cells_[static_cast<std::size_t>(t.idx)];
    const std::span<std::uint8_t> old{old_of(t.idx), bs};
    if (cache_lookup(stripe, c, old)) {
      t.old_full = true;
    } else if (cell_failed(c)) {
      lost.push_back({c, 0, bs, old.data()});
      t.old_full = true;
    } else {
      rd.push_back({c, t.lo, t.hi, old.data()});
      t.old_full = t.lo == 0 && t.hi == bs;
    }
  }
  for (const int idx : fetch) {
    const Cell c = data_cells_[static_cast<std::size_t>(idx)];
    if (!cache_lookup(stripe, c, {old_of(idx), bs})) {
      rd.push_back({c, 0, bs, old_of(idx)});
    }
  }
  if (!lost.empty()) read_repaired_cells(stripe, lost);
  read_cells(stripe, rd);
  // Untouched cells keep their value, so what rcw read whole may enter
  // the cache now.
  for (const CellRead& x : rd) {
    if (slot(x.cell) < 0) cache_fill(stripe, x.cell, {x.block, bs});
  }

  // New images, entries applied in batch order (later entries win). A
  // cell written by exactly one whole-block entry uses it in place.
  for (const SubWrite& w : ops) {
    const auto s = static_cast<std::size_t>(
        slot_of[static_cast<std::size_t>(w.logical % per)]);
    Touch& t = touch[s];
    if (t.entries == 1 && t.whole) {
      t.img = w.data.data();
      continue;
    }
    if (!t.img) {
      t.img = news + s * bs;
      if (t.need_old) {
        const std::size_t lo = t.old_full ? 0 : t.lo;
        const std::size_t hi = t.old_full ? bs : t.hi;
        std::memcpy(news + s * bs + lo, old_of(t.idx) + lo, hi - lo);
      }
    }
    std::memcpy(news + s * bs + static_cast<std::size_t>(w.offset),
                w.data.data(), w.data.size());
  }
  for (Touch& t : touch) {
    t.changed = !t.need_old || std::memcmp(old_of(t.idx) + t.lo,
                                           t.img + t.lo, t.hi - t.lo) != 0;
  }

  // Read phase 2: rmw parity pre-reads, still before any write. pbuf
  // holds one block per parity, or the whole stripe for encode().
  PooledBuffer pbuf(
      (full ? static_cast<std::size_t>(code_->cell_count())
            : std::max<std::size_t>(1, par.size())) *
      bs);
  rd.clear();
  for (std::size_t k = 0; k < par.size(); ++k) {
    Par& p = par[k];
    p.img = pbuf.data() + k * bs;
    if (p.how != How::kRmw) continue;
    for (Cell ic : parity_inputs(p.flat)) {
      const int s = slot(ic);
      if (s < 0 || !touch[static_cast<std::size_t>(s)].changed) continue;
      p.lo = std::min(p.lo, touch[static_cast<std::size_t>(s)].lo);
      p.hi = std::max(p.hi, touch[static_cast<std::size_t>(s)].hi);
    }
    if (p.lo < p.hi) {
      rd.push_back({cell_of_index(p.flat, cols), p.lo, p.hi, p.img});
    }
  }
  read_cells(stripe, rd);

  // New parity images. A stripe covered whole is one encode(); direct
  // and rcw parities accumulate their inputs' current images; rmw
  // parities fold in parity ^= new ^ old over each changed input's range.
  if (full) {
    StripeView v(pbuf.span(), code_->rows(), cols, bs);
    for (const Touch& t : touch) {
      const auto dst = v.block(data_cells_[static_cast<std::size_t>(t.idx)]);
      std::memcpy(dst.data(), t.img, dst.size());
    }
    code_->encode(v);
    for (Par& p : par) p.img = v.block(cell_of_index(p.flat, cols)).data();
  }
  for (std::size_t k = 0; k < par.size() && !full; ++k) {
    const Par& p = par[k];
    if (p.how != How::kRmw) {
      srcs.clear();
      for (Cell ic : parity_inputs(p.flat)) {
        const int s = slot(ic);
        srcs.push_back(s >= 0 ? touch[static_cast<std::size_t>(s)].img
                              : old_of(data_idx(ic)));
      }
      xor_accumulate(p.img, reinterpret_cast<const void* const*>(srcs.data()),
                     srcs.size(), bs);
      continue;
    }
    for (Cell ic : parity_inputs(p.flat)) {
      const int s = slot(ic);
      if (s < 0 || !touch[static_cast<std::size_t>(s)].changed) continue;
      const Touch& t = touch[static_cast<std::size_t>(s)];
      xor_delta_into(p.img + t.lo, old_of(t.idx) + t.lo, t.img + t.lo,
                     t.hi - t.lo);
    }
  }

  // Write phase: parities and surviving changed data cells in one batch.
  wr.clear();
  for (const Par& p : par) {
    if (p.lo < p.hi) {
      wr.push_back({cell_of_index(p.flat, cols), p.lo, p.hi, p.img});
    }
  }
  for (const Touch& t : touch) {
    const Cell c = data_cells_[static_cast<std::size_t>(t.idx)];
    if (t.changed && !cell_failed(c)) wr.push_back({c, t.lo, t.hi, t.img});
  }
  write_cells(stripe, wr);
  // Only a cell whose full new image is known may enter the cache.
  for (const Touch& t : touch) {
    if (t.whole || t.old_full) {
      cache_fill(stripe, data_cells_[static_cast<std::size_t>(t.idx)],
                 {t.img, bs});
    }
  }

  if (obs::metrics_enabled()) {
    (full ? full_stripe_writes_ : partial_stripe_writes_).inc();
    std::uint64_t direct = 0, rmw = 0, rcw = 0, delta = 0, sub = 0;
    for (const Par& p : par) {
      const bool r = p.how == How::kRmw && p.lo < p.hi;
      direct += p.how == How::kDirect;
      rcw += p.how == How::kRcw;
      rmw += r;
      delta += r && p.hi - p.lo < bs;
    }
    for (const SubWrite& w : ops) sub += w.data.size() < bs;
    direct_parities_.inc(direct);
    rmw_parities_.inc(rmw);
    rcw_parities_.inc(rcw);
    delta_parities_.inc(delta);
    subblock_writes_.inc(sub);
  }
}

void ArrayController::read_from_stripe(std::int64_t stripe,
                                       std::span<const SubRead> ops) {
  const std::size_t bs = array_.block_bytes();
  const std::int64_t first =
      stripe * static_cast<std::int64_t>(data_cells_.size());
  // A touched cell's bytes land in the block at img (an entry's buffer if
  // one wants the whole block, else scratch) over the hull [lo, hi) of its
  // entries' ranges. The vectors are reused (the reader never nests).
  struct Want {
    int idx;
    std::size_t lo, hi;
    std::uint8_t* img = nullptr;
  };
  thread_local std::vector<int> slot_of;
  thread_local std::vector<Want> want;
  thread_local std::vector<CellRead> rd;
  slot_of.assign(data_cells_.size(), -1);
  want.clear();
  const auto slot = [&](const SubRead& e) -> int& {
    return slot_of[static_cast<std::size_t>(e.logical - first)];
  };
  for (const SubRead& e : ops) {
    int& s = slot(e);
    if (s < 0) {
      s = static_cast<int>(want.size());
      want.push_back({static_cast<int>(e.logical - first), bs, 0});
    }
    Want& w = want[static_cast<std::size_t>(s)];
    w.lo = std::min(w.lo, static_cast<std::size_t>(e.offset));
    w.hi = std::max(w.hi, static_cast<std::size_t>(e.offset) + e.out.size());
    if (e.out.size() == bs && !w.img) w.img = e.out.data();
  }
  const auto scratch = static_cast<std::size_t>(
      std::ranges::count(want, nullptr, &Want::img));
  std::optional<PooledBuffer> tmp;
  if (scratch > 0) tmp.emplace(scratch * bs);
  std::uint8_t* next = tmp ? tmp->data() : nullptr;
  // Cache hits are served before the stripe lock.
  rd.clear();
  for (Want& w : want) {
    if (!w.img) w.img = std::exchange(next, next + bs);
    const Cell c = data_cells_[static_cast<std::size_t>(w.idx)];
    if (!cache_lookup(stripe, c, {w.img, bs})) {
      rd.push_back({c, w.lo, w.hi, w.img});
    }
  }
  if (!rd.empty()) {
    std::lock_guard sl(stripe_lock(stripe));
    // With a lost cell among the misses, one plan serves every missed
    // cell whole, so each block it needs is read once.
    if (std::ranges::any_of(rd, [&](const CellRead& x) {
          return cell_failed(x.cell);
        })) {
      for (CellRead& x : rd) x = {x.cell, 0, bs, x.block};
      read_repaired_cells(stripe, rd);
    } else {
      read_cells(stripe, rd);
    }
    for (const CellRead& x : rd) {
      if (x.lo == 0 && x.hi == bs) cache_fill(stripe, x.cell, {x.block, bs});
    }
  }
  for (const SubRead& e : ops) {
    const std::uint8_t* img = want[static_cast<std::size_t>(slot(e))].img;
    if (e.out.data() != img) {
      std::memcpy(e.out.data(), img + e.offset, e.out.size());
    }
  }
}

void ArrayController::read_range(std::int64_t logical, std::int64_t offset,
                                 std::span<std::uint8_t> out) {
  check_range(logical, offset, out.size(), "read_range");
  if (out.empty()) return;  // validated no-op
  const SubRead r{logical, offset, out};
  read_from_stripe(locate(logical).stripe, {&r, 1});
}

void ArrayController::write_range(std::int64_t logical, std::int64_t offset,
                                  std::span<const std::uint8_t> in) {
  const SubWrite w{logical, offset, in};
  write_range(std::span<const SubWrite>(&w, 1));
}

template <class Sub, class Bytes, class Fn>
void ArrayController::for_each_stripe(std::span<const Sub> batch,
                                      Bytes Sub::*bytes, const char* what,
                                      obs::Counter& calls,
                                      obs::Histogram& latency, Fn&& fn) {
  for (const Sub& e : batch) {
    check_range(e.logical, e.offset, (e.*bytes).size(), what);
  }
  // Validated zero-length entries are no-ops; group the rest by stripe,
  // preserving batch order within each stripe (overlaps apply in order).
  std::vector<Sub> ops;
  ops.reserve(batch.size());
  for (const Sub& e : batch) {
    if (!(e.*bytes).empty()) ops.push_back(e);
  }
  if (ops.empty()) return;
  const bool obs_on = obs::metrics_enabled();
  std::chrono::steady_clock::time_point t0;
  if (obs_on) t0 = std::chrono::steady_clock::now();
  const auto per = static_cast<std::int64_t>(data_cells_.size());
  std::stable_sort(ops.begin(), ops.end(), [per](const Sub& a, const Sub& b) {
    return a.logical / per < b.logical / per;
  });
  for (std::size_t i = 0, j = 0; i < ops.size(); i = j) {
    const std::int64_t stripe = ops[i].logical / per;
    while (j < ops.size() && ops[j].logical / per == stripe) ++j;
    fn(stripe, std::span<const Sub>(ops.data() + i, j - i));
  }
  if (obs_on) {
    calls.inc();
    latency.observe(elapsed_us(t0));
  }
}

void ArrayController::read_range(std::span<const SubRead> batch) {
  for_each_stripe(batch, &SubRead::out, "read_range", ranged_reads_,
                  read_latency_us_,
                  [this](std::int64_t stripe, std::span<const SubRead> ops) {
                    read_from_stripe(stripe, ops);
                  });
}

void ArrayController::write_range(std::span<const SubWrite> batch) {
  // Priced by the perf-smoke overhead gate: with a log attached but
  // events disabled this is the layer's whole hot-path cost.
  if (events_ && obs::events_enabled()) {
    emit_event(obs::EventLevel::kDebug,
               "batched write: " + std::to_string(batch.size()) + " entries",
               -1, "batched_write");
  }
  for_each_stripe(batch, &SubWrite::data, "write_range", ranged_writes_,
                  write_latency_us_,
                  [this](std::int64_t stripe, std::span<const SubWrite> ops) {
                    std::lock_guard sl(stripe_lock(stripe));
                    write_stripe(stripe, ops);
                  });
}

void ArrayController::set_cache_stripes(std::size_t n) {
  cache_stripes_ = n;
  if (n == 0) {
    cache_.reset();
    return;
  }
  // More slots than stripes could never be used.
  cache_ = std::make_unique<StripeCache>(
      std::min<std::size_t>(n, static_cast<std::size_t>(stripes_)),
      static_cast<int>(data_cells_.size()), array_.block_bytes());
}

void ArrayController::invalidate_cache() {
  if (cache_) cache_->invalidate_all();
}

StripeCache::Stats ArrayController::cache_stats() const {
  return cache_ ? cache_->stats() : StripeCache::Stats{};
}

ArrayController::PlannerCounters ArrayController::planner_counters() const {
  return {ranged_reads_.value(),       ranged_writes_.value(),
          full_stripe_writes_.value(), partial_stripe_writes_.value(),
          direct_parities_.value(),    rmw_parities_.value(),
          rcw_parities_.value(),       subblock_writes_.value(),
          delta_parities_.value()};
}

void ArrayController::attach_metrics(obs::Registry& registry,
                                     const std::string& prefix,
                                     const std::string& labels) {
  // `lb` goes on every counter/gauge so many controllers can share one
  // registry (e.g. volume="3"); histograms are emitted only unlabeled
  // (label-free names are a histogram contract, see metrics.hpp).
  const std::string lb = labels.empty() ? "" : "{" + labels + "}";
  metrics_handle_ =
      registry.add_collector([this, prefix, lb](obs::Collection& c) {
    c.counter(prefix + "_ranged_reads" + lb, ranged_reads_.value());
    c.counter(prefix + "_ranged_writes" + lb, ranged_writes_.value());
    c.counter(prefix + "_full_stripe_writes" + lb,
              full_stripe_writes_.value());
    c.counter(prefix + "_partial_stripe_writes" + lb,
              partial_stripe_writes_.value());
    c.counter(prefix + "_direct_parities" + lb, direct_parities_.value());
    c.counter(prefix + "_rmw_parities" + lb, rmw_parities_.value());
    c.counter(prefix + "_rcw_parities" + lb, rcw_parities_.value());
    c.counter(prefix + "_subblock_writes" + lb, subblock_writes_.value());
    c.counter(prefix + "_delta_parities" + lb, delta_parities_.value());
    if (lb.empty()) {
      c.histogram(prefix + "_read_latency_us", read_latency_us_.snapshot());
      c.histogram(prefix + "_write_latency_us", write_latency_us_.snapshot());
    }
    const StripeCache::Stats cs = cache_stats();
    c.counter(prefix + "_cache_hits" + lb, cs.hits);
    c.counter(prefix + "_cache_misses" + lb, cs.misses);
    c.counter(prefix + "_cache_insertions" + lb, cs.insertions);
    c.counter(prefix + "_cache_evictions" + lb, cs.evictions);
    c.gauge(prefix + "_cache_stripes" + lb,
            static_cast<std::int64_t>(cache_stripes_));
    const std::uint64_t total = cs.hits + cs.misses;
    c.gauge(prefix + "_cache_hit_ratio_pct" + lb,
            total == 0 ? 0 : static_cast<std::int64_t>(cs.hits * 100 / total));
  });
}

void ArrayController::emit_event(obs::EventLevel level, std::string message,
                                 int disk, const char* rate_key) const {
  obs::EventLog* log = events_;
  if (!log) return;
  obs::Event ev;
  ev.level = level;
  ev.category = "controller";
  ev.message = std::move(message);
  ev.disk = disk;
  if (rate_key) {
    log->emit(std::move(ev), rate_key);
  } else {
    log->emit(std::move(ev));
  }
}

void ArrayController::reset_recovery_state() {
  std::vector<int> cols;
  for (int d : failed_) cols.push_back(col_of(d));
  const std::vector<int> lost = code_->erased_cells_of_columns(cols);
  repair_.assign(kind_.size(), RecoveryRecipe{});
  for (int cell : lost) {
    auto plan = plan_repair(code_->cell_count(), code_->chain_specs(), lost,
                            std::span(&cell, 1));
    if (!plan) throw std::runtime_error("failure pattern is not decodable");
    repair_[static_cast<std::size_t>(cell)] = std::move(plan->recipes[0]);
  }
  invalidate_cache();
}

void ArrayController::fail_disk(int disk) {
  if (disk < 0 || disk >= array_.disks()) {
    throw std::out_of_range("fail_disk: no such disk");
  }
  const auto locks = lock_all_stripes();
  if (failed_.count(disk)) return;
  if (failed_count() >= 2) {
    throw std::runtime_error("fail_disk: fault tolerance exceeded");
  }
  failed_.insert(disk);
  reset_recovery_state();
  emit_event(obs::EventLevel::kWarn,
             "disk " + std::to_string(disk) +
                 " failed; recovery recipes refreshed, cache invalidated (" +
                 std::to_string(failed_.size()) + " concurrent)",
             disk);
}

bool ArrayController::failed(int disk) const {
  return failed_.count(disk) != 0;
}

std::int64_t ArrayController::rebuild_disk(int disk) {
  const auto locks = lock_all_stripes();
  if (!failed_.count(disk)) {
    throw std::invalid_argument("rebuild_disk: disk is not failed");
  }
  std::vector<int> cols;
  for (int d : failed_) cols.push_back(col_of(d));
  const std::vector<int> lost = code_->erased_cells_of_columns(cols);
  const std::vector<int> targets =
      code_->erased_cells_of_columns(std::vector<int>{col_of(disk)});
  const auto plan =
      plan_repair(code_->cell_count(), code_->chain_specs(), lost, targets);
  if (!plan) throw std::runtime_error("failure pattern is not decodable");
  for (std::int64_t s = 0; s < stripes_; ++s) {
    const IoResult r = rebuild_stripes(array_, *code_, virtual_cols_, *plan,
                                       s, 1, RetryPolicy{}, nullptr);
    if (!r.ok()) throw_io("rebuild failed", r);
  }
  const std::int64_t rebuilt =
      stripes_ * static_cast<std::int64_t>(targets.size());
  failed_.erase(disk);
  // The rebuild both changes the recovery recipes for any later failure
  // and rewrites the array underneath previously cached logical values
  // of this column: re-plan the one, drop the other.
  reset_recovery_state();
  emit_event(obs::EventLevel::kInfo,
             "disk " + std::to_string(disk) + " rebuilt: " +
                 std::to_string(rebuilt) + " blocks reconstructed",
             disk);
  return rebuilt;
}

Buffer ArrayController::read_stripe(std::int64_t stripe) const {
  Buffer buf(static_cast<std::size_t>(code_->cell_count()) *
             array_.block_bytes());
  read_stripe_into(stripe, buf.span());
  return buf;
}

void ArrayController::read_stripe_into(std::int64_t stripe,
                                       std::span<std::uint8_t> out) const {
  const std::size_t bs = array_.block_bytes();
  const int rows = code_->rows();
  const int cols = code_->cols();
  if (out.size() != static_cast<std::size_t>(code_->cell_count()) * bs) {
    throw std::invalid_argument("read_stripe_into: bad buffer size");
  }
  StripeView v(out, rows, cols, bs);
  const DiskArray& array = array_;
  for (int c = 0; c < cols; ++c) {
    const std::span<const std::uint8_t> col_src =
        c < virtual_cols_
            ? std::span<const std::uint8_t>{}
            : array.raw_blocks(disk_of(c),
                               stripe * static_cast<std::int64_t>(rows),
                               rows);
    for (int r = 0; r < rows; ++r) {
      const auto dst = v.block({r, c});
      if (kind_[static_cast<std::size_t>(r) * cols + c] ==
          CellKind::kVirtual) {
        std::memset(dst.data(), 0, bs);
      } else {
        std::memcpy(dst.data(),
                    col_src.data() + static_cast<std::size_t>(r) * bs, bs);
      }
    }
  }
}

std::vector<std::int64_t> ArrayController::scrub() {
  std::vector<std::int64_t> bad;
  const std::size_t bs = array_.block_bytes();
  PooledBuffer buf(static_cast<std::size_t>(code_->cell_count()) * bs);
  for (std::int64_t s = 0; s < stripes_; ++s) {
    std::lock_guard sl(stripe_lock(s));
    read_stripe_into(s, buf.span());
    StripeView v(buf.span(), code_->rows(), code_->cols(), bs);
    if (!code_->verify(v)) bad.push_back(s);
  }
  return bad;
}

void ArrayController::with_stripe_lock(std::int64_t stripe,
                                       const std::function<void()>& fn) const {
  std::lock_guard sl(stripe_lock(stripe));
  fn();
}

}  // namespace c56::mig
