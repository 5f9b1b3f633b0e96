#include "migration/online.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "layout/raid.hpp"
#include "util/env.hpp"
#include "util/prime.hpp"
#include "xorblk/pool.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {

namespace {

std::string describe(const IoResult& r) {
  return std::string(to_string(r.status)) + " at disk " +
         std::to_string(r.disk) + " block " + std::to_string(r.block);
}

/// Application byte ranges must lie inside one block.
void check_range(std::size_t bs, std::size_t offset, std::size_t len) {
  if (offset > bs || len > bs - offset) {
    throw std::out_of_range("OnlineMigrator: byte range [" +
                            std::to_string(offset) + ", +" +
                            std::to_string(len) + ") outside block of " +
                            std::to_string(bs) + " bytes");
  }
}

}  // namespace

const char* to_string(MigrationState s) noexcept {
  switch (s) {
    case MigrationState::kIdle:
      return "idle";
    case MigrationState::kConverting:
      return "converting";
    case MigrationState::kStopped:
      return "stopped";
    case MigrationState::kDone:
      return "done";
    case MigrationState::kAborted:
      return "aborted";
  }
  return "?";
}

const char* to_string(TrustDomain d) noexcept {
  switch (d) {
    case TrustDomain::kBothFamilies:
      return "both-families";
    case TrustDomain::kHorizontalOnly:
      return "horizontal-only";
    case TrustDomain::kDeferred:
      return "deferred";
  }
  return "?";
}

OnlineMigrator::OnlineMigrator(DiskArray& array, int p)
    : array_(array), code_(p), m_(p - 1) {
  if (array.disks() == m_ + 1) {
    new_disk_ = m_;  // re-attaching to an interrupted migration
  } else if (array.disks() != m_) {
    throw std::invalid_argument(
        "OnlineMigrator: array must hold p-1 disks (a full RAID-5), or "
        "p disks to resume an interrupted migration");
  }
  if (array.blocks_per_disk() % (p - 1) != 0) {
    throw std::invalid_argument(
        "OnlineMigrator: blocks per disk must be a multiple of p-1");
  }
  groups_ = array.blocks_per_disk() / (p - 1);
  rows_done_ =
      std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(groups_));
  // Eq. 2 as one repair plan: the group's diagonal cells, each rebuilt
  // from its own chain (no other chain holds a diagonal cell).
  std::vector<int> diag;
  for (int i = 0; i <= p - 2; ++i) diag.push_back(i * code_.cols() + p - 1);
  diag_plan_ = *plan_repair(code_.cell_count(), code_.chain_specs(), diag, diag);
  // Checked knob parsing: garbage keeps the default (1 worker),
  // negative/zero clamps to 1 and oversized requests clamp to the
  // 64-worker ceiling instead of overflowing through atoi.
  if (const auto v = util::env_int("C56_CONVERT_WORKERS", 1, 64)) {
    workers_requested_ = static_cast<int>(*v);
  }
}

OnlineMigrator::~OnlineMigrator() {
  request_stop();
  finish();
}

std::int64_t OnlineMigrator::logical_blocks() const {
  return array_.blocks_per_disk() * (m_ - 1);
}

OnlineMigrator::Locus OnlineMigrator::locate(std::int64_t logical) const {
  if (logical < 0 || logical >= logical_blocks()) {
    throw std::out_of_range("OnlineMigrator: logical block " +
                            std::to_string(logical) + " outside [0, " +
                            std::to_string(logical_blocks()) + ")");
  }
  const std::int64_t stripe_row = logical / (m_ - 1);
  const int k = static_cast<int>(logical % (m_ - 1));
  Locus l;
  l.block = stripe_row;
  l.row = static_cast<int>(stripe_row % (code_.p() - 1));
  l.group = static_cast<int>(stripe_row / (code_.p() - 1));
  l.disk = raid5_data_disk(Raid5Flavor::kLeftAsymmetric,
                           static_cast<int>(stripe_row % m_), k, m_);
  return l;
}

void OnlineMigrator::attach_journal(CheckpointSink& sink) {
  std::lock_guard lk(mu_);
  if (running_.load()) {
    throw std::logic_error("attach_journal: conversion already running");
  }
  journal_.emplace(sink);
}

void OnlineMigrator::set_retry_policy(const RetryPolicy& policy) {
  std::lock_guard lk(mu_);
  if (running_.load()) {
    throw std::logic_error("set_retry_policy: conversion already running");
  }
  retry_ = policy;
}

void OnlineMigrator::set_workers(int n) {
  std::lock_guard lk(mu_);
  if (running_.load()) {
    throw std::logic_error("set_workers: conversion already running");
  }
  if (n < 1) {
    throw std::invalid_argument("set_workers: need at least one worker");
  }
  workers_requested_ = std::min(n, 64);
}

int OnlineMigrator::workers() const {
  std::lock_guard lk(mu_);
  return workers_requested_;
}

Buffer OnlineMigrator::new_disk_storage() const {
  if (new_disk_ >= 0) return {};
  return Buffer(static_cast<std::size_t>(array_.blocks_per_disk()) *
                array_.block_bytes());
}

void OnlineMigrator::start() {
  // Step 2's storage is allocated and zero-filled before the gate (only
  // start() and resume() set new_disk_, and both do it this way). The
  // exclusive ops gate then covers publishing the disk, whose append may
  // reallocate the disk table that concurrent app I/O indexes, and
  // launching the workers.
  Buffer disk = new_disk_storage();
  std::unique_lock ops(ops_mu_);
  std::lock_guard lk(mu_);
  if (state_ != MigrationState::kIdle) {
    throw std::logic_error("OnlineMigrator: already started");
  }
  if (new_disk_ < 0) new_disk_ = array_.add_disk(std::move(disk));  // Step 2
  start_group_ = 0;
  start_row_ = 0;
  groups_done_.store(0);
  for (std::int64_t g = 0; g < groups_; ++g) rows_done_[g].store(0);
  if (journal_) {
    std::lock_guard pk(progress_mu_);
    journal_->record(0, 0);
  }
  launch_locked();
  emit_event(obs::EventLevel::kInfo,
             "conversion started: " + std::to_string(groups_) +
                 " groups, " + std::to_string(threads_.size()) + " workers",
             -1, -1, new_disk_);
}

void OnlineMigrator::resume() {
  finish();  // join stopped workers before restarting
  Buffer disk = new_disk_storage();
  std::unique_lock ops(ops_mu_);  // exclude app I/O while re-verifying
  std::lock_guard lk(mu_);
  switch (state_) {
    case MigrationState::kIdle:
    case MigrationState::kStopped:
      break;
    case MigrationState::kDone:
      return;  // nothing left to do
    case MigrationState::kConverting:
      throw std::logic_error("resume: conversion already running");
    case MigrationState::kAborted:
      throw std::logic_error("resume: migration aborted: " + abort_reason_);
  }
  if (new_disk_ < 0) new_disk_ = array_.add_disk(std::move(disk));
  const int p = code_.p();
  std::int64_t g = groups_done_.load();
  int rows = g < groups_ ? rows_done_[g].load() : 0;
  if (journal_) {
    if (const auto rec = journal_->recover()) {
      g = std::min(rec->groups_done, groups_);
      rows = std::min(std::max(rec->diag_rows, 0), p - 1);
    } else {
      g = 0;
      rows = 0;
    }
  }
  // Re-verify before trusting the watermark: the last fully generated
  // group must match a recomputation (a torn new-disk write shows up
  // here), and so must the partial rows of the current group. Rewind to
  // the first stale position (row 0 if a read fails for good, such as
  // an unreadable stored row); regeneration is idempotent.
  const std::size_t bs = array_.block_bytes();
  const auto verified = [&](std::int64_t group, int upto) {
    const auto n = static_cast<std::size_t>(upto);
    PooledBuffer both(2 * n * bs);  // recomputed rows, then stored ones
    std::size_t i = 0;
    if (diagonals(group, 0, upto, both.span()).ok()) {
      while (i < n && std::ranges::equal(both.block(i, bs),
                                         both.block(n + i, bs))) {
        ++i;
      }
    }
    return static_cast<int>(i);
  };
  const std::int64_t journalled_g = g;
  const int journalled_rows = rows;
  if (g > 0 && g <= groups_) {
    const int ok = verified(g - 1, p - 1);
    if (ok < p - 1) {
      --g;
      rows = ok;
    }
  }
  if (g < groups_ && rows > 0) {
    rows = verified(g, rows);
  }
  if (g != journalled_g || rows != journalled_rows) {
    emit_event(obs::EventLevel::kWarn,
               "journal recovery rewound watermark from group " +
                   std::to_string(journalled_g) + " row " +
                   std::to_string(journalled_rows) + " to group " +
                   std::to_string(g) + " row " + std::to_string(rows) +
                   ": stale diagonal parity detected",
               g);
  }
  // Every row of the watermark group verified: the group is done and
  // only the watermark record after it was lost, so enter the next one.
  if (g < groups_ && rows == p - 1) {
    ++g;
    rows = 0;
  }
  start_group_ = g;
  start_row_ = g < groups_ ? rows : 0;
  groups_done_.store(g);
  // Groups past the watermark may hold diagonals from a previous run;
  // they are regenerated (idempotently), so forget them.
  for (std::int64_t i = 0; i < groups_; ++i) {
    rows_done_[i].store(i < g ? p - 1 : (i == g ? start_row_ : 0));
  }
  if (g >= groups_) {
    state_ = MigrationState::kDone;
    emit_event(obs::EventLevel::kInfo,
               "resume: journal shows conversion already complete");
    return;
  }
  launch_locked();
  emit_event(obs::EventLevel::kInfo,
             "conversion resumed from journal: group " + std::to_string(g) +
                 " row " + std::to_string(start_row_) + " of " +
                 std::to_string(groups_) + " groups",
             g);
}

void OnlineMigrator::launch_locked() {
  const std::int64_t total = groups_ - start_group_;
  const int n = static_cast<int>(std::clamp<std::int64_t>(
      workers_requested_, 1, std::max<std::int64_t>(total, 1)));
  ranges_.clear();
  ranges_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    auto r = std::make_unique<WorkerRange>();
    r->lo = start_group_ + total * w / n;
    r->hi = start_group_ + total * (w + 1) / n;
    ranges_.push_back(std::move(r));
  }
  state_ = MigrationState::kConverting;
  stop_requested_.store(false);
  running_.store(true);
  active_workers_.store(n);
  threads_.clear();
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    threads_.emplace_back([this, w] { worker_entry(w); });
  }
}

void OnlineMigrator::request_stop() {
  stop_requested_.store(true);
  cv_.notify_all();
}

void OnlineMigrator::finish() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

MigrationState OnlineMigrator::state() const {
  std::lock_guard lk(mu_);
  return state_;
}

void OnlineMigrator::scrub_group(
    std::int64_t group, const std::function<void(TrustDomain)>& fn) const {
  if (group < 0 || group >= groups_) {
    throw std::out_of_range("OnlineMigrator::scrub_group: group " +
                            std::to_string(group));
  }
  std::shared_lock ops(ops_mu_);
  std::lock_guard gl(group_lock(group));
  const int rows = rows_done_[group].load(std::memory_order_acquire);
  TrustDomain td;
  if (rows >= code_.p() - 1) {
    td = TrustDomain::kBothFamilies;
  } else if (rows == 0) {
    td = TrustDomain::kHorizontalOnly;
  } else {
    td = TrustDomain::kDeferred;
  }
  fn(td);
}

std::string OnlineMigrator::abort_reason() const {
  std::lock_guard lk(mu_);
  return abort_reason_;
}

void OnlineMigrator::abort_locked(std::string reason) {
  state_ = MigrationState::kAborted;
  abort_reason_ = std::move(reason);
  emit_event(obs::EventLevel::kError, "conversion aborted: " + abort_reason_);
}

void OnlineMigrator::abort_from_io(std::string reason) {
  {
    std::lock_guard lk(mu_);
    if (state_ == MigrationState::kConverting) abort_locked(std::move(reason));
  }
  cv_.notify_all();
}

void OnlineMigrator::charge(const IoCounters& c, Flow flow) {
  std::lock_guard sk(stats_mu_);
  if (flow == Flow::kApplication) {
    stats_.app_reads += c.reads;
    stats_.app_writes += c.writes;
  } else if (flow == Flow::kConversion) {
    stats_.conv_reads += c.reads;
    stats_.conv_writes += c.writes;
  }
  stats_.retries += c.retries;
  stats_.backoff_us += c.backoff_us;
}

void OnlineMigrator::bump(std::uint64_t OnlineStats::*counter,
                          std::uint64_t n) {
  std::lock_guard sk(stats_mu_);
  stats_.*counter += n;
}

void OnlineMigrator::reconstructed(std::uint64_t n, Flow flow,
                                   std::int64_t group, int disk,
                                   std::int64_t block) {
  if (n == 0) return;
  bump(&OnlineStats::reconstructed_reads, n);
  if (events_) {
    emit_event(obs::EventLevel::kWarn,
               std::string("read served by parity reconstruction (") +
                   (flow == Flow::kConversion ? "conversion" : "application") +
                   " flow)",
               group, -1, disk, block, "reconstructed_read");
  }
}

std::optional<RepairPlan> OnlineMigrator::plan_cells(
    std::size_t chains, std::vector<int>& erased,
    std::span<const int> targets) const {
  for (int d = 0; d < m_; ++d) {
    if (!array_.disk_failed(d)) continue;
    for (int r = 0; r < code_.rows(); ++r) {
      erased.push_back(r * code_.cols() + d);
    }
  }
  std::ranges::sort(erased);
  erased.erase(std::ranges::unique(erased).begin(), erased.end());
  return plan_repair(code_.cell_count(),
                     std::span(code_.chain_specs()).first(chains), erased,
                     targets);
}

IoResult OnlineMigrator::read_source(int disk, std::int64_t block,
                                     std::size_t offset,
                                     std::span<std::uint8_t> out, Flow flow) {
  IoCounters c;
  IoResult r = IoResult::fail(IoStatus::kDiskFailed, disk, block);
  if (!array_.disk_failed(disk)) {
    r = read_range_retry(array_, disk, block, offset, out, retry_, &c);
  }
  if (!r.ok() && disk < m_) {
    // Reconstruct through the RAID-5 horizontal parity (Eq. 1) alone:
    // every row of the source array XORs to zero, so the block is the
    // XOR of its m-1 row mates (data and parity cells alike, hard sector
    // errors as well as whole-disk loss). The recipe covers whole
    // blocks; only the range is copied out.
    const int cell =
        static_cast<int>(block % code_.rows()) * code_.cols() + disk;
    std::vector<int> erased{cell};
    if (const auto plan = plan_cells(static_cast<std::size_t>(m_), erased,
                                     std::span(&cell, 1))) {
      PooledBuffer whole(array_.block_bytes());
      r = read_repaired(array_, code_, 0, *plan, block / code_.rows(), 1,
                        whole.span(), retry_, &c);
      if (r.ok()) {
        std::memcpy(out.data(), whole.data() + offset, out.size());
        reconstructed(1, flow, -1, disk, block);
      }
    }
  }
  charge(c, flow);
  return r;
}

IoResult OnlineMigrator::diagonals(std::int64_t group, int lo, int hi,
                                   std::span<std::uint8_t> stored) {
  const int p = code_.p();
  std::vector<int> lost;  // every diagonal is erased: none is a source
  for (int i = 0; i <= p - 2; ++i) lost.push_back(i * p + p - 1);
  const std::vector<int> targets(lost.begin() + lo, lost.begin() + hi);
  for (IoResult r = IoResult::success();;) {  // r: the last failed read
    std::optional<RepairPlan> own;  // else the fault-free whole group's
    if (hi - lo < p - 1 || !stored.empty() || !r.ok() ||
        array_.failed_disks() != 0) {
      own = plan_cells(2 * static_cast<std::size_t>(p - 1), lost, targets);
      if (!own) {  // r broke the group, or failed disks alone did
        const int c = *std::ranges::find_if(
            lost, [p](int x) { return x % p != p - 1; });
        return r.ok() ? IoResult::fail(IoStatus::kDiskFailed, c % p,
                                       group * (p - 1) + c / p)
                      : r;
      }
      if (!stored.empty()) {
        for (int t : targets) {  // and each stored copy, as it reads
          own->recipes.push_back({t, {t}});
          own->reads.insert(std::ranges::upper_bound(own->reads, t), t);
        }
      }
    }
    IoCounters c;
    const RepairPlan& plan = own ? *own : diag_plan_;
    r = stored.empty()
            ? rebuild_stripes(array_, code_, 0, plan, group, 1, retry_, &c)
            : read_repaired(array_, code_, 0, plan, group, 1, stored, retry_,
                            &c);
    charge(c, Flow::kConversion);
    if (r.ok()) break;
    // A failed disk brings its whole column into the next plan.
    const int cell =
        static_cast<int>(r.block % code_.rows()) * code_.cols() + r.disk;
    if (r.disk >= m_ || std::ranges::binary_search(lost, cell)) return r;
    lost.push_back(cell);
  }
  // Erased data cells on the targets' chains (Eq. 2 puts cell (r, j) on
  // diagonal row <r + j + 1>_p).
  const auto rebuilt = std::ranges::count_if(lost, [&](int x) {
    const int row = pmod(x / p + x % p + 1, p);
    return x % p != p - 1 && row >= lo && row < hi;
  });
  reconstructed(static_cast<std::uint64_t>(rebuilt), Flow::kConversion,
                group, -1, -1);
  return IoResult::success();
}

std::int64_t OnlineMigrator::claim_group(int w) {
  {
    WorkerRange& own = *ranges_[static_cast<std::size_t>(w)];
    std::lock_guard lk(own.mu);
    if (own.lo < own.hi) return own.lo++;
  }
  // Own range drained: steal the tail group of the fullest remaining
  // range, so owners keep consuming their front in sequential order.
  for (;;) {
    int victim = -1;
    std::int64_t best = 0;
    for (int v = 0; v < static_cast<int>(ranges_.size()); ++v) {
      if (v == w) continue;
      WorkerRange& r = *ranges_[static_cast<std::size_t>(v)];
      std::lock_guard lk(r.mu);
      if (r.hi - r.lo > best) {
        best = r.hi - r.lo;
        victim = v;
      }
    }
    if (victim < 0) return -1;
    WorkerRange& r = *ranges_[static_cast<std::size_t>(victim)];
    std::lock_guard lk(r.mu);
    if (r.lo < r.hi) return --r.hi;
    // Drained between the scan and the lock; rescan for another victim.
  }
}

void OnlineMigrator::note_progress(std::int64_t group, int rows) {
  const int p = code_.p();
  std::lock_guard pk(progress_mu_);
  if (group == groups_done_.load()) {
    // Row-level checkpoint of the watermark group. With one worker this
    // reproduces the sequential converter's journal sequence exactly.
    if (journal_) journal_->record(group, rows);
  }
  if (rows == p - 1) {
    const std::int64_t old = groups_done_.load();
    std::int64_t wm = old;
    while (wm < groups_ &&
           rows_done_[wm].load(std::memory_order_acquire) == p - 1) {
      ++wm;
    }
    if (wm != old) {
      groups_done_.store(wm);
      if (journal_) {
        const int r =
            wm < groups_ ? rows_done_[wm].load(std::memory_order_acquire) : 0;
        journal_->record(wm, r);
      }
      if (events_ && obs::events_enabled()) {
        emit_event(obs::EventLevel::kDebug,
                   "watermark advanced to group " + std::to_string(wm), wm,
                   -1, -1, -1, "watermark");
      }
    }
  }
}

void OnlineMigrator::conversion_worker(int w) {
  const int p = code_.p();
  for (;;) {
    const std::int64_t g = claim_group(w);
    if (g < 0) return;
    {
      std::unique_lock lk(mu_);
      // A pending application write preempts the converter between
      // stripe groups (Algorithm 2, "interrupt the conversion thread").
      cv_.wait(lk, [this] {
        return pending_writers_.load() == 0 || stop_requested_.load() ||
               state_ == MigrationState::kAborted;
      });
      if (state_ == MigrationState::kAborted || stop_requested_.load()) {
        return;
      }
    }
    std::shared_lock ops(ops_mu_);
    std::lock_guard gl(group_lock(g));
    // The group's diagonals in one pass of the rebuild's executor:
    // 2(p-2) source read runs, one diagonal-column write run, or one
    // read run per surviving source column when a column is erased. Rows
    // below `first` were verified by resume() and are rewritten with the
    // same values.
    if (const IoResult res = diagonals(g, 0, p - 1); !res.ok()) {
      abort_from_io("conversion cannot generate the diagonals of group " +
                    std::to_string(g) + ": " + describe(res));
      return;
    }
    // Rows are published and journalled one at a time, so the journal
    // sequence is the row-by-row converter's and a stop can still land
    // mid-group. Both happen under the group lock: a row published
    // after releasing it could miss a write's diagonal update.
    const int first = g == start_group_ ? start_row_ : 0;
    for (int i = first; i <= p - 2; ++i) {
      if (i > first && stop_requested_.load()) return;
      rows_done_[g].store(i + 1, std::memory_order_release);
      if (obs::metrics_enabled()) {
        worker_rows_[static_cast<std::size_t>(w)].inc();
      }
      note_progress(g, i + 1);
    }
  }
}

void OnlineMigrator::worker_entry(int w) {
  conversion_worker(w);
  if (active_workers_.fetch_sub(1) == 1) {
    // Last worker out decides the terminal state.
    std::lock_guard lk(mu_);
    if (state_ == MigrationState::kConverting) {
      state_ = groups_done_.load() >= groups_ ? MigrationState::kDone
                                              : MigrationState::kStopped;
      emit_event(obs::EventLevel::kInfo,
                 state_ == MigrationState::kDone
                     ? "conversion complete: all " + std::to_string(groups_) +
                           " groups generated"
                     : "conversion stopped at watermark group " +
                           std::to_string(groups_done_.load()),
                 -1, w);
    }
    running_.store(false);
  }
}

IoResult OnlineMigrator::read_block(std::int64_t logical,
                                    std::span<std::uint8_t> out) {
  if (out.size() != array_.block_bytes()) {
    throw std::invalid_argument(
        "OnlineMigrator::read_block: buffer is not one block");
  }
  return read_range(logical, 0, out);
}

IoResult OnlineMigrator::read_range(std::int64_t logical, std::size_t offset,
                                    std::span<std::uint8_t> out) {
  check_range(array_.block_bytes(), offset, out.size());
  if (out.empty()) return IoResult::success();  // validated no-op
  const Locus l = locate(logical);
  std::shared_lock ops(ops_mu_);
  std::lock_guard gl(group_lock(l.group));
  return read_source(l.disk, l.block, offset, out, Flow::kApplication);
}

IoResult OnlineMigrator::write_block(std::int64_t logical,
                                     std::span<const std::uint8_t> in) {
  if (in.size() != array_.block_bytes()) {
    throw std::invalid_argument(
        "OnlineMigrator::write_block: buffer is not one block");
  }
  return write_range(logical, 0, in);
}

IoResult OnlineMigrator::write_range(std::int64_t logical, std::size_t offset,
                                     std::span<const std::uint8_t> in) {
  const std::size_t bs = array_.block_bytes();
  check_range(bs, offset, in.size());
  if (in.empty()) return IoResult::success();  // validated no-op
  const Locus l = locate(logical);
  const int p = code_.p();
  pending_writers_.fetch_add(1);
  // Wake the workers once the write is out of the way (or bailed out).
  struct Notifier {
    std::condition_variable& cv;
    ~Notifier() { cv.notify_all(); }
  } notify{cv_};
  std::shared_lock ops(ops_mu_);
  std::unique_lock gl(group_lock(l.group));
  pending_writers_.fetch_sub(1);
  if (running_.load()) bump(&OnlineStats::interruptions);

  // Every parity chain is bytewise, so each parity the block feeds
  // takes parity ^= old ^ new over the same intra-block range.
  const std::size_t len = in.size();
  PooledBuffer old_buf(bs), par_buf(bs);
  const auto old = old_buf.span().first(len);
  const auto par = par_buf.span().first(len);
  const IoResult oldr =
      read_source(l.disk, l.block, offset, old, Flow::kApplication);
  if (!oldr.ok()) {
    // The pre-image is gone: the write (and the block) cannot be kept
    // consistent. Mid-conversion this is the data-loss event Table VI
    // prices, so the migration aborts.
    abort_from_io("application write lost logical block " +
                  std::to_string(logical) + ": " + describe(oldr));
    return oldr;
  }
  const auto put = [&](int disk, std::int64_t block,
                       std::span<const std::uint8_t> bytes) {
    IoCounters c;
    const IoResult w =
        write_range_retry(array_, disk, block, offset, bytes, retry_, &c);
    charge(c, Flow::kApplication);
    return w.ok();
  };

  // Horizontal parity: always maintained (it is the RAID-5 parity).
  // read_source also recovers a latent sector error under the parity
  // range (the row XOR reconstructs parity cells too).
  const int hpar_disk = p - 2 - l.row;
  bool parity_updated = false;
  if (!array_.disk_failed(hpar_disk) &&
      read_source(hpar_disk, l.block, offset, par, Flow::kApplication).ok()) {
    xor_delta_into(par, old, in);
    parity_updated = put(hpar_disk, l.block, par);
  }
  if (!parity_updated) {
    bump(&OnlineStats::degraded_writes);
    if (events_) {
      emit_event(obs::EventLevel::kWarn,
                 "degraded write: horizontal parity not updated for logical "
                 "block " +
                     std::to_string(logical),
                 l.group, -1, hpar_disk, l.block, "degraded_write");
    }
  }

  // Data range itself.
  bool data_written = false;
  if (!array_.disk_failed(l.disk)) {
    data_written = put(l.disk, l.block, in);
  } else {
    bump(&OnlineStats::degraded_writes);
  }

  if (!data_written && !parity_updated) {
    // Neither replica of the update is durable: unrecoverable.
    const IoResult res = IoResult::fail(IoStatus::kDiskFailed, l.disk, l.block);
    abort_from_io("application write lost logical block " +
                  std::to_string(logical) + ": data and parity disks failed");
    return res;
  }

  // Diagonal parity: only if this block's diagonal chain is already on
  // the new disk (otherwise the group's owner will fold the new value
  // in). rows_done_ is read under the same group lock the owner stores
  // it under, so the check cannot race a half-written diagonal. The
  // horizontal-parity anti-diagonal (row + col == p-2) is on no
  // diagonal chain -- but locate() only yields data cells, and every
  // data cell is on exactly one chain, so diag_row is always valid.
  if (new_disk_ >= 0) {
    const int diag_row = pmod(l.row + l.disk + 1, p);
    if (rows_done_[l.group].load(std::memory_order_acquire) > diag_row) {
      const std::int64_t db = l.group * (p - 1) + diag_row;
      // The new disk is no source disk: read_source only retries it,
      // and returns kDiskFailed without I/O when it is failed.
      bool updated =
          read_source(new_disk_, db, offset, par, Flow::kApplication).ok();
      if (updated) {
        xor_delta_into(par, old, in);
        updated = put(new_disk_, db, par);
      }
      // Rebuilds trust a generated diagonal, so one left unreadable or
      // stale on a live new disk is regenerated from the (already
      // updated) data, counted as the conversion I/O it is.
      if (!updated && !array_.disk_failed(new_disk_)) {
        updated = diagonals(l.group, diag_row, diag_row + 1).ok();
      }
      if (!updated) bump(&OnlineStats::degraded_writes);
    }
  }

  return IoResult::success();
}

OnlineStats OnlineMigrator::stats() const {
  std::lock_guard sk(stats_mu_);
  return stats_;
}

void OnlineMigrator::attach_events(obs::EventLog& log,
                                   std::string migration_id) {
  std::lock_guard lk(mu_);
  if (state_ == MigrationState::kConverting) {
    throw std::logic_error("attach_events: conversion already running");
  }
  events_ = &log;
  migration_id_ = std::move(migration_id);
}

void OnlineMigrator::emit_event(obs::EventLevel level, std::string message,
                                std::int64_t group, int worker, int disk,
                                std::int64_t block,
                                const char* rate_key) const {
  obs::EventLog* log = events_;
  if (!log) return;
  obs::Event ev;
  ev.level = level;
  ev.category = "migration";
  ev.message = std::move(message);
  ev.migration_id = migration_id_;
  ev.group = group;
  ev.worker = worker;
  ev.disk = disk;
  ev.block = block;
  if (rate_key) {
    log->emit(std::move(ev), rate_key);
  } else {
    log->emit(std::move(ev));
  }
}

void OnlineMigrator::attach_metrics(obs::Registry& registry,
                                    const std::string& prefix) {
  metrics_handle_ = registry.add_collector([this, prefix](obs::Collection& c) {
    // stats() and workers() take only leaf locks (stats_mu_ / mu_),
    // which never nest inside anything that could be waiting on the
    // registry, so locking them from the collector is safe.
    const OnlineStats s = stats();
    c.counter(prefix + "_conv_reads", s.conv_reads);
    c.counter(prefix + "_conv_writes", s.conv_writes);
    c.counter(prefix + "_app_reads", s.app_reads);
    c.counter(prefix + "_app_writes", s.app_writes);
    c.counter(prefix + "_interruptions", s.interruptions);
    c.counter(prefix + "_retries", s.retries);
    c.counter(prefix + "_reconstructed_reads", s.reconstructed_reads);
    c.counter(prefix + "_degraded_writes", s.degraded_writes);
    c.counter(prefix + "_backoff_us", s.backoff_us);
    const int n = workers();
    std::uint64_t rows_total = 0;
    for (int w = 0; w < n; ++w) {
      const std::uint64_t rows = worker_rows_[static_cast<std::size_t>(w)]
                                     .value();
      c.counter(prefix + "_rows_converted{worker=\"" + std::to_string(w) +
                    "\"}",
                rows);
      rows_total += rows;
    }
    c.counter(prefix + "_rows_converted_total", rows_total);
    {
      std::lock_guard pk(progress_mu_);
      c.counter(prefix + "_journal_checkpoints",
                journal_ ? journal_->records() : 0);
    }
    c.gauge(prefix + "_groups_done", groups_done_.load());
    c.gauge(prefix + "_groups", groups_);
  });
}

std::int64_t OnlineMigrator::rebuild_failed_disks() {
  // Exclusive: no app I/O, and start()/resume() cannot launch workers.
  std::unique_lock ops(ops_mu_);
  if (running_.load()) {
    throw std::logic_error("rebuild_failed_disks: conversion still running");
  }
  std::vector<int> failed;
  for (int d = 0; d < array_.disks(); ++d) {
    if (array_.disk_failed(d)) failed.push_back(d);
  }
  if (failed.empty()) return 0;
  // One plan per trust state (see the header), all made before any write;
  // row XOR alone whenever it decodes the loss.
  const int p = code_.p();
  const std::vector<int> lost = code_.erased_cells_of_columns(failed);
  const std::span chains(code_.chain_specs());
  std::vector<std::optional<RepairPlan>> plans(static_cast<std::size_t>(p));
  plans[0] = plan_repair(code_.cell_count(), chains.first(p - 1), lost, lost);
  const bool rows_only = plans[0].has_value();
  const auto state = [&](std::int64_t g) {
    return rows_only ? 0 : rows_done_[g].load();
  };
  for (std::int64_t g = 0; g < groups_; ++g) {
    const int rows = state(g);
    auto& plan = plans[static_cast<std::size_t>(rows)];
    if (plan) continue;
    // Skip the cells in no trusted chain: the ungenerated diagonals.
    std::vector<int> cells = lost;
    std::erase_if(cells, [&](int c) { return c % p == p - 1 && c / p >= rows; });
    plan = plan_repair(code_.cell_count(),
                       chains.first(static_cast<std::size_t>(p - 1 + rows)),
                       cells, cells);
    if (!plan) {
      throw std::runtime_error(
          "rebuild_failed_disks: failure pattern exceeds what the current "
          "migration state can reconstruct");
    }
  }
  for (int d : failed) array_.repair_disk(d);
  // Batches of consecutive groups sharing a plan, about 64 blocks deep.
  const std::int64_t batch = (64 + p - 2) / (p - 1);
  std::int64_t rebuilt = 0;
  for (std::int64_t g = 0, n; g < groups_; g += n) {
    const int rows = state(g);
    n = 1;
    while (n < batch && g + n < groups_ && state(g + n) == rows) ++n;
    const RepairPlan& plan = *plans[static_cast<std::size_t>(rows)];
    IoCounters c;
    const IoResult r =
        rebuild_stripes(array_, code_, 0, plan, g, n, retry_, &c);
    charge(c, Flow::kRebuild);
    if (!r.ok()) {
      throw std::runtime_error("rebuild_failed_disks: group " +
                               std::to_string(g) + ": " + describe(r));
    }
    rebuilt += n * static_cast<std::int64_t>(plan.recipes.size());
  }
  return rebuilt;
}

bool OnlineMigrator::verify_raid6() const {
  std::unique_lock ops(ops_mu_);  // a consistent snapshot of every group
  const int p = code_.p();
  const std::size_t bs = array_.block_bytes();
  PooledBuffer stripe(static_cast<std::size_t>(code_.cell_count()) * bs);
  for (std::int64_t g = 0; g < groups_; ++g) {
    StripeView v(stripe.span(), p - 1, p, bs);
    for (int c = 0; c <= p - 1; ++c) {
      const auto col = array_.raw_blocks(c, g * (p - 1), p - 1);
      for (int r = 0; r <= p - 2; ++r) {
        const auto dst = v.block({r, c});
        std::memcpy(dst.data(), col.data() + static_cast<std::size_t>(r) * bs,
                    dst.size());
      }
    }
    if (!code_.verify(v)) return false;
  }
  return true;
}

int OnlineMigrator::revert_to_raid5() {
  if (running_.load()) {
    throw std::logic_error("cannot revert while converting");
  }
  // Step 1-2 of the reverse direction: the first m columns already form
  // a valid RAID-5; the diagonal column is simply abandoned.
  return new_disk_;
}

}  // namespace c56::mig
