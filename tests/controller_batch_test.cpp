// Lockdown of the batched stripe-aware controller I/O path against the
// per-block reference: the ranged read/write planner (full-stripe
// encode fast path, coalesced partial-stripe deltas, per-column run
// batching) must leave byte-identical array contents for every
// geometry, failure state and cache setting, and the full-stripe fast
// path must issue zero pre-reads. Also pins the vectored DiskArray
// primitives the planner is built on, including their per-block fault
// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "migration/fault.hpp"
#include "util/rng.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;
constexpr std::int64_t kStripes = 6;

struct Param {
  CodeId id;
  int p;
  int failures;    // 0, 1 or 2 disks failed on both sides
  bool cache;      // stripe cache enabled on the batched side
};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string n = to_string(info.param.id);
  for (char& c : n) {
    if (c == ' ' || c == '-') c = '_';
  }
  return n + "_p" + std::to_string(info.param.p) + "_f" +
         std::to_string(info.param.failures) +
         (info.param.cache ? "_cached" : "_nocache");
}

/// Two controllers over two arrays with identical contents: `batched_`
/// takes ranged ops, `ref_` replays them block by block.
class BatchDifferentialTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const Param& prm = GetParam();
    auto code_a = make_code(prm.id, prm.p);
    auto code_b = make_code(prm.id, prm.p);
    const int disks = code_a->cols();
    const std::int64_t bpd = kStripes * code_a->rows();
    batched_array_ = std::make_unique<DiskArray>(disks, bpd, kBlock);
    ref_array_ = std::make_unique<DiskArray>(disks, bpd, kBlock);
    batched_ = std::make_unique<ArrayController>(*batched_array_,
                                                 std::move(code_a));
    ref_ = std::make_unique<ArrayController>(*ref_array_, std::move(code_b));
    if (prm.cache) batched_->set_cache_stripes(3);  // smaller than kStripes
    Rng rng(0xBA7C4ED);
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < batched_->logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      batched_->write(l, buf.span());
      ref_->write(l, buf.span());
    }
    if (prm.failures >= 1) {
      batched_->fail_disk(1);
      ref_->fail_disk(1);
    }
    if (prm.failures >= 2) {
      batched_->fail_disk(3);
      ref_->fail_disk(3);
    }
  }

  void expect_arrays_identical() {
    for (int d = 0; d < batched_array_->disks(); ++d) {
      const auto a = batched_array_->raw_blocks(
          d, 0, batched_array_->blocks_per_disk());
      const auto b =
          ref_array_->raw_blocks(d, 0, ref_array_->blocks_per_disk());
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "disk " << d << " diverged";
    }
  }

  std::unique_ptr<DiskArray> batched_array_, ref_array_;
  std::unique_ptr<ArrayController> batched_, ref_;
};

TEST_P(BatchDifferentialTest, MixedRangedWorkloadStaysByteIdentical) {
  Rng rng(0x5EED + GetParam().p);
  const std::int64_t total = batched_->logical_blocks();
  const auto per_stripe =
      total / kStripes;  // data cells per stripe, for range shaping
  Buffer data(static_cast<std::size_t>(total) * kBlock);
  Buffer got_b(static_cast<std::size_t>(total) * kBlock);
  Buffer got_r(kBlock);
  for (int op = 0; op < 200; ++op) {
    // Mix of spans: single blocks, sub-stripe runs, exact stripes and
    // multi-stripe sweeps (the interesting planner boundaries).
    std::int64_t count;
    switch (rng.next_below(4)) {
      case 0:
        count = 1;
        break;
      case 1:
        count = 1 + static_cast<std::int64_t>(rng.next_below(
                        static_cast<std::uint64_t>(per_stripe)));
        break;
      case 2:
        count = per_stripe;
        break;
      default:
        count = per_stripe + 1 +
                static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(2 * per_stripe)));
        break;
    }
    count = std::min(count, total);
    const auto logical = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(total - count + 1)));
    const auto bytes = static_cast<std::size_t>(count) * kBlock;
    if (rng.next_below(3) == 0) {  // ranged read, checked per block
      batched_->read(logical, count, data.span().subspan(0, bytes));
      for (std::int64_t k = 0; k < count; ++k) {
        ref_->read(logical + k, got_r.span());
        ASSERT_TRUE(std::equal(got_r.span().begin(), got_r.span().end(),
                               data.data() + k * kBlock))
            << "read diverged at logical " << logical + k;
      }
    } else {
      rng.fill(data.data(), bytes);
      batched_->write(logical, count, data.span().subspan(0, bytes));
      for (std::int64_t k = 0; k < count; ++k) {
        ref_->write(logical + k, data.span().subspan(
                                     static_cast<std::size_t>(k) * kBlock,
                                     kBlock));
      }
    }
  }
  expect_arrays_identical();
  if (GetParam().failures == 0) {
    EXPECT_TRUE(batched_->scrub().empty());
    EXPECT_TRUE(ref_->scrub().empty());
  }
  // A final full-device ranged read must agree with the reference too
  // (exercises degraded reconstruction through the batched path).
  batched_->read(0, total, got_b.span());
  for (std::int64_t l = 0; l < total; ++l) {
    ref_->read(l, got_r.span());
    ASSERT_TRUE(std::equal(got_r.span().begin(), got_r.span().end(),
                           got_b.data() + l * kBlock))
        << "final read diverged at logical " << l;
  }
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (int p : {5, 7, 11}) {
    for (int f : {0, 1, 2}) {
      for (bool cache : {false, true}) {
        out.push_back({CodeId::kCode56, p, f, cache});
      }
    }
  }
  // Two structurally different codes keep the planner honest about
  // parity placement (X-Code's parities live in rows, not columns).
  out.push_back({CodeId::kRdp, 5, 1, false});
  out.push_back({CodeId::kXCode, 5, 1, true});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Zoo, BatchDifferentialTest,
                         ::testing::ValuesIn(all_params()), param_name);

/// The full-stripe fast path regenerates parity with encode() — by
/// construction it must not read anything, and each touched column must
/// be written as one sequential run.
TEST(BatchPlanner, FullStripeWriteIssuesNoReads) {
  for (int p : {5, 7}) {
    auto code = make_code(CodeId::kCode56, p);
    const int disks = code->cols();
    const int rows = code->rows();
    DiskArray array(disks, 4LL * rows, kBlock);
    ArrayController ctrl(array, std::move(code));
    const std::int64_t per_stripe = ctrl.logical_blocks() / 4;
    Buffer data(static_cast<std::size_t>(per_stripe) * kBlock);
    Rng rng(p);
    rng.fill(data.data(), data.size());

    const std::uint64_t r0 = array.total_reads();
    const std::uint64_t w0 = array.total_write_runs();
    ctrl.write(per_stripe, per_stripe, data.span());  // stripe #1 exactly
    EXPECT_EQ(array.total_reads(), r0) << "p=" << p;
    // One sequential run per physical column.
    EXPECT_EQ(array.total_write_runs() - w0, static_cast<std::uint64_t>(disks))
        << "p=" << p;
    EXPECT_TRUE(ctrl.scrub().empty()) << "p=" << p;

    // A partial stripe, by contrast, must pre-read something.
    const std::uint64_t r1 = array.total_reads();
    ctrl.write(0, per_stripe - 1, data.span().subspan(0, (per_stripe - 1) *
                                                             kBlock));
    EXPECT_GT(array.total_reads(), r1) << "p=" << p;
    EXPECT_TRUE(ctrl.scrub().empty()) << "p=" << p;
  }
}

/// A full-row ranged write covers every input of the row's horizontal
/// parity, so that parity is computed directly — the only pre-reads are
/// for the diagonal parities' missing inputs, never the parity blocks
/// of fully covered chains.
TEST(BatchPlanner, FullRowWriteSkipsCoveredParityPreread) {
  auto code = make_code(CodeId::kCode56, 5);
  const int rows = code->rows();
  DiskArray array(code->cols(), 2LL * rows, kBlock);
  ArrayController ctrl(array, std::move(code));
  const std::int64_t per_stripe = ctrl.logical_blocks() / 2;
  const std::int64_t per_row = per_stripe / rows;
  Buffer data(static_cast<std::size_t>(per_stripe) * kBlock);
  Rng rng(11);
  rng.fill(data.data(), data.size());
  ctrl.write(0, per_stripe, data.span());  // known-consistent stripe 0

  // Row 0 of stripe 0: logical [0, per_row). Its horizontal parity is
  // fully covered; a per-block replay would pre-read it once per block.
  DiskArray ref_array(array.disks(), array.blocks_per_disk(), kBlock);
  auto ref_code = make_code(CodeId::kCode56, 5);
  ArrayController ref(ref_array, std::move(ref_code));
  ref.write(0, per_stripe, data.span());

  rng.fill(data.data(), static_cast<std::size_t>(per_row) * kBlock);
  const std::uint64_t r0 = array.total_reads();
  const std::uint64_t rr0 = ref_array.total_reads();
  ctrl.write(0, per_row, data.span().subspan(0, per_row * kBlock));
  for (std::int64_t l = 0; l < per_row; ++l) {
    ref.write(l, data.span().subspan(static_cast<std::size_t>(l) * kBlock,
                                     kBlock));
  }
  EXPECT_LT(array.total_reads() - r0, ref_array.total_reads() - rr0);
  EXPECT_TRUE(ctrl.scrub().empty());
  for (int d = 0; d < array.disks(); ++d) {
    const auto a = array.raw_blocks(d, 0, array.blocks_per_disk());
    const auto b = ref_array.raw_blocks(d, 0, ref_array.blocks_per_disk());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "disk " << d;
  }
}

/// Arms the planner counters for one test body.
struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

void expect_disks_identical(const DiskArray& a, const DiskArray& b) {
  for (int d = 0; d < a.disks(); ++d) {
    const auto x = a.raw_blocks(d, 0, a.blocks_per_disk());
    const auto y = b.raw_blocks(d, 0, b.blocks_per_disk());
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()))
        << "disk " << d << " diverged";
  }
}

/// Reconstruct-write lockdown: random write_range batches (whole-block
/// runs, scattered blocks, repeated cells and sub-block entries, mixed)
/// against the same entries applied one by one, which the planner
/// always read-modify-writes. Every zoo code, healthy and with a data or
/// a parity disk failed, with the cache off and with one smaller than
/// the stripes a batch touches, so cells priced as cached are evicted
/// before their lookup.
enum class Lost { kNone, kData, kParity };

struct RcwParam {
  CodeId id;
  int p;
  Lost lost;
  std::size_t cache;  // stripes, 0 = off
};

class RcwDifferentialTest : public ::testing::TestWithParam<RcwParam> {};

TEST_P(RcwDifferentialTest, RandomBatchesMatchThePerEntryReference) {
  const RcwParam& prm = GetParam();
  const MetricsOn metrics;
  auto code = make_code(prm.id, prm.p);
  // The data disk holds the first data cell; the parity disk holds the
  // last parity (a parity-only column on the column-parity codes).
  int disk = -1;
  for (int r = 0; r < code->rows() && disk < 0; ++r) {
    for (int c = 0; c < code->cols() && disk < 0; ++c) {
      if (code->kind({r, c}) == CellKind::kData) disk = c;
    }
  }
  if (prm.lost == Lost::kParity) {
    disk = code->expanded_chains().back().parity.col;
  }
  const std::int64_t bpd = kStripes * code->rows();
  DiskArray array(code->cols(), bpd, kBlock), ref_array(code->cols(), bpd,
                                                         kBlock);
  ArrayController ctrl(array, std::move(code));
  ArrayController ref(ref_array, make_code(prm.id, prm.p));
  const std::int64_t total = ctrl.logical_blocks();
  const std::int64_t per = total / kStripes;
  Rng rng(0x5C5 + static_cast<std::uint64_t>(prm.p));
  Buffer pool(static_cast<std::size_t>(8 * per + 16) * kBlock);
  rng.fill(pool.data(), static_cast<std::size_t>(total) * kBlock);
  ctrl.write(0, total, pool.span().subspan(0, total * kBlock));
  ref.write(0, total, pool.span().subspan(0, total * kBlock));
  if (prm.lost != Lost::kNone) {
    ctrl.fail_disk(disk);
    ref.fail_disk(disk);
  }
  ctrl.set_cache_stripes(prm.cache);

  const auto pick = [&](std::int64_t n) {
    return static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
  };
  std::vector<ArrayController::SubWrite> batch;
  for (int round = 0; round < 150; ++round) {
    batch.clear();
    std::size_t used = 0;
    const auto bytes = [&](std::size_t n) {
      const std::span<const std::uint8_t> out = pool.span().subspan(used, n);
      rng.fill(pool.data() + used, n);
      used += n;
      return out;
    };
    for (std::int64_t piece = 1 + pick(4); piece > 0; --piece) {
      switch (pick(4)) {
        case 0: {  // a whole-block run over up to two stripes
          const std::int64_t n = 1 + pick(2 * per);
          const std::int64_t l = pick(total - n + 1);
          for (std::int64_t k = 0; k < n; ++k) {
            batch.push_back({l + k, 0, bytes(kBlock)});
          }
          break;
        }
        case 1: {  // scattered whole blocks of one stripe, maybe repeated
          const std::int64_t s = pick(kStripes);
          for (std::int64_t n = 1 + pick(per); n > 0; --n) {
            batch.push_back({s * per + pick(per), 0, bytes(kBlock)});
          }
          break;
        }
        case 2: {  // one cell twice: whole, then whole or part of it
          const std::int64_t l = pick(total);
          const std::int64_t off = pick(kBlock);
          batch.push_back({l, 0, bytes(kBlock)});
          batch.push_back({l, off % 2 ? 0 : off,
                           bytes(off % 2 ? kBlock : kBlock - off)});
          break;
        }
        default: {  // a sub-block entry
          const std::int64_t off = pick(kBlock);
          batch.push_back({pick(total), off,
                           bytes(static_cast<std::size_t>(
                               1 + pick(static_cast<std::int64_t>(kBlock) -
                                        off)))});
          break;
        }
      }
    }
    ctrl.write_range(batch);
    for (const ArrayController::SubWrite& w : batch) {
      ref.write_range(w.logical, w.offset, w.data);
    }
  }
  expect_disks_identical(array, ref_array);
  // Reads go through the cache, which rcw fills with untouched cells.
  Buffer got(kBlock), want(kBlock);
  for (std::int64_t l = 0; l < total; ++l) {
    ctrl.read(l, got.span());
    ref.read(l, want.span());
    ASSERT_TRUE(std::equal(got.span().begin(), got.span().end(),
                           want.data()))
        << "read diverged at logical " << l;
  }
  if (prm.lost != Lost::kNone) {
    ctrl.rebuild_disk(disk);
    ref.rebuild_disk(disk);
    expect_disks_identical(array, ref_array);
  }
  EXPECT_TRUE(ctrl.scrub().empty());
  // rcw is open to a surviving parity with three or more inputs, none on
  // the failed disk (with two, two whole inputs make it direct).
  bool rcw_open = false;
  for (const ParityChain& ch : ctrl.code().expanded_chains()) {
    const auto on_lost = [&](Cell c) {
      return prm.lost != Lost::kNone && c.col == disk;
    };
    rcw_open = rcw_open || (ch.inputs.size() >= 3 && !on_lost(ch.parity) &&
                            std::ranges::none_of(ch.inputs, on_lost));
  }
  EXPECT_EQ(ctrl.planner_counters().rcw_parities > 0, rcw_open);
  EXPECT_EQ(ref.planner_counters().rcw_parities, 0u);
}

std::vector<RcwParam> rcw_params() {
  std::vector<RcwParam> out;
  for (CodeId id : all_code_ids()) {
    for (Lost lost : {Lost::kNone, Lost::kData, Lost::kParity}) {
      for (std::size_t cache : {std::size_t{0}, std::size_t{2}}) {
        out.push_back({id, 5, lost, cache});
        if (id == CodeId::kCode56) out.push_back({id, 7, lost, cache});
      }
    }
  }
  return out;
}

std::string rcw_name(const ::testing::TestParamInfo<RcwParam>& info) {
  std::string n = to_string(info.param.id);
  for (char& c : n) {
    if (c == ' ' || c == '-') c = '_';
  }
  static constexpr const char* kLost[] = {"healthy", "data_lost",
                                          "parity_lost"};
  return n + "_p" + std::to_string(info.param.p) + "_" +
         kLost[static_cast<int>(info.param.lost)] + "_cache" +
         std::to_string(info.param.cache);
}

INSTANTIATE_TEST_SUITE_P(Zoo, RcwDifferentialTest,
                         ::testing::ValuesIn(rcw_params()), rcw_name);

/// A single-entry write never reconstruct-writes: rcw needs two whole
/// inputs of one parity, so Table III's single-block cost and the
/// idempotent-write shortcut stay as they were.
TEST(RcwPlanner, SingleBlockWritesNeverReconstruct) {
  const MetricsOn metrics;
  for (CodeId id : all_code_ids()) {
    auto code = make_code(id, 5);
    DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
    ArrayController ctrl(array, std::move(code));
    ctrl.set_cache_stripes(1);
    Rng rng(static_cast<std::uint64_t>(id) + 1);
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      ctrl.write(l, buf.span());
      const std::uint64_t w0 = array.total_writes();
      ctrl.write(l, buf.span());  // idempotent
      EXPECT_EQ(array.total_writes(), w0) << to_string(id) << " " << l;
    }
    EXPECT_EQ(ctrl.planner_counters().rcw_parities, 0u) << to_string(id);
    EXPECT_GT(ctrl.planner_counters().rmw_parities, 0u) << to_string(id);
    EXPECT_TRUE(ctrl.scrub().empty()) << to_string(id);
  }
}

/// Vectored DiskArray primitives: counter semantics and per-block fault
/// behaviour of read_blocks/write_blocks.
TEST(VectoredIo, CountsBlocksButOneRun) {
  DiskArray a(2, 16, kBlock);
  Buffer buf(8 * kBlock);
  EXPECT_TRUE(a.write_blocks(0, 2, 8, buf.span()).ok());
  EXPECT_EQ(a.writes(0), 8u);
  EXPECT_EQ(a.write_runs(0), 1u);
  EXPECT_TRUE(a.read_blocks(0, 2, 8, buf.span()).ok());
  EXPECT_EQ(a.reads(0), 8u);
  EXPECT_EQ(a.read_runs(0), 1u);
  // Single-block ops count one run each.
  Buffer one(kBlock);
  a.read_block(0, 0, one.span());
  EXPECT_EQ(a.read_runs(0), 2u);
  EXPECT_EQ(a.total_read_runs(), 2u);
  // Bounds are rejected before any transfer.
  EXPECT_THROW(a.read_blocks(0, 12, 8, buf.span()), std::out_of_range);
  EXPECT_THROW(a.read_blocks(0, 0, 0, buf.span().subspan(0, 0)),
               std::out_of_range);
  EXPECT_THROW(a.read_blocks(0, 0, 4, buf.span()), std::invalid_argument);
}

TEST(VectoredIo, BadBlockAbortsRunAtItsCoordinates) {
  DiskArray a(1, 16, kBlock);
  FaultPlan plan;
  plan.bad_blocks.push_back({0, 5});
  a.set_fault_plan(plan);
  Buffer buf(8 * kBlock);
  const IoResult r = a.read_blocks(0, 2, 8, buf.span());
  EXPECT_EQ(r.status, IoStatus::kSectorError);
  EXPECT_EQ(r.disk, 0);
  EXPECT_EQ(r.block, 5);
  EXPECT_EQ(a.reads(0), 8u);  // the run is still charged in full
}

TEST(VectoredIo, FailAfterCrossesMidRun) {
  DiskArray a(1, 16, kBlock);
  FaultPlan plan;
  plan.disk_failures.push_back({0, 4});  // fails after 4 counted I/Os
  a.set_fault_plan(plan);
  Buffer buf(8 * kBlock);
  Rng rng(1);
  rng.fill(buf.data(), buf.size());
  const IoResult r = a.write_blocks(0, 0, 8, buf.span());
  EXPECT_EQ(r.status, IoStatus::kDiskFailed);
  EXPECT_EQ(r.block, 4);  // first block past the threshold
  EXPECT_TRUE(a.disk_failed(0));
  // The four blocks before the crossing were persisted.
  for (std::int64_t b = 0; b < 4; ++b) {
    const auto want = buf.block(static_cast<std::size_t>(b), kBlock);
    const auto got = a.raw_block(0, b);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin())) << b;
  }
  // An already-failed disk transfers nothing, even mid-run.
  const IoResult r2 = a.read_blocks(0, 0, 8, buf.span());
  EXPECT_EQ(r2.status, IoStatus::kDiskFailed);
  EXPECT_EQ(r2.block, 0);
}

// Ranged-request edge cases: the bounds check must accept ranges that
// end exactly at logical_blocks(), treat count == 0 as a validated
// no-op (no planner invocation, no disk I/O), and reject counts whose
// logical + count would overflow std::int64_t instead of wrapping.
TEST(BatchPlanner, RangedEdgeCases) {
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  const std::int64_t logical = ctrl.logical_blocks();
  Buffer buf(static_cast<std::size_t>(logical) * kBlock);
  Rng rng(5);
  rng.fill(buf.data(), buf.size());

  // Exact-end ranges are valid on both paths.
  ctrl.write(0, logical, buf.span());
  ctrl.read(0, logical, buf.span());
  ctrl.write(logical - 1, 1, {buf.data(), kBlock});
  ctrl.read(logical - 1, 1, {buf.data(), kBlock});

  // count == 0 anywhere in [0, logical] is a no-op: no disk traffic,
  // not even for an empty range starting at the very end.
  const std::uint64_t r0 = array.total_reads(), w0 = array.total_writes();
  ctrl.read(0, 0, {buf.data(), 0});
  ctrl.write(0, 0, {buf.data(), 0});
  ctrl.read(logical, 0, {buf.data(), 0});
  ctrl.write(logical, 0, {buf.data(), 0});
  EXPECT_EQ(array.total_reads(), r0);
  EXPECT_EQ(array.total_writes(), w0);

  // Out-of-range and overflowing requests throw instead of wrapping.
  const auto max64 = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(ctrl.read(0, logical + 1, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.read(1, logical, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.read(logical + 1, 0, {buf.data(), 0}),
               std::out_of_range);
  EXPECT_THROW(ctrl.read(1, max64, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.write(1, max64, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.read(max64, max64, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.read(-1, 1, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.read(0, -1, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.write(-1, 1, buf.span()), std::out_of_range);
  EXPECT_THROW(ctrl.write(0, -1, buf.span()), std::out_of_range);

  // The single-block read checks its block and buffer before the cache
  // is consulted: block 0 is cached, and a short buffer must throw
  // rather than receive the cached block.
  ctrl.set_cache_stripes(4);
  Buffer one(kBlock);
  ctrl.read(0, one.span());
  ASSERT_GT(ctrl.cache_stats().insertions, 0u);
  const std::uint64_t r1 = array.total_reads();
  const StripeCache::Stats c1 = ctrl.cache_stats();
  EXPECT_THROW(ctrl.read(0, one.span().subspan(0, 16)), std::invalid_argument);
  EXPECT_THROW(ctrl.read(0, {buf.data(), 2 * kBlock}), std::invalid_argument);
  EXPECT_THROW(ctrl.read(-1, one.span()), std::out_of_range);
  EXPECT_THROW(ctrl.read(logical, one.span()), std::out_of_range);
  EXPECT_THROW(ctrl.read(max64, one.span()), std::out_of_range);
  EXPECT_EQ(ctrl.cache_stats().hits, c1.hits);
  EXPECT_EQ(ctrl.cache_stats().misses, c1.misses);

  // Batched reads: one bad entry aborts the whole batch before any disk
  // read or cache lookup, and zero-length entries are validated no-ops.
  using SubRead = ArrayController::SubRead;
  const auto bs = static_cast<std::int64_t>(kBlock);
  Buffer a(kBlock), b(kBlock);
  for (const SubRead bad :
       {SubRead{logical, 0, b.span()}, SubRead{-1, 0, b.span()},
        SubRead{1, 1, b.span()}, SubRead{1, bs + 1, b.span().subspan(0, 0)},
        SubRead{1, -1, b.span().subspan(0, 1)},
        SubRead{1, max64, b.span().subspan(0, 1)}}) {
    const SubRead batch[] = {{logical / 2, 0, a.span()}, bad};
    EXPECT_THROW(ctrl.read_range(batch), std::out_of_range);
  }
  const SubRead empties[] = {{0, 0, b.span().subspan(0, 0)},
                             {logical - 1, bs, b.span().subspan(0, 0)}};
  ctrl.read_range(empties);
  ctrl.read_range(std::span<const SubRead>{});
  EXPECT_EQ(array.total_reads(), r1);
  EXPECT_EQ(ctrl.cache_stats().hits, c1.hits);
  EXPECT_EQ(ctrl.cache_stats().misses, c1.misses);
}

// Sub-block write_range edge cases: zero-length ranges are validated
// no-ops, and offsets/lengths that leave the block — including values
// that would overflow the offset+len sum — throw instead of wrapping.
// Batch entries are validated up front: one bad entry aborts the whole
// batch before any disk I/O.
TEST(SubBlockPlane, RangeEdgeCases) {
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  const std::int64_t logical = ctrl.logical_blocks();
  Buffer buf(kBlock);
  Rng rng(6);
  rng.fill(buf.data(), buf.size());
  const auto bs = static_cast<std::int64_t>(kBlock);

  // Exact-end ranges are valid.
  ctrl.write_range(0, bs - 1, buf.span().subspan(0, 1));
  ctrl.write_range(logical - 1, 0, buf.span());
  ctrl.read_range(0, bs - 1, buf.span().subspan(0, 1));

  // Zero-length ranges anywhere in [0, block_bytes] are no-ops with no
  // disk traffic, single and batched alike.
  const std::uint64_t r0 = array.total_reads(), w0 = array.total_writes();
  ctrl.write_range(0, 0, buf.span().subspan(0, 0));
  ctrl.write_range(0, bs, buf.span().subspan(0, 0));
  ctrl.read_range(0, bs, buf.span().subspan(0, 0));
  const ArrayController::SubWrite empty{1, 7, buf.span().subspan(0, 0)};
  ctrl.write_range(std::span<const ArrayController::SubWrite>{&empty, 1});
  EXPECT_EQ(array.total_reads(), r0);
  EXPECT_EQ(array.total_writes(), w0);

  // Out-of-block and overflowing ranges throw instead of wrapping.
  const auto max64 = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(ctrl.write_range(0, -1, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(ctrl.write_range(0, bs, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(ctrl.write_range(0, bs - 1, buf.span().subspan(0, 2)),
               std::out_of_range);
  EXPECT_THROW(ctrl.write_range(0, max64, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(ctrl.write_range(-1, 0, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(ctrl.write_range(logical, 0, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(ctrl.write_range(max64, 0, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(ctrl.read_range(0, max64, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(ctrl.read_range(0, -1, buf.span().subspan(0, 1)),
               std::out_of_range);

  // One invalid batch entry rejects the whole batch before any I/O.
  const std::uint64_t r1 = array.total_reads(), w1 = array.total_writes();
  const ArrayController::SubWrite bad[] = {
      {0, 0, buf.span().subspan(0, 4)},
      {1, bs - 1, buf.span().subspan(0, 2)},  // leaves the block
  };
  EXPECT_THROW(ctrl.write_range(std::span<const ArrayController::SubWrite>(
                   bad, 2)),
               std::out_of_range);
  EXPECT_EQ(array.total_reads(), r1);
  EXPECT_EQ(array.total_writes(), w1);
  EXPECT_TRUE(ctrl.scrub().empty());
}

/// DiskArray range primitives: a range access counts like one block
/// access (one transfer, one run) but tallies only its range length in
/// the byte counters; whole-block and vectored accesses tally
/// block-sized bytes.
TEST(RangeIo, CountsOneAccessButOnlyRangeBytes) {
  DiskArray a(2, 16, kBlock);
  Buffer buf(8 * kBlock);
  Rng rng(2);
  rng.fill(buf.data(), buf.size());

  EXPECT_TRUE(a.write_range(0, 3, 5, buf.span().subspan(0, 7)).ok());
  EXPECT_EQ(a.writes(0), 1u);
  EXPECT_EQ(a.write_runs(0), 1u);
  EXPECT_EQ(a.write_bytes(0), 7u);
  EXPECT_TRUE(a.read_range(0, 3, 5, buf.span().subspan(0, 7)).ok());
  EXPECT_EQ(a.reads(0), 1u);
  EXPECT_EQ(a.read_runs(0), 1u);
  EXPECT_EQ(a.read_bytes(0), 7u);

  // Block and vectored accesses tally full block sizes.
  EXPECT_TRUE(a.write_block(0, 0, buf.span().subspan(0, kBlock)).ok());
  EXPECT_EQ(a.write_bytes(0), 7u + kBlock);
  EXPECT_TRUE(a.write_blocks(0, 4, 8, buf.span()).ok());
  EXPECT_EQ(a.write_bytes(0), 7u + 9 * kBlock);
  EXPECT_EQ(a.total_write_bytes(), 7u + 9 * kBlock);
  EXPECT_EQ(a.total_read_bytes(), 7u);

  // Bounds: empty ranges and ranges leaving the block are rejected
  // (invalid_argument, like the vectored calls), bad coordinates throw
  // out_of_range — all before any transfer or counter update.
  const std::uint64_t rr = a.reads(0), wr = a.writes(0);
  EXPECT_THROW(a.read_range(0, 0, 0, buf.span().subspan(0, 0)),
               std::invalid_argument);
  EXPECT_THROW(a.read_range(0, 0, kBlock, buf.span().subspan(0, 1)),
               std::invalid_argument);
  EXPECT_THROW(a.write_range(0, 0, kBlock - 1, buf.span().subspan(0, 2)),
               std::invalid_argument);
  EXPECT_THROW(a.write_range(0, 16, 0, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(a.write_range(2, 0, 0, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_EQ(a.reads(0), rr);
  EXPECT_EQ(a.writes(0), wr);
}

/// Range fault semantics: a failed disk or bad block transfers
/// nothing; a torn range persists only the first half of the *range*;
/// a partial write does not remap a bad block (only a full-block
/// rewrite clears the mark).
TEST(RangeIo, FaultSemanticsMirrorBlockIo) {
  DiskArray a(1, 16, kBlock);
  Buffer buf(kBlock);
  Rng rng(3);
  rng.fill(buf.data(), buf.size());
  ASSERT_TRUE(a.write_block(0, 5, buf.span()).ok());

  FaultPlan plan;
  plan.bad_blocks.push_back({0, 5});
  a.set_fault_plan(plan);

  // Bad block: range reads report the sector error and move no bytes.
  Buffer got(kBlock);
  std::fill(got.span().begin(), got.span().end(), 0xAA);
  EXPECT_EQ(a.read_range(0, 5, 8, got.span().subspan(0, 8)).status,
            IoStatus::kSectorError);
  EXPECT_EQ(got.span()[0], 0xAA);

  // A partial rewrite leaves the bad mark in place...
  EXPECT_TRUE(a.write_range(0, 5, 8, buf.span().subspan(0, 8)).ok());
  EXPECT_EQ(a.read_range(0, 5, 8, got.span().subspan(0, 8)).status,
            IoStatus::kSectorError);
  // ...and only a full-block rewrite remaps it.
  EXPECT_TRUE(a.write_block(0, 5, buf.span()).ok());
  EXPECT_TRUE(a.read_range(0, 5, 8, got.span().subspan(0, 8)).ok());

  // Torn range write: first half of the range persists, rest is stale.
  DiskArray t(1, 4, kBlock);
  ASSERT_TRUE(t.write_block(0, 0, buf.span()).ok());
  FaultPlan torn;
  torn.torn_write_rate = 1.0;
  t.set_fault_plan(torn);
  Buffer neu(kBlock);
  rng.fill(neu.data(), neu.size());
  const IoResult r = t.write_range(0, 0, 8, neu.span().subspan(0, 16));
  EXPECT_EQ(r.status, IoStatus::kTornWrite);
  const auto stored = t.raw_block(0, 0);
  EXPECT_TRUE(std::equal(neu.span().begin(), neu.span().begin() + 8,
                         stored.begin() + 8));
  EXPECT_TRUE(std::equal(buf.span().begin() + 16, buf.span().begin() + 24,
                         stored.begin() + 16));

  // Failed disk: no bytes move; the counters still tally the attempt
  // at issue, exactly like reads()/writes() for block I/O.
  DiskArray f(1, 4, kBlock);
  f.fail_disk(0);
  const std::uint64_t wb = f.write_bytes(0);
  EXPECT_EQ(f.write_range(0, 1, 0, buf.span().subspan(0, 4)).status,
            IoStatus::kDiskFailed);
  EXPECT_EQ(f.write_bytes(0), wb + 4);
  EXPECT_TRUE(all_zero(f.raw_block(0, 1)));
}

}  // namespace
}  // namespace c56::mig
