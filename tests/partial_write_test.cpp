// Differential lockdown of the sub-block delta write plane: random
// sub-block write sequences (single and batched) against a whole-block
// reference controller that replays each sub-write as read-full /
// patch / write-full, plus an in-memory byte mirror, across the code
// zoo x p x failure count x cache setting. The delta path must leave
// byte-identical array contents — data and every parity — after every
// step, a full-block range must be byte- AND I/O-count-identical to
// the whole-block write path, and the online migrator's write_range
// must honour the conversion watermark's trust domains (horizontal
// parity only before start(), both families after finish()), checked
// against both a whole-block replay and a reference that recomputes
// the RAID-5 rows and the Eq. 2 diagonals from raw blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codes/registry.hpp"
#include "layout/raid.hpp"
#include "migration/controller.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "migration/online.hpp"
#include "util/rng.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;
constexpr std::int64_t kStripes = 4;

struct Param {
  CodeId id;
  int p;
  int failures;  // 0, 1 or 2 disks failed on both sides
  bool cache;    // stripe cache enabled on the sub-block side
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

/// Two controllers over two arrays with identical contents: `sub_`
/// takes sub-block ranges, `ref_` replays every range as a whole-block
/// read-modify-write through the public per-block API; `mirror_` holds
/// the expected logical bytes.
class PartialWriteDifferentialTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const Param& prm = GetParam();
    auto code_a = make_code(prm.id, prm.p);
    auto code_b = make_code(prm.id, prm.p);
    const int disks = code_a->cols();
    const std::int64_t bpd = kStripes * code_a->rows();
    sub_array_ = std::make_unique<DiskArray>(disks, bpd, kBlock);
    ref_array_ = std::make_unique<DiskArray>(disks, bpd, kBlock);
    sub_ = std::make_unique<ArrayController>(*sub_array_, std::move(code_a));
    ref_ = std::make_unique<ArrayController>(*ref_array_, std::move(code_b));
    if (prm.cache) sub_->set_cache_stripes(3);  // smaller than kStripes
    total_ = sub_->logical_blocks();
    mirror_.assign(static_cast<std::size_t>(total_) * kBlock, 0);
    Rng rng(0x5B0C4ED);
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < total_; ++l) {
      rng.fill(buf.data(), kBlock);
      sub_->write(l, buf.span());
      ref_->write(l, buf.span());
      std::copy(buf.span().begin(), buf.span().end(),
                mirror_.begin() + static_cast<std::size_t>(l) * kBlock);
    }
    if (prm.failures >= 1) {
      sub_->fail_disk(1);
      ref_->fail_disk(1);
    }
    if (prm.failures >= 2) {
      sub_->fail_disk(3);
      ref_->fail_disk(3);
    }
  }

  /// Replay one sub-write on the reference side (whole-block RMW
  /// through the public API) and on the mirror.
  void apply_ref(std::int64_t l, std::size_t off,
                 std::span<const std::uint8_t> in) {
    Buffer tmp(kBlock);
    ref_->read(l, tmp.span());
    std::copy(in.begin(), in.end(), tmp.span().begin() + off);
    ref_->write(l, tmp.span());
    std::copy(in.begin(), in.end(),
              mirror_.begin() + static_cast<std::size_t>(l) * kBlock + off);
  }

  void expect_arrays_identical() {
    for (int d = 0; d < sub_array_->disks(); ++d) {
      const auto a =
          sub_array_->raw_blocks(d, 0, sub_array_->blocks_per_disk());
      const auto b =
          ref_array_->raw_blocks(d, 0, ref_array_->blocks_per_disk());
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "disk " << d << " diverged";
    }
  }

  /// Random (offset, len) inside one block, biased toward the
  /// interesting shapes: 1-byte writes, ranges ending exactly at the
  /// block boundary, full blocks, and arbitrary unaligned interiors.
  std::pair<std::size_t, std::size_t> random_range(Rng& rng) {
    switch (rng.next_below(5)) {
      case 0:  // single byte
        return {static_cast<std::size_t>(rng.next_below(kBlock)), 1};
      case 1: {  // suffix ending exactly at the block end
        const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
        return {off, kBlock - off};
      }
      case 2:  // full block (identity with the whole-block path)
        return {0, kBlock};
      default: {  // arbitrary unaligned interior range
        const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
        const auto len =
            1 + static_cast<std::size_t>(rng.next_below(kBlock - off));
        return {off, len};
      }
    }
  }

  std::unique_ptr<DiskArray> sub_array_, ref_array_;
  std::unique_ptr<ArrayController> sub_, ref_;
  std::int64_t total_ = 0;
  std::vector<std::uint8_t> mirror_;
};

TEST_P(PartialWriteDifferentialTest, RandomSubWritesStayByteIdentical) {
  Rng rng(0xDE17A + GetParam().p * 31 + GetParam().failures * 7 +
          (GetParam().cache ? 1 : 0));
  Buffer scratch(8 * kBlock);
  Buffer got(kBlock);
  for (int op = 0; op < 120; ++op) {
    if (rng.next_below(4) == 0) {
      // Batch of 2..5 sub-writes, biased to revisit one block so
      // overlapping ranges within a single batch are exercised (batch
      // order must win on overlap, on both sides).
      const int n = 2 + static_cast<int>(rng.next_below(4));
      const auto base = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(total_)));
      rng.fill(scratch.data(), scratch.size());
      std::vector<ArrayController::SubWrite> batch;
      for (int i = 0; i < n; ++i) {
        const std::int64_t l =
            rng.next_below(2) == 0
                ? base
                : static_cast<std::int64_t>(
                      rng.next_below(static_cast<std::uint64_t>(total_)));
        const auto [off, len] = random_range(rng);
        batch.push_back({l, static_cast<std::int64_t>(off),
                         scratch.span().subspan(i * kBlock + off, len)});
      }
      sub_->write_range(batch);
      for (const auto& w : batch) {
        apply_ref(w.logical, static_cast<std::size_t>(w.offset), w.data);
      }
    } else {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(total_)));
      const auto [off, len] = random_range(rng);
      rng.fill(scratch.data(), len);
      const auto data = scratch.span().subspan(0, len);
      sub_->write_range(l, static_cast<std::int64_t>(off), data);
      apply_ref(l, off, data);
    }
    if (op % 8 == 0) {  // spot-check a random range read vs the mirror
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(total_)));
      const auto [off, len] = random_range(rng);
      sub_->read_range(l, static_cast<std::int64_t>(off),
                       got.span().subspan(0, len));
      ASSERT_TRUE(std::equal(
          got.span().begin(), got.span().begin() + len,
          mirror_.begin() + static_cast<std::size_t>(l) * kBlock + off))
          << "range read diverged at logical " << l << " off " << off;
    }
    if (op % 30 == 29) expect_arrays_identical();
  }
  expect_arrays_identical();
  if (GetParam().failures == 0) {
    EXPECT_TRUE(sub_->scrub().empty());
    EXPECT_TRUE(ref_->scrub().empty());
  }
  // Full readback (degraded reconstruction included) vs the mirror.
  for (std::int64_t l = 0; l < total_; ++l) {
    sub_->read(l, got.span());
    ASSERT_TRUE(std::equal(
        got.span().begin(), got.span().end(),
        mirror_.begin() + static_cast<std::size_t>(l) * kBlock))
        << "final read diverged at logical " << l;
  }
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (CodeId id : {CodeId::kCode56, CodeId::kRdp, CodeId::kXCode}) {
    for (int p : {5, 7, 11}) {
      for (int f : {0, 1, 2}) {
        for (bool cache : {false, true}) {
          out.push_back({id, p, f, cache});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Zoo, PartialWriteDifferentialTest,
                         ::testing::ValuesIn(all_params()), param_name);

/// Promotion has one fixed threshold: a cell that a batch entry covers
/// whole is planned whole-block (its parities can be computed directly,
/// a stripe covered whole is one encode), while one byte less stays a
/// ranged read-modify-write. Batches straddling the threshold — whole
/// blocks tiling rows and stripes, near-whole ranges, and partial
/// entries patched over whole ones — must leave the reference's bytes.
TEST_P(PartialWriteDifferentialTest, PromotionThresholdPreservesBytes) {
  Rng rng(0x9407E + GetParam().p);
  const std::int64_t per = total_ / kStripes;  // data cells per stripe
  Buffer scratch(static_cast<std::size_t>(per) * kBlock);
  for (int op = 0; op < 24; ++op) {
    const auto base = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(kStripes))) * per;
    const std::int64_t n =
        rng.next_below(2) == 0
            ? per
            : 1 + static_cast<std::int64_t>(
                      rng.next_below(static_cast<std::uint64_t>(per)));
    rng.fill(scratch.data(), scratch.size());
    std::vector<ArrayController::SubWrite> batch;
    for (std::int64_t k = 0; k < n; ++k) {
      const auto blk =
          scratch.span().subspan(static_cast<std::size_t>(k) * kBlock, kBlock);
      switch (rng.next_below(4)) {
        case 0:  // one byte short of the threshold
          batch.push_back({base + k, 1, blk.subspan(1)});
          break;
        case 1:  // whole block, then a partial patch on top
          batch.push_back({base + k, 0, blk});
          batch.push_back({base + k, 5, blk.subspan(9, 7)});
          break;
        default:  // whole block
          batch.push_back({base + k, 0, blk});
          break;
      }
    }
    sub_->write_range(batch);
    for (const auto& w : batch) {
      apply_ref(w.logical, static_cast<std::size_t>(w.offset), w.data);
    }
  }
  expect_arrays_identical();
}

/// The delta kill switch routes sub-writes through whole-block RMW;
/// contents must be unchanged by the setting.
TEST_P(PartialWriteDifferentialTest, KillSwitchPreservesBytes) {
  sub_->set_subblock_delta(false);
  Rng rng(0x0FF + GetParam().p);
  Buffer scratch(kBlock);
  for (int op = 0; op < 40; ++op) {
    const auto l = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(total_)));
    const auto [off, len] = random_range(rng);
    rng.fill(scratch.data(), len);
    const auto data = scratch.span().subspan(0, len);
    sub_->write_range(l, static_cast<std::int64_t>(off), data);
    apply_ref(l, off, data);
  }
  expect_arrays_identical();
}

/// Acceptance pin: write_range(l, 0, block_bytes) is byte- AND
/// I/O-count-identical (transfers, runs, bytes, reads and writes) to
/// write(l), with the cache off and on (identical cache config on both
/// sides so hit patterns align).
TEST(PartialWritePlane, FullBlockRangeIsIoIdentical) {
  for (bool cache : {false, true}) {
    auto code_a = make_code(CodeId::kCode56, 5);
    auto code_b = make_code(CodeId::kCode56, 5);
    const int disks = code_a->cols();
    const std::int64_t bpd = kStripes * code_a->rows();
    DiskArray sub_array(disks, bpd, kBlock);
    DiskArray ref_array(disks, bpd, kBlock);
    ArrayController sub(sub_array, std::move(code_a));
    ArrayController ref(ref_array, std::move(code_b));
    if (cache) {
      sub.set_cache_stripes(2);
      ref.set_cache_stripes(2);
    }
    Rng rng(0x1DE7 + (cache ? 1 : 0));
    Buffer buf(kBlock);
    for (std::int64_t l = 0; l < sub.logical_blocks(); ++l) {
      rng.fill(buf.data(), kBlock);
      sub.write(l, buf.span());
      ref.write(l, buf.span());
    }
    const auto deltas = [](DiskArray& a, std::uint64_t s[6]) {
      const std::uint64_t now[6] = {a.total_reads(),     a.total_writes(),
                                    a.total_read_runs(), a.total_write_runs(),
                                    a.total_read_bytes(), a.total_write_bytes()};
      std::array<std::uint64_t, 6> d;
      for (int i = 0; i < 6; ++i) {
        d[static_cast<std::size_t>(i)] = now[i] - s[i];
        s[i] = now[i];
      }
      return d;
    };
    std::uint64_t ss[6] = {}, rs[6] = {};
    deltas(sub_array, ss);
    deltas(ref_array, rs);
    for (int i = 0; i < 24; ++i) {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(sub.logical_blocks())));
      rng.fill(buf.data(), kBlock);
      sub.write_range(l, 0, buf.span());
      const auto ds = deltas(sub_array, ss);
      ref.write(l, buf.span());
      const auto dr = deltas(ref_array, rs);
      EXPECT_EQ(ds, dr) << "write I/O diverged at logical " << l
                        << (cache ? " (cached)" : "");
    }
    // Full-block range reads are I/O-identical to block reads too.
    Buffer got_s(kBlock), got_r(kBlock);
    for (int i = 0; i < 8; ++i) {
      const auto l = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(sub.logical_blocks())));
      sub.read_range(l, 0, got_s.span());
      const auto ds = deltas(sub_array, ss);
      ref.read(l, got_r.span());
      const auto dr = deltas(ref_array, rs);
      EXPECT_EQ(ds, dr) << "read I/O diverged at logical " << l;
      EXPECT_TRUE(got_s == got_r);
    }
    for (int d = 0; d < disks; ++d) {
      const auto a = sub_array.raw_blocks(d, 0, bpd);
      const auto b = ref_array.raw_blocks(d, 0, bpd);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "disk " << d << (cache ? " (cached)" : "");
    }
  }
}

// ---------------------------------------------------------------------
// OnlineMigrator::write_range vs write_block across watermark states.

/// Build a valid left-asymmetric RAID-5 with random data.
void fill_raid5(DiskArray& array, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(kBlock), parity(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = raid5_parity_disk(Raid5Flavor::kLeftAsymmetric,
                                        static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      rng.fill(block.data(), kBlock);
      std::ranges::copy(block, array.raw_block(d, row).begin());
      xor_into(parity.data(), block.data(), kBlock);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

/// Replay a migrator sub-write as read_block / patch / write_block.
void apply_mig_ref(OnlineMigrator& mig, std::int64_t l, std::size_t off,
                   std::span<const std::uint8_t> in) {
  Buffer tmp(kBlock);
  ASSERT_TRUE(mig.read_block(l, tmp.span()).ok());
  std::copy(in.begin(), in.end(), tmp.span().begin() + off);
  ASSERT_TRUE(mig.write_block(l, tmp.span()).ok());
}

void expect_same_contents(DiskArray& a, DiskArray& b) {
  ASSERT_EQ(a.disks(), b.disks());
  for (int d = 0; d < a.disks(); ++d) {
    const auto x = a.raw_blocks(d, 0, a.blocks_per_disk());
    const auto y = b.raw_blocks(d, 0, b.blocks_per_disk());
    ASSERT_EQ(x.size(), y.size());
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()))
        << "disk " << d << " diverged";
  }
}

/// Every logical block's current bytes, read through the migrator.
std::vector<std::uint8_t> logical_image(OnlineMigrator& mig) {
  std::vector<std::uint8_t> img(
      static_cast<std::size_t>(mig.logical_blocks()) * kBlock);
  for (std::int64_t l = 0; l < mig.logical_blocks(); ++l) {
    EXPECT_TRUE(mig.read_block(l, std::span(img).subspan(
                                      static_cast<std::size_t>(l) * kBlock,
                                      kBlock))
                    .ok());
  }
  return img;
}

/// Mirror a sub-write into a flat image of the logical blocks.
void patch(std::vector<std::uint8_t>& mirror, std::int64_t l, std::size_t off,
           std::span<const std::uint8_t> in) {
  std::ranges::copy(in, mirror.begin() + static_cast<std::ptrdiff_t>(
                                             static_cast<std::size_t>(l) *
                                                 kBlock +
                                             off));
}

/// A reference that shares no code with the migrator's write path:
/// every logical block reads back equal to `mirror`, every RAID-5 row's
/// raw blocks XOR to zero, and every diagonal row of the groups below
/// the conversion watermark equals its Eq. 2 chain recomputed here.
/// Raw blocks of a failed disk are stale, so call with every disk
/// healthy.
void expect_matches_reference(const DiskArray& array, OnlineMigrator& mig,
                              int p, const std::vector<std::uint8_t>& mirror) {
  EXPECT_TRUE(logical_image(mig) == mirror) << "logical image diverged";
  const int m = p - 1;
  std::vector<std::uint8_t> acc(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::ranges::fill(acc, 0);
    for (int d = 0; d < m; ++d) {
      xor_into(acc.data(), array.raw_block(d, row).data(), kBlock);
    }
    EXPECT_TRUE(all_zero(acc)) << "RAID-5 row " << row;
  }
  if (mig.new_disk() < 0) return;
  for (std::int64_t g = 0; g < mig.groups_done(); ++g) {
    for (int i = 0; i <= p - 2; ++i) {
      // Diagonal row i: data cells (<i-1-j> mod p, j), j != i.
      std::ranges::fill(acc, 0);
      for (int j = 0; j <= p - 2; ++j) {
        if (j == i) continue;
        const int r = ((i - 1 - j) % p + p) % p;
        xor_into(acc.data(), array.raw_block(j, g * (p - 1) + r).data(),
                 kBlock);
      }
      EXPECT_TRUE(std::ranges::equal(
          acc, array.raw_block(mig.new_disk(), g * (p - 1) + i)))
          << "group " << g << " diagonal row " << i;
    }
  }
}

/// Before start() there is no diagonal column: a sub-block write may
/// only touch the data range and the horizontal parity, byte-identical
/// to the whole-block application path.
TEST(MigratorPartialWrite, PreStartUpdatesHorizontalOnly) {
  const int p = 5, m = p - 1;
  DiskArray a(m, 3 * (p - 1), kBlock), b(m, 3 * (p - 1), kBlock);
  fill_raid5(a, m, 0x5EED);
  fill_raid5(b, m, 0x5EED);
  OnlineMigrator sub(a, p), ref(b, p);
  std::vector<std::uint8_t> mirror = logical_image(sub);
  Rng rng(0x714);
  Buffer scratch(kBlock);
  for (int op = 0; op < 60; ++op) {
    const auto l = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(sub.logical_blocks())));
    const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
    const auto len = 1 + static_cast<std::size_t>(rng.next_below(kBlock - off));
    rng.fill(scratch.data(), len);
    ASSERT_TRUE(
        sub.write_range(l, off, scratch.span().subspan(0, len)).ok());
    apply_mig_ref(ref, l, off, scratch.span().subspan(0, len));
    patch(mirror, l, off, scratch.span().subspan(0, len));
    if (op % 15 == 14) expect_same_contents(a, b);
  }
  expect_same_contents(a, b);
  expect_matches_reference(a, sub, p, mirror);
}

/// After finish() every diagonal chain is generated (kBothFamilies):
/// the delta must land in the horizontal AND the diagonal parity,
/// byte-identical to write_block, and keep the array a valid RAID-6.
TEST(MigratorPartialWrite, PostFinishUpdatesBothFamilies) {
  const int p = 5, m = p - 1;
  DiskArray a(m, 3 * (p - 1), kBlock), b(m, 3 * (p - 1), kBlock);
  fill_raid5(a, m, 0xD1A6);
  fill_raid5(b, m, 0xD1A6);
  OnlineMigrator sub(a, p), ref(b, p);
  sub.start();
  sub.finish();
  ref.start();
  ref.finish();
  ASSERT_EQ(sub.state(), MigrationState::kDone);
  ASSERT_EQ(ref.state(), MigrationState::kDone);
  std::vector<std::uint8_t> mirror = logical_image(sub);
  Rng rng(0x715);
  Buffer scratch(kBlock);
  for (int op = 0; op < 60; ++op) {
    const auto l = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(sub.logical_blocks())));
    const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
    const auto len = 1 + static_cast<std::size_t>(rng.next_below(kBlock - off));
    rng.fill(scratch.data(), len);
    ASSERT_TRUE(
        sub.write_range(l, off, scratch.span().subspan(0, len)).ok());
    apply_mig_ref(ref, l, off, scratch.span().subspan(0, len));
    patch(mirror, l, off, scratch.span().subspan(0, len));
  }
  expect_same_contents(a, b);
  EXPECT_TRUE(sub.verify_raid6());
  EXPECT_TRUE(ref.verify_raid6());
  expect_matches_reference(a, sub, p, mirror);
}

/// Sub-block writes racing the conversion workers: timing decides which
/// diagonal chains the write deltas and which the owner folds in, so
/// the check is semantic — when the dust settles the array must be a
/// valid RAID-6 holding exactly the mirrored bytes.
TEST(MigratorPartialWrite, ConcurrentWithConversionStaysConsistent) {
  const int p = 7, m = p - 1;
  DiskArray a(m, 20 * (p - 1), kBlock);
  fill_raid5(a, m, 0xC0C0);
  OnlineMigrator mig(a, p);
  mig.set_workers(2);
  const std::int64_t total = mig.logical_blocks();
  std::vector<std::uint8_t> mirror(static_cast<std::size_t>(total) * kBlock);
  Buffer tmp(kBlock);
  for (std::int64_t l = 0; l < total; ++l) {
    ASSERT_TRUE(mig.read_block(l, tmp.span()).ok());
    std::copy(tmp.span().begin(), tmp.span().end(),
              mirror.begin() + static_cast<std::size_t>(l) * kBlock);
  }
  mig.start();
  Rng rng(0x716);
  Buffer scratch(kBlock);
  for (int op = 0; op < 400; ++op) {
    const auto l = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(total)));
    const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
    const auto len = 1 + static_cast<std::size_t>(rng.next_below(kBlock - off));
    rng.fill(scratch.data(), len);
    ASSERT_TRUE(
        mig.write_range(l, off, scratch.span().subspan(0, len)).ok());
    std::copy(scratch.data(), scratch.data() + len,
              mirror.begin() + static_cast<std::size_t>(l) * kBlock + off);
  }
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
  expect_matches_reference(a, mig, p, mirror);
  for (std::int64_t l = 0; l < total; ++l) {
    ASSERT_TRUE(mig.read_block(l, tmp.span()).ok());
    ASSERT_TRUE(std::equal(
        tmp.span().begin(), tmp.span().end(),
        mirror.begin() + static_cast<std::size_t>(l) * kBlock))
        << "logical " << l;
  }
}

/// A failed data disk degrades a sub-block write to a parity-only
/// delta, exactly as write_block degrades — differential plus counter.
TEST(MigratorPartialWrite, DegradedDataDiskDeltasParityOnly) {
  const int p = 5, m = p - 1;
  DiskArray a(m, 3 * (p - 1), kBlock), b(m, 3 * (p - 1), kBlock);
  fill_raid5(a, m, 0xDE6);
  fill_raid5(b, m, 0xDE6);
  OnlineMigrator sub(a, p), ref(b, p);
  std::vector<std::uint8_t> mirror = logical_image(sub);
  a.fail_disk(2);
  b.fail_disk(2);
  Rng rng(0x717);
  Buffer scratch(kBlock);
  for (int op = 0; op < 40; ++op) {
    const auto l = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(sub.logical_blocks())));
    const auto off = static_cast<std::size_t>(rng.next_below(kBlock));
    const auto len = 1 + static_cast<std::size_t>(rng.next_below(kBlock - off));
    rng.fill(scratch.data(), len);
    ASSERT_TRUE(
        sub.write_range(l, off, scratch.span().subspan(0, len)).ok());
    apply_mig_ref(ref, l, off, scratch.span().subspan(0, len));
    patch(mirror, l, off, scratch.span().subspan(0, len));
  }
  expect_same_contents(a, b);
  EXPECT_GT(sub.stats().degraded_writes, 0u);
  // Reads reconstruct the lost column's blocks from the updated parity.
  EXPECT_TRUE(logical_image(sub) == mirror);
  // The lost column must be reconstructible from the updated parity.
  EXPECT_EQ(sub.rebuild_failed_disks(), a.blocks_per_disk());
  EXPECT_EQ(ref.rebuild_failed_disks(), b.blocks_per_disk());
  expect_same_contents(a, b);
  expect_matches_reference(a, sub, p, mirror);
}

/// Journal sink that asks `mig` to stop at its `limit`-th checkpoint.
class StopAtCheckpoint final : public CheckpointSink {
 public:
  StopAtCheckpoint(OnlineMigrator& mig, int limit) : mig_(mig), left_(limit) {}
  void write_slot(int slot, std::span<const std::uint8_t> bytes) override {
    inner_.write_slot(slot, bytes);
    if (--left_ == 0) mig_.request_stop();
  }
  std::vector<std::uint8_t> read_slot(int slot) override {
    return inner_.read_slot(slot);
  }

 private:
  OnlineMigrator& mig_;
  int left_;
  MemoryCheckpointSink inner_;
};

/// A migration stopped mid-way holds both trust domains at once: groups
/// below the watermark carry a valid diagonal column, the rest only the
/// RAID-5 rows. Sub-block and whole-block writes must keep both, and the
/// resumed conversion must end in a valid RAID-6 holding the mirror.
TEST(MigratorPartialWrite, StoppedMidMigrationKeepsBothTrustDomains) {
  const int p = 5, m = p - 1;
  DiskArray a(m, 12 * (p - 1), kBlock);
  fill_raid5(a, m, 0x5709);
  OnlineMigrator mig(a, p);
  std::vector<std::uint8_t> mirror = logical_image(mig);
  // start() journals once and each group p times (one per diagonal row,
  // one watermark advance): the 4p + 3rd checkpoint is group 4, row 2.
  StopAtCheckpoint sink(mig, 4 * p + 3);
  mig.attach_journal(sink);
  mig.set_workers(1);  // the checkpoint count assumes one worker
  mig.start();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kStopped);
  ASSERT_EQ(mig.groups_done(), 4);
  Rng rng(0x718);
  Buffer scratch(kBlock);
  for (int op = 0; op < 200; ++op) {
    const auto l = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(mig.logical_blocks())));
    const bool whole = op % 4 == 0;
    const auto off =
        whole ? 0 : static_cast<std::size_t>(rng.next_below(kBlock));
    const auto len =
        whole ? kBlock
              : 1 + static_cast<std::size_t>(rng.next_below(kBlock - off));
    rng.fill(scratch.data(), len);
    const auto in = scratch.span().subspan(0, len);
    ASSERT_TRUE((whole ? mig.write_block(l, in) : mig.write_range(l, off, in))
                    .ok());
    patch(mirror, l, off, in);
  }
  expect_matches_reference(a, mig, p, mirror);
  mig.resume();
  mig.finish();
  ASSERT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
  expect_matches_reference(a, mig, p, mirror);
}

/// Validation: out-of-block ranges throw, zero length is a counted
/// no-op, and a full-block range IS write_block.
TEST(MigratorPartialWrite, RangeValidation) {
  const int p = 5, m = p - 1;
  DiskArray a(m, p - 1, kBlock);
  fill_raid5(a, m, 0x417);
  OnlineMigrator mig(a, p);
  Buffer buf(kBlock);
  Rng rng(3);
  rng.fill(buf.data(), kBlock);
  EXPECT_THROW(mig.write_range(0, kBlock + 1, buf.span().subspan(0, 1)),
               std::out_of_range);
  EXPECT_THROW(mig.write_range(0, kBlock - 1, buf.span().subspan(0, 2)),
               std::out_of_range);
  EXPECT_THROW(mig.write_range(0, 1, buf.span()), std::out_of_range);

  const std::uint64_t w0 = a.total_writes(), r0 = a.total_reads();
  EXPECT_TRUE(mig.write_range(0, 5, buf.span().subspan(0, 0)).ok());
  EXPECT_EQ(a.total_writes(), w0);
  EXPECT_EQ(a.total_reads(), r0);

  // Full-block range == write_block: same bytes, same app_writes step.
  const auto before = mig.stats().app_writes;
  EXPECT_TRUE(mig.write_range(0, 0, buf.span()).ok());
  const auto mid = mig.stats().app_writes;
  Buffer got(kBlock);
  ASSERT_TRUE(mig.read_block(0, got.span()).ok());
  EXPECT_TRUE(got == buf);
  EXPECT_TRUE(mig.write_block(0, buf.span()).ok());
  EXPECT_EQ(mig.stats().app_writes - mid, mid - before);
}

}  // namespace
}  // namespace c56::mig
