// StripeCache and BufferPool unit tests, plus the cache's contract as
// seen through the ArrayController: write-through hits serve reads
// without disk I/O, and every invalidation point (fail, rebuild,
// external hand-off) actually drops stale state.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "migration/stripe_cache.hpp"
#include "util/rng.hpp"
#include "xorblk/pool.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 32;

Buffer pattern(std::uint8_t b) {
  Buffer buf(kBlock);
  for (auto& x : buf.span()) x = b;
  return buf;
}

TEST(StripeCache, LookupMissThenFillThenHit) {
  StripeCache cache(4, 8, kBlock);
  Buffer got(kBlock);
  EXPECT_FALSE(cache.lookup(0, 3, got.span()));
  const Buffer want = pattern(0xAB);
  cache.fill(0, 3, want.span());
  EXPECT_TRUE(cache.lookup(0, 3, got.span()));
  EXPECT_TRUE(got == want);
  // Same stripe, different cell: entry exists but the cell is invalid.
  EXPECT_FALSE(cache.lookup(0, 4, got.span()));
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.insertions, 1u);
}

TEST(StripeCache, FillOverwritesInPlace) {
  StripeCache cache(4, 8, kBlock);
  cache.fill(2, 0, pattern(0x11).span());
  cache.fill(2, 0, pattern(0x22).span());
  Buffer got(kBlock);
  ASSERT_TRUE(cache.lookup(2, 0, got.span()));
  EXPECT_TRUE(got == pattern(0x22));
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(StripeCache, LruEvictsColdestStripe) {
  StripeCache cache(2, 4, kBlock);
  cache.fill(0, 0, pattern(1).span());
  cache.fill(1, 0, pattern(2).span());
  Buffer got(kBlock);
  ASSERT_TRUE(cache.lookup(0, 0, got.span()));  // 0 is now MRU
  cache.fill(2, 0, pattern(3).span());          // evicts 1
  EXPECT_TRUE(cache.lookup(0, 0, got.span()));
  EXPECT_FALSE(cache.lookup(1, 0, got.span()));
  EXPECT_TRUE(cache.lookup(2, 0, got.span()));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(StripeCache, InvalidateDropsOneStripeOrAll) {
  StripeCache cache(8, 4, kBlock);
  for (std::int64_t s = 0; s < 4; ++s) cache.fill(s, 1, pattern(9).span());
  Buffer got(kBlock);
  cache.invalidate(2);
  EXPECT_FALSE(cache.lookup(2, 1, got.span()));
  EXPECT_TRUE(cache.lookup(3, 1, got.span()));
  cache.invalidate_all();
  for (std::int64_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(cache.lookup(s, 1, got.span())) << s;
  }
}

TEST(StripeCache, RejectsBadGeometry) {
  EXPECT_THROW(StripeCache(0, 4, kBlock), std::invalid_argument);
  EXPECT_THROW(StripeCache(4, 0, kBlock), std::invalid_argument);
  EXPECT_THROW(StripeCache(4, 4, 0), std::invalid_argument);
}

TEST(BufferPool, RoundTripReusesStorage) {
  BufferPool& pool = BufferPool::local();
  const std::uint64_t h0 = pool.hits();
  const std::uint64_t m0 = pool.misses();
  const std::uint8_t* p1;
  {
    PooledBuffer a(4096);
    p1 = a.data();
    ASSERT_NE(p1, nullptr);
    EXPECT_EQ(a.size(), 4096u);
  }
  {
    PooledBuffer b(4096);  // exact-size reuse of the released buffer
    EXPECT_EQ(b.data(), p1);
  }
  EXPECT_GE(pool.hits(), h0 + 1);
  // A never-seen size is a miss and a fresh allocation.
  { PooledBuffer c(4096 + 96); }
  EXPECT_GE(pool.misses(), m0 + 1);
}

TEST(BufferPool, DistinctSizesGetDistinctBuckets) {
  { PooledBuffer a(128), b(256); }
  PooledBuffer a2(128), b2(256);
  EXPECT_EQ(a2.size(), 128u);
  EXPECT_EQ(b2.size(), 256u);
}

TEST(BufferPool, ThreadLocalPoolsDontShare) {
  // release() must land in the releasing thread's pool; another thread
  // acquiring the same size allocates fresh storage (no locking, no
  // sharing). The assertion is just that this is race-free and sane;
  // run under TSan this is the actual test.
  { PooledBuffer warm(512); }
  std::thread t([] {
    PooledBuffer other(512);
    ASSERT_NE(other.data(), nullptr);
    other.zero();
  });
  t.join();
  PooledBuffer mine(512);
  ASSERT_NE(mine.data(), nullptr);
}

/// Controller-level cache behaviour: hits bypass the DiskArray.
TEST(ControllerCache, WriteThroughHitsServeReadsWithoutIo) {
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), 4LL * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  ctrl.set_cache_stripes(4);
  EXPECT_EQ(ctrl.cache_stripes(), 4u);
  Rng rng(5);
  Buffer buf(kBlock), got(kBlock);
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    rng.fill(buf.data(), kBlock);
    ctrl.write(l, buf.span());
  }
  const std::uint64_t r0 = array.total_reads();
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    ctrl.read(l, got.span());
  }
  EXPECT_EQ(array.total_reads(), r0);  // every read was a cache hit
  EXPECT_GT(ctrl.cache_stats().hits, 0u);
  // Disabling drops the cache; reads go to disk again.
  ctrl.set_cache_stripes(0);
  ctrl.read(0, got.span());
  EXPECT_GT(array.total_reads(), r0);
  EXPECT_EQ(ctrl.cache_stats().hits, 0u);  // stats of a disabled cache
}

TEST(ControllerCache, InvalidateCacheDropsExternalOverwrites) {
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  ctrl.set_cache_stripes(2);
  const Buffer v1 = pattern(0x31);
  ctrl.write(0, v1.span());
  Buffer got(kBlock);
  ctrl.read(0, got.span());
  EXPECT_TRUE(got == v1);
  // Clobber the block behind the controller's back (what an online
  // migration hand-off does), then prove the cache masks it ...
  auto raw = array.raw_block(0, 0);  // logical 0 = cell (0,0) = disk 0
  const Buffer v2 = pattern(0x32);
  std::copy(v2.span().begin(), v2.span().end(), raw.begin());
  ctrl.read(0, got.span());
  EXPECT_TRUE(got == v1) << "expected the (stale) cached value";
  // ... until invalidate_cache(), after which disk truth wins.
  ctrl.invalidate_cache();
  ctrl.read(0, got.span());
  EXPECT_TRUE(got == v2);
}

TEST(ControllerCache, FailAndRebuildInvalidate) {
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  ctrl.set_cache_stripes(2);
  Rng rng(7);
  Buffer buf(kBlock), got(kBlock);
  std::vector<Buffer> model;
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    rng.fill(buf.data(), kBlock);
    model.push_back(buf);
    ctrl.write(l, buf.span());
  }
  ctrl.fail_disk(0);
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    ctrl.read(l, got.span());
    EXPECT_TRUE(got == model[static_cast<std::size_t>(l)]) << l;
  }
  ctrl.rebuild_disk(0);
  EXPECT_TRUE(ctrl.scrub().empty());
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    ctrl.read(l, got.span());
    EXPECT_TRUE(got == model[static_cast<std::size_t>(l)]) << l;
  }
}

TEST(StripeCache, EvictionCountedOncePerEvictedStripe) {
  // capacity 2: every insertion beyond the second evicts exactly one
  // stripe, and evictions must count one per stripe pushed out — not
  // per cell, not per touch.
  StripeCache cache(2, /*cells_per_stripe=*/4, kBlock);
  std::vector<std::uint8_t> blk(kBlock, 0x11);
  std::vector<std::uint8_t> out(kBlock);
  cache.fill(0, 0, blk);
  cache.fill(0, 1, blk);  // same stripe: update (and promote), no insertion
  cache.fill(1, 0, blk);  // enters at the cold end
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.fill(2, 0, blk);  // evicts stripe 1, the coldest
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(1, 0, out));
  EXPECT_TRUE(cache.lookup(0, 0, out));  // a hit: stripe 0 is hottest
  cache.fill(2, 1, blk);  // promotes stripe 2 over stripe 0
  cache.fill(2, 2, blk);  // updates: still one eviction
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.fill(3, 0, blk);  // evicts stripe 0
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().insertions, 4u);
  EXPECT_FALSE(cache.lookup(0, 0, out));
  EXPECT_TRUE(cache.lookup(2, 0, out));
  EXPECT_TRUE(cache.lookup(3, 0, out));
}

TEST(StripeCache, OneTouchStreamDoesNotEvictTheHotSet) {
  // Scan resistance: a newcomer enters at the cold end, so a stream of
  // stripes touched once evicts only its own previous newcomer and the
  // two stripes touched twice survive it.
  StripeCache cache(3, /*cells_per_stripe=*/4, kBlock);
  const Buffer want = pattern(0x5A);
  Buffer got(kBlock);
  for (std::int64_t hot : {0, 1}) {
    cache.fill(hot, 0, want.span());
    ASSERT_TRUE(cache.lookup(hot, 0, got.span()));  // the second touch
  }
  for (std::int64_t s = 100; s < 200; ++s) {
    cache.fill(s, 0, want.span());
    if (s > 100) {
      EXPECT_FALSE(cache.lookup(s - 1, 0, got.span())) << s;
    }
  }
  EXPECT_EQ(cache.stats().evictions, 99u);
  EXPECT_TRUE(cache.lookup(0, 0, got.span()));
  EXPECT_TRUE(cache.lookup(1, 0, got.span()));
  EXPECT_TRUE(cache.lookup(199, 0, got.span()));
}

TEST(StripeCache, SecondTouchPromotes) {
  // A stripe hit by lookup, or filled again, after its insertion is
  // promoted to the hot end, so the next miss evicts the other stripe.
  const Buffer want = pattern(0x66);
  Buffer got(kBlock);
  for (const bool by_lookup : {true, false}) {
    StripeCache cache(2, /*cells_per_stripe=*/4, kBlock);
    cache.fill(0, 0, want.span());
    cache.fill(1, 0, want.span());  // stripe 1 is now the coldest
    if (by_lookup) {
      ASSERT_TRUE(cache.lookup(1, 0, got.span()));
    } else {
      cache.fill(1, 0, want.span());
    }
    cache.fill(2, 0, want.span());  // the miss evicts stripe 0
    EXPECT_TRUE(cache.lookup(1, 0, got.span())) << by_lookup;
    EXPECT_FALSE(cache.lookup(0, 0, got.span())) << by_lookup;
  }
}

TEST(StripeCache, MultiCellFillPromotes) {
  // A multi-block request fills its stripe cell by cell: the second
  // cell's fill makes the stripe the hottest, above a stripe that a
  // lookup promoted earlier, so the next miss evicts that one instead.
  StripeCache cache(2, /*cells_per_stripe=*/4, kBlock);
  const Buffer want = pattern(0x77);
  Buffer got(kBlock);
  cache.fill(0, 0, want.span());
  ASSERT_TRUE(cache.lookup(0, 0, got.span()));
  cache.fill(1, 0, want.span());
  cache.fill(1, 1, want.span());
  cache.fill(2, 0, want.span());  // evicts stripe 0, now the coldest
  EXPECT_FALSE(cache.lookup(0, 0, got.span()));
  EXPECT_TRUE(cache.lookup(1, 0, got.span()));
  EXPECT_TRUE(cache.lookup(1, 1, got.span()));
  EXPECT_TRUE(cache.lookup(2, 0, got.span()));
}

TEST(StripeCache, ConcurrentHammer) {
  // Every thread contends on the cache's one mutex: the TSan CI leg
  // turns this into a lock-correctness check for fill / lookup /
  // invalidate racing each other.
  constexpr int kCapacity = 4;
  StripeCache cache(kCapacity, /*cells_per_stripe=*/2, kBlock);
  constexpr int kThreads = 4;
  constexpr int kIters = 1998;  // divisible by 3: exact op-mix accounting
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::vector<std::uint8_t> blk(kBlock, static_cast<std::uint8_t>(t));
      std::vector<std::uint8_t> out(kBlock);
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t stripe =
            static_cast<std::int64_t>(i % 3) * kCapacity;
        switch ((i + t) % 3) {
          case 0: cache.fill(stripe, i % 2, blk); break;
          case 1: cache.lookup(stripe, i % 2, out); break;
          default: cache.invalidate(stripe); break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads) * kIters / 3);
}

TEST(ControllerCache, CacheStripesKnobChecksItsInput) {
  // C56_CACHE_STRIPES goes through the checked env parser: garbage and
  // negative values leave the cache off instead of strtoull-wrapping
  // into an absurd capacity.
  std::size_t cache_expected = 0;
  const auto stripes_with = [&](const char* v) {
    ASSERT_EQ(setenv("C56_CACHE_STRIPES", v, 1), 0) << v;
    auto code = make_code(CodeId::kCode56, 5);
    DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
    ArrayController ctrl(array, std::move(code));
    unsetenv("C56_CACHE_STRIPES");
    EXPECT_EQ(ctrl.cache_stripes(), cache_expected) << v;
  };
  stripes_with("garbage");  // non-numeric -> default off
  stripes_with("-4");       // negative -> clamps to 0 -> off
  stripes_with("12junk");   // trailing junk -> default off
  cache_expected = 1u << 22;
  stripes_with("99999999999999999999");  // overflow -> clamped cap
}

TEST(StripeCache, HoldsExactlyItsCapacity) {
  // One LRU over every slot: ten stripes fit a ten-stripe cache whatever
  // their indices, so every lookup hits and nothing is evicted.
  StripeCache cache(10, 4, kBlock);
  const Buffer want = pattern(0x3C);
  Buffer got(kBlock);
  for (std::int64_t s = 0; s < 10; ++s) cache.fill(s, 0, want.span());
  for (std::int64_t s = 0; s < 10; ++s) {
    EXPECT_TRUE(cache.lookup(s, 0, got.span())) << "stripe " << s;
    EXPECT_TRUE(got == want);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  // The smallest multi-stripe cache holds both stripes it was filled with.
  StripeCache tiny(2, 4, kBlock);
  tiny.fill(0, 0, want.span());
  tiny.fill(1, 0, want.span());
  EXPECT_TRUE(tiny.lookup(0, 0, got.span()));
  EXPECT_TRUE(tiny.lookup(1, 0, got.span()));
  EXPECT_EQ(tiny.stats().evictions, 0u);
}

TEST(StripeCache, RecycledSlotKeepsNoStaleBlocks) {
  // Capacity 1: stripe 1 takes stripe 0's slot. Only the cell filled
  // after the recycle is valid; stripe 0's blocks are gone, and a miss
  // copies nothing, so no lookup ever sees stripe 0's bytes.
  StripeCache cache(1, 4, kBlock);
  for (int c = 0; c < 4; ++c) {
    cache.fill(0, c, pattern(static_cast<std::uint8_t>(0x10 + c)).span());
  }
  const Buffer mine = pattern(0x77);
  cache.fill(1, 0, mine.span());
  EXPECT_EQ(cache.stats().evictions, 1u);
  const Buffer untouched = pattern(0xEE);
  Buffer got = untouched;
  ASSERT_TRUE(cache.lookup(1, 0, got.span()));
  EXPECT_TRUE(got == mine);
  for (int c = 1; c < 4; ++c) {
    got = untouched;
    EXPECT_FALSE(cache.lookup(1, c, got.span())) << "cell " << c;
    EXPECT_TRUE(got == untouched) << "cell " << c;
  }
  for (int c = 0; c < 4; ++c) {
    got = untouched;
    EXPECT_FALSE(cache.lookup(0, c, got.span())) << "cell " << c;
    EXPECT_TRUE(got == untouched) << "cell " << c;
  }
}

TEST(StripeCache, InvalidatedSlotIsReusedWithoutEviction) {
  StripeCache cache(2, 4, kBlock);
  const Buffer want = pattern(0x42);
  Buffer got(kBlock);
  cache.fill(0, 0, want.span());
  cache.fill(1, 0, want.span());
  cache.invalidate(1);  // the most recently used stripe
  cache.fill(2, 0, want.span());  // takes stripe 1's freed slot
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_TRUE(cache.lookup(0, 0, got.span()));
  EXPECT_FALSE(cache.lookup(1, 0, got.span()));
  EXPECT_TRUE(cache.lookup(2, 0, got.span()));
  // Every slot freed by invalidate_all is reused before any eviction.
  cache.invalidate_all();
  cache.fill(3, 0, want.span());
  cache.fill(4, 0, want.span());
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ControllerCache, WholeArrayCacheRereadsWithoutIo) {
  // A cache sized to the whole array holds the whole array: after one
  // pass of reads, a second pass is served without any disk read.
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), 10LL * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  ctrl.set_cache_stripes(10);
  Buffer got(kBlock);
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    ctrl.read(l, got.span());
  }
  const std::uint64_t r0 = array.total_reads();
  for (std::int64_t l = 0; l < ctrl.logical_blocks(); ++l) {
    ctrl.read(l, got.span());
  }
  EXPECT_EQ(array.total_reads(), r0);
  EXPECT_EQ(ctrl.cache_stats().evictions, 0u);
}

TEST(ControllerCache, EnvVarEnablesCacheAtConstruction) {
  ASSERT_EQ(setenv("C56_CACHE_STRIPES", "3", 1), 0);
  auto code = make_code(CodeId::kCode56, 5);
  DiskArray array(code->cols(), 2LL * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  unsetenv("C56_CACHE_STRIPES");
  EXPECT_EQ(ctrl.cache_stripes(), 3u);
  auto code2 = make_code(CodeId::kCode56, 5);
  DiskArray array2(code2->cols(), 2LL * code2->rows(), kBlock);
  ArrayController fresh(array2, std::move(code2));
  EXPECT_EQ(fresh.cache_stripes(), 0u);  // default stays off
}

}  // namespace
}  // namespace c56::mig
