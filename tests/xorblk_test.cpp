#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "util/rng.hpp"
#include "xorblk/buffer.hpp"
#include "xorblk/pool.hpp"
#include "xorblk/xor.hpp"

namespace c56 {
namespace {

TEST(Xor, XorIntoMatchesByteLoop) {
  Rng rng(1);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u, 4096u}) {
    std::vector<std::uint8_t> a(n), b(n), expect(n);
    rng.fill(a.data(), n);
    rng.fill(b.data(), n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = a[i] ^ b[i];
    xor_into(a.data(), b.data(), n);
    EXPECT_EQ(a, expect) << "n=" << n;
  }
}

TEST(Xor, XorToThreeOperand) {
  Rng rng(2);
  std::vector<std::uint8_t> a(100), b(100), d(100);
  rng.fill(a.data(), 100);
  rng.fill(b.data(), 100);
  xor_to(d.data(), a.data(), b.data(), 100);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(d[i], a[i] ^ b[i]);
}

TEST(Xor, XorToAliasesDestination) {
  Rng rng(3);
  std::vector<std::uint8_t> a(64), b(64), expect(64);
  rng.fill(a.data(), 64);
  rng.fill(b.data(), 64);
  for (std::size_t i = 0; i < 64; ++i) expect[i] = a[i] ^ b[i];
  xor_to(a.data(), a.data(), b.data(), 64);
  EXPECT_EQ(a, expect);
}

TEST(Xor, SelfInverse) {
  Rng rng(4);
  std::vector<std::uint8_t> a(512), orig(512), b(512);
  rng.fill(a.data(), 512);
  rng.fill(b.data(), 512);
  orig = a;
  xor_into(a.data(), b.data(), 512);
  xor_into(a.data(), b.data(), 512);
  EXPECT_EQ(a, orig);
}

TEST(Xor, AllZeroDetectsSingleBit) {
  for (std::size_t n : {1u, 8u, 9u, 64u, 100u}) {
    std::vector<std::uint8_t> z(n, 0);
    EXPECT_TRUE(all_zero(z.data(), n));
    for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
      z.assign(n, 0);
      z[i] = 1;
      EXPECT_FALSE(all_zero(z.data(), n)) << "n=" << n << " i=" << i;
    }
  }
  EXPECT_TRUE(all_zero(nullptr, 0));
}

TEST(Buffer, ZeroInitialized) {
  Buffer b(128);
  EXPECT_TRUE(all_zero(b.span()));
  EXPECT_EQ(b.size(), 128u);
}

TEST(Buffer, FillConstructor) {
  Buffer b(16, 0xAB);
  for (auto byte : b.span()) EXPECT_EQ(byte, 0xAB);
}

TEST(Buffer, CopyIsDeep) {
  Buffer a(32, 0x11);
  Buffer b = a;
  b.data()[0] = 0x22;
  EXPECT_EQ(a.data()[0], 0x11);
  EXPECT_FALSE(a == b);
  b.data()[0] = 0x11;
  EXPECT_TRUE(a == b);
}

TEST(Buffer, BlockSubdivision) {
  Buffer b(4 * 16);
  b.block(2, 16)[0] = 7;
  EXPECT_EQ(b.data()[32], 7);
  EXPECT_EQ(b.block(2, 16).size(), 16u);
}

TEST(Buffer, MoveLeavesSourceReusable) {
  Buffer a(8, 0x5A);
  Buffer b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b.data()[3], 0x5A);
}

// Buffers of at least 2 MiB come from a huge-page mapping, smaller ones
// from operator new; both must behave the same.
TEST(Buffer, LargeAndSmallFillCopyCompareAndMove) {
  constexpr std::size_t kHuge = std::size_t{2} << 20;
  for (std::size_t n : {kHuge - 1, kHuge, 3 * kHuge + 4099}) {
    SCOPED_TRACE("size " + std::to_string(n));
    Buffer zero(n);
    EXPECT_EQ(zero.size(), n);
    EXPECT_TRUE(all_zero(zero.span()));
    Buffer a(n, 0xA5);
    EXPECT_EQ(a.data()[0], 0xA5);
    EXPECT_EQ(a.data()[n - 1], 0xA5);
    Rng(n).fill(a.data(), n);
    Buffer b = a;
    EXPECT_NE(b.data(), a.data());
    EXPECT_TRUE(a == b);
    b.data()[n - 1] ^= 1;
    EXPECT_FALSE(a == b);
    b = a;
    EXPECT_TRUE(a == b);
    const std::uint8_t* bytes = a.data();
    Buffer moved = std::move(a);
    EXPECT_EQ(moved.data(), bytes);
    EXPECT_EQ(moved.size(), n);
    EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved == b);
    a = std::move(moved);
    EXPECT_TRUE(a == b);
#ifdef MADV_HUGEPAGE
    if (n >= kHuge) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kHuge, 0u);
    }
#endif
  }
}

#if defined(__SANITIZE_ADDRESS__)
#define C56_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define C56_TEST_ASAN 1
#endif
#endif

#ifdef C56_TEST_ASAN
TEST(BufferDeathTest, OverflowPastLargeBufferIsReported) {
  EXPECT_DEATH(
      {
        Buffer b(std::size_t{2} << 20);
        volatile std::uint8_t* bytes = b.data();
        bytes[b.size()] = 1;
      },
      "AddressSanitizer");
}
#endif

TEST(BufferPool, TrimDropsLargestSizesFirst) {
  BufferPool& pool = BufferPool::local();
  pool.trim(0);  // start from a known-empty pool
  ASSERT_EQ(pool.pooled_bytes(), 0u);
  pool.release(Buffer(1024));
  pool.release(Buffer(2048));
  pool.release(Buffer(4096));
  EXPECT_EQ(pool.pooled_bytes(), 7168u);

  // Keeping 3500 bytes must shed the 4096 bucket and nothing else.
  pool.trim(3500);
  EXPECT_EQ(pool.pooled_bytes(), 3072u);
  Buffer small = pool.acquire(1024);  // survivor: served from the pool
  EXPECT_EQ(pool.pooled_bytes(), 2048u);
  const std::uint64_t misses_before = pool.misses();
  Buffer big = pool.acquire(4096);  // trimmed away: fresh allocation
  EXPECT_EQ(pool.misses(), misses_before + 1);

  pool.release(std::move(small));
  pool.release(std::move(big));
  pool.trim(0);
  EXPECT_EQ(pool.pooled_bytes(), 0u);
}

TEST(BufferPool, TrimMaintainsProcessWideGauges) {
  BufferPool& pool = BufferPool::local();
  pool.trim(0);
  const std::uint64_t retained0 = BufferPool::total_retained_bytes();
  const std::uint64_t trimmed0 = BufferPool::total_trimmed_bytes();

  pool.release(Buffer(8192));
  EXPECT_GE(BufferPool::total_retained_bytes(), retained0 + 8192);
  pool.trim(0);
  // The retained gauge gave the bytes back and the trimmed counter
  // recorded the release (other threads may move both concurrently,
  // hence >=; this thread's pool is exact).
  EXPECT_EQ(pool.pooled_bytes(), 0u);
  EXPECT_GE(BufferPool::total_trimmed_bytes(), trimmed0 + 8192);
}

}  // namespace
}  // namespace c56
