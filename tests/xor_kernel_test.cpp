// Differential harness for the XOR kernel layer: every variant compiled
// into the binary that the running CPU can execute is checked
// bit-for-bit against the 64-bit-lane scalar reference, over randomized
// sizes from 1 to 4096 bytes (odd lengths included), deliberately
// misaligned offsets, and the aliasing patterns the API documents
// (dst == a for xor_to, dst == srcs[i] for xor_accumulate). Buffers
// carry slack on both sides so an out-of-bounds vector tail shows up as
// a mismatch against the untouched scalar copy.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "xorblk/kernel.hpp"
#include "xorblk/xor.hpp"

namespace c56 {
namespace {

constexpr std::size_t kSlack = 64;  // guard bytes around every region
constexpr std::size_t kMaxLen = 4096;

std::vector<std::size_t> test_sizes(Rng& rng) {
  // Strip boundaries of every kernel (8/32/64/128/256-byte strips) plus
  // their odd neighbours, and a randomized tail.
  std::vector<std::size_t> sizes = {1,   2,   3,    7,    8,    9,   15,
                                    16,  31,  32,   33,   63,   64,  65,
                                    127, 128, 129,  255,  256,  257, 511,
                                    512, 513, 1023, 1024, 2048, 4095, 4096};
  for (int i = 0; i < 24; ++i) {
    sizes.push_back(1 + static_cast<std::size_t>(rng.next_below(kMaxLen)));
  }
  return sizes;
}

const std::size_t kOffsets[] = {0, 1, 3, 13, 31};

class XorKernelDiff : public ::testing::TestWithParam<XorKernel> {
 protected:
  const XorKernel& kernel() const { return GetParam(); }
  const XorKernel& ref() const { return scalar_kernel(); }
};

std::string kernel_name(const ::testing::TestParamInfo<XorKernel>& info) {
  return info.param.name;
}

TEST_P(XorKernelDiff, XorIntoMatchesScalar) {
  Rng rng(0xC56'0001);
  for (std::size_t n : test_sizes(rng)) {
    for (std::size_t off : kOffsets) {
      std::vector<std::uint8_t> dst(n + 2 * kSlack), src(n + 2 * kSlack);
      rng.fill(dst.data(), dst.size());
      rng.fill(src.data(), src.size());
      std::vector<std::uint8_t> want = dst;
      ref().xor_into(want.data() + off, src.data() + off, n);
      kernel().xor_into(dst.data() + off, src.data() + off, n);
      ASSERT_EQ(dst, want) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(XorKernelDiff, XorToMatchesScalar) {
  Rng rng(0xC56'0002);
  for (std::size_t n : test_sizes(rng)) {
    for (std::size_t off : kOffsets) {
      std::vector<std::uint8_t> a(n + 2 * kSlack), b(n + 2 * kSlack);
      std::vector<std::uint8_t> dst(n + 2 * kSlack), want(dst);
      rng.fill(a.data(), a.size());
      rng.fill(b.data(), b.size());
      rng.fill(dst.data(), dst.size());
      want = dst;
      ref().xor_to(want.data() + off, a.data() + off, b.data() + off, n);
      kernel().xor_to(dst.data() + off, a.data() + off, b.data() + off, n);
      ASSERT_EQ(dst, want) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(XorKernelDiff, XorToAliasedDstMatchesScalar) {
  Rng rng(0xC56'0003);
  for (std::size_t n : test_sizes(rng)) {
    for (std::size_t off : kOffsets) {
      std::vector<std::uint8_t> a(n + 2 * kSlack), b(n + 2 * kSlack);
      rng.fill(a.data(), a.size());
      rng.fill(b.data(), b.size());
      // dst == a
      std::vector<std::uint8_t> want = a;
      ref().xor_to(want.data() + off, want.data() + off, b.data() + off, n);
      std::vector<std::uint8_t> got = a;
      kernel().xor_to(got.data() + off, got.data() + off, b.data() + off, n);
      ASSERT_EQ(got, want) << "dst==a n=" << n << " off=" << off;
      // dst == b
      want = b;
      ref().xor_to(want.data() + off, a.data() + off, want.data() + off, n);
      got = b;
      kernel().xor_to(got.data() + off, a.data() + off, got.data() + off, n);
      ASSERT_EQ(got, want) << "dst==b n=" << n << " off=" << off;
    }
  }
}

TEST_P(XorKernelDiff, XorDeltaMatchesScalar) {
  Rng rng(0xC56'0008);
  for (std::size_t n : test_sizes(rng)) {
    for (std::size_t off : kOffsets) {
      std::vector<std::uint8_t> a(n + 2 * kSlack), b(n + 2 * kSlack);
      std::vector<std::uint8_t> dst(n + 2 * kSlack);
      rng.fill(a.data(), a.size());
      rng.fill(b.data(), b.size());
      rng.fill(dst.data(), dst.size());
      std::vector<std::uint8_t> want = dst;
      ref().xor_delta(want.data() + off, a.data() + off, b.data() + off, n);
      kernel().xor_delta(dst.data() + off, a.data() + off, b.data() + off, n);
      ASSERT_EQ(dst, want) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(XorKernelDiff, XorDeltaAliasedMatchesScalar) {
  Rng rng(0xC56'0009);
  for (std::size_t n : test_sizes(rng)) {
    std::vector<std::uint8_t> a(n), b(n);
    rng.fill(a.data(), n);
    rng.fill(b.data(), n);
    // dst == a: dst ^= dst ^ b leaves dst == b.
    std::vector<std::uint8_t> want = a;
    ref().xor_delta(want.data(), want.data(), b.data(), n);
    std::vector<std::uint8_t> got = a;
    kernel().xor_delta(got.data(), got.data(), b.data(), n);
    ASSERT_EQ(got, want) << "dst==a n=" << n;
    EXPECT_EQ(got, b) << "n=" << n;
    // dst == b symmetrically.
    want = b;
    ref().xor_delta(want.data(), a.data(), want.data(), n);
    got = b;
    kernel().xor_delta(got.data(), a.data(), got.data(), n);
    ASSERT_EQ(got, want) << "dst==b n=" << n;
  }
}

// xor_delta is definitionally xor_into of (a ^ b); pin the algebra so
// the write planner may use either formulation interchangeably.
TEST_P(XorKernelDiff, XorDeltaEqualsXorIntoOfXorTo) {
  Rng rng(0xC56'000A);
  for (std::size_t n : test_sizes(rng)) {
    std::vector<std::uint8_t> a(n), b(n), dst(n);
    rng.fill(a.data(), n);
    rng.fill(b.data(), n);
    rng.fill(dst.data(), n);
    std::vector<std::uint8_t> want = dst, delta(n);
    ref().xor_to(delta.data(), a.data(), b.data(), n);
    ref().xor_into(want.data(), delta.data(), n);
    std::vector<std::uint8_t> got = dst;
    kernel().xor_delta(got.data(), a.data(), b.data(), n);
    ASSERT_EQ(got, want) << "n=" << n;
  }
}

TEST_P(XorKernelDiff, XorAccumulateMatchesScalar) {
  Rng rng(0xC56'0004);
  for (std::size_t n : test_sizes(rng)) {
    for (std::size_t nsrcs : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{5}, std::size_t{12}}) {
      const std::size_t off = kOffsets[rng.next_below(std::size(kOffsets))];
      std::vector<std::vector<std::uint8_t>> bufs(nsrcs);
      std::vector<const void*> srcs;
      for (auto& s : bufs) {
        s.resize(n + 2 * kSlack);
        rng.fill(s.data(), s.size());
        srcs.push_back(s.data() + off);
      }
      std::vector<std::uint8_t> dst(n + 2 * kSlack), want;
      rng.fill(dst.data(), dst.size());
      want = dst;
      ref().xor_accumulate(want.data() + off, srcs.data(), nsrcs, n);
      kernel().xor_accumulate(dst.data() + off, srcs.data(), nsrcs, n);
      ASSERT_EQ(dst, want) << "n=" << n << " nsrcs=" << nsrcs
                           << " off=" << off;
    }
  }
}

TEST_P(XorKernelDiff, XorAccumulateAliasedDstMatchesScalar) {
  Rng rng(0xC56'0005);
  for (std::size_t n : test_sizes(rng)) {
    for (std::size_t nsrcs : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
      // dst aliases each source position in turn.
      for (std::size_t alias = 0; alias < nsrcs; ++alias) {
        std::vector<std::vector<std::uint8_t>> bufs(nsrcs);
        for (auto& s : bufs) {
          s.resize(n + 2 * kSlack);
          rng.fill(s.data(), s.size());
        }
        auto run = [&](const XorKernel& k, std::vector<std::vector<std::uint8_t>> copy) {
          std::vector<const void*> srcs;
          for (auto& s : copy) srcs.push_back(s.data());
          k.xor_accumulate(copy[alias].data(), srcs.data(), nsrcs, n);
          return copy[alias];
        };
        ASSERT_EQ(run(kernel(), bufs), run(ref(), bufs))
            << "n=" << n << " nsrcs=" << nsrcs << " alias=" << alias;
      }
    }
  }
}

TEST_P(XorKernelDiff, AllZeroMatchesScalar) {
  Rng rng(0xC56'0006);
  for (std::size_t n : test_sizes(rng)) {
    for (std::size_t off : kOffsets) {
      std::vector<std::uint8_t> buf(n + 2 * kSlack, 0);
      // Guard bytes are nonzero: all_zero must only inspect [off, off+n).
      for (std::size_t i = 0; i < off; ++i) buf[i] = 0xEE;
      for (std::size_t i = off + n; i < buf.size(); ++i) buf[i] = 0xEE;
      EXPECT_TRUE(kernel().all_zero(buf.data() + off, n));
      EXPECT_EQ(kernel().all_zero(buf.data() + off, n),
                ref().all_zero(buf.data() + off, n));
      // Flip one random bit inside the window; both must see it.
      const std::size_t pos = rng.next_below(n);
      buf[off + pos] = static_cast<std::uint8_t>(1u << rng.next_below(8));
      EXPECT_FALSE(kernel().all_zero(buf.data() + off, n))
          << "n=" << n << " off=" << off << " pos=" << pos;
      // The very last byte is where lazy tail handling slips.
      std::fill(buf.begin(), buf.end(), 0);
      buf[off + n - 1] = 0x80;
      EXPECT_FALSE(kernel().all_zero(buf.data() + off, n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBuiltKernels, XorKernelDiff,
                         ::testing::ValuesIn(available_kernels().begin(),
                                             available_kernels().end()),
                         kernel_name);

TEST(XorKernelRegistry, ScalarIsAlwaysFirstAndComplete) {
  const auto kernels = available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels[0].isa, XorIsa::kScalar);
  for (const XorKernel& k : kernels) {
    EXPECT_NE(k.xor_into, nullptr) << k.name;
    EXPECT_NE(k.xor_to, nullptr) << k.name;
    EXPECT_NE(k.xor_delta, nullptr) << k.name;
    EXPECT_NE(k.xor_accumulate, nullptr) << k.name;
    EXPECT_NE(k.all_zero, nullptr) << k.name;
  }
}

// No build-time probe reports which variants a binary carries, so pin
// the list: a build that silently lost a width would otherwise only show
// up as a slower benchmark.
TEST(XorKernelRegistry, EveryRunnableIsaIsRegistered) {
  std::vector<std::string> want = {"scalar"};
#if !defined(C56_DISABLE_SIMD) && defined(__x86_64__)
  want.push_back("sse2");
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) want.push_back("avx2");
  if (__builtin_cpu_supports("avx512f")) want.push_back("avx512");
#elif !defined(C56_DISABLE_SIMD) && defined(__aarch64__)
  want.push_back("neon");
#endif
  std::vector<std::string> got;
  for (const XorKernel& k : available_kernels()) {
    got.push_back(k.name);
    EXPECT_EQ(to_string(k.isa), got.back());
  }
  EXPECT_EQ(got, want);
  // The widest runnable variant is the default.
  if (std::getenv("C56_XOR_KERNEL") == nullptr) {
    EXPECT_EQ(active_kernel().name, want.back());
  }
}

TEST(XorKernelRegistry, ActiveKernelIsAvailable) {
  const XorKernel& active = active_kernel();
  bool found = false;
  for (const XorKernel& k : available_kernels()) {
    found |= k.name == std::string(active.name);
  }
  EXPECT_TRUE(found) << active.name;
}

// The public entry points must agree with whatever kernel is active —
// this pins the wrapper plumbing (span overloads included).
TEST(XorKernelRegistry, PublicApiDispatchesToActiveKernel) {
  Rng rng(0xC56'0007);
  const std::size_t n = 1537;  // odd, multi-strip
  std::vector<std::uint8_t> a(n), b(n), c(n);
  rng.fill(a.data(), n);
  rng.fill(b.data(), n);
  rng.fill(c.data(), n);

  std::vector<std::uint8_t> got(n), want(n);
  active_kernel().xor_to(want.data(), a.data(), b.data(), n);
  xor_to(std::span<std::uint8_t>(got), std::span<const std::uint8_t>(a),
         std::span<const std::uint8_t>(b));
  EXPECT_EQ(got, want);

  want = got;
  active_kernel().xor_delta(want.data(), a.data(), b.data(), n);
  xor_delta_into(std::span<std::uint8_t>(got), std::span<const std::uint8_t>(a),
                 std::span<const std::uint8_t>(b));
  EXPECT_EQ(got, want);

  const void* raw_srcs[] = {a.data(), b.data(), c.data()};
  active_kernel().xor_accumulate(want.data(), raw_srcs, 3, n);
  const std::uint8_t* srcs[] = {a.data(), b.data(), c.data()};
  xor_accumulate(std::span<std::uint8_t>(got),
                 std::span<const std::uint8_t* const>(srcs));
  EXPECT_EQ(got, want);

  std::vector<std::uint8_t> zero(n, 0);
  EXPECT_TRUE(all_zero(std::span<const std::uint8_t>(zero)));
  zero[n - 1] = 1;
  EXPECT_FALSE(all_zero(std::span<const std::uint8_t>(zero)));
}

}  // namespace
}  // namespace c56
