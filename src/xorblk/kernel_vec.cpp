// The vector XOR kernels, written once in GCC/Clang vector extensions
// and instantiated once per vector width (which widths, and who picks
// one: kernel.hpp).
//
// There are two bodies. accumulate_body serves xor_accumulate and, over
// the two or three sources {dst, src}, {a, b} and {dst, a, b}, xor_into,
// xor_to and xor_delta; the compiler unrolls the constant source loop.
// all_zero_body ORs. Accumulation walks 4-vector strips, then single
// vectors, the OR walks single vectors; both end in 64-bit words, then
// bytes. Loads and stores are unaligned, so odd lengths and offsets behave
// exactly like the scalar reference. Every source of a strip is loaded
// before dst is stored, which keeps exact aliasing of dst safe.
//
// Vector types never appear in a function signature: a 32- or 64-byte
// vector passed by value from default-target code changes the psABI
// (-Wpsabi). Loads and stores go through memcpy into locals instead,
// which compiles to one unaligned vector move each.

#include "xorblk/kernel.hpp"

#include <cstring>

namespace c56 {

#if !defined(C56_DISABLE_SIMD) && (defined(__x86_64__) || defined(__aarch64__))

namespace {

// Concrete typedefs: GCC silently drops vector_size when its argument is
// a template parameter of an alias template, leaving an 8-byte scalar.
typedef std::uint64_t V16 __attribute__((vector_size(16)));
typedef std::uint64_t V32 __attribute__((vector_size(32)));
typedef std::uint64_t V64 __attribute__((vector_size(64)));
static_assert(sizeof(V16) == 16 && sizeof(V32) == 32 && sizeof(V64) == 64);

// Vectors per strip. The strip loops carry an unroll pragma: without
// it GCC keeps the strip arrays on the stack and copies them in 16-byte
// pieces.
constexpr int kUnroll = 4;

// Each *_strips helper works from byte `off` in strips of U values of
// type V while a whole strip fits, and returns the first byte left. The
// bodies call it with V, then std::uint64_t and std::uint8_t for the
// word and byte tail.

// dst = srcs[0] ^ ... ^ srcs[nsrcs - 1], nsrcs >= 1.
template <class V, int U>
[[gnu::always_inline]] inline std::size_t accumulate_strips(
    std::uint8_t* d, const void* const* srcs, std::size_t nsrcs,
    std::size_t off, std::size_t n) {
  constexpr std::size_t W = sizeof(V);
  for (; off + U * W <= n; off += U * W) {
    V acc[U];
    const auto* p = static_cast<const std::uint8_t*>(srcs[0]) + off;
#pragma GCC unroll kUnroll
    for (int i = 0; i < U; ++i) std::memcpy(&acc[i], p + i * W, W);
    for (std::size_t s = 1; s < nsrcs; ++s) {
      p = static_cast<const std::uint8_t*>(srcs[s]) + off;
#pragma GCC unroll kUnroll
      for (int i = 0; i < U; ++i) {
        V v;
        std::memcpy(&v, p + i * W, W);
        acc[i] ^= v;
      }
    }
#pragma GCC unroll kUnroll
    for (int i = 0; i < U; ++i) std::memcpy(d + off + i * W, &acc[i], W);
  }
  return off;
}

// any |= every bit of the bytes covered.
template <class V>
[[gnu::always_inline]] inline std::size_t or_strips(const std::uint8_t* b,
                                                    std::size_t off,
                                                    std::size_t n,
                                                    std::uint64_t& any) {
  constexpr std::size_t W = sizeof(V);
  V acc = {};
  for (; off + W <= n; off += W) {
    V v;
    std::memcpy(&v, b + off, W);
    acc |= v;
  }
  std::uint64_t lanes[(W + 7) / 8] = {};
  std::memcpy(lanes, &acc, W);
  for (std::uint64_t lane : lanes) any |= lane;
  return off;
}

template <class V>
[[gnu::always_inline]] inline void accumulate_body(void* dst,
                                                   const void* const* srcs,
                                                   std::size_t nsrcs,
                                                   std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  if (nsrcs == 0) {
    std::memset(d, 0, n);
    return;
  }
  std::size_t off = accumulate_strips<V, kUnroll>(d, srcs, nsrcs, 0, n);
  off = accumulate_strips<V, 1>(d, srcs, nsrcs, off, n);
  off = accumulate_strips<std::uint64_t, 1>(d, srcs, nsrcs, off, n);
  accumulate_strips<std::uint8_t, 1>(d, srcs, nsrcs, off, n);
}

template <class V>
[[gnu::always_inline]] inline bool all_zero_body(const void* p,
                                                 std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  std::uint64_t any = 0;
  std::size_t off = or_strips<V>(b, 0, n, any);
  off = or_strips<std::uint64_t>(b, off, n, any);
  or_strips<std::uint8_t>(b, off, n, any);
  return any == 0;
}

// One XorKernel per width: thin entry points that pin the body to a
// target, so each instance is compiled with that ISA's registers.
#define C56_VEC_KERNEL(ISA, NAME, V, ...)                                  \
  __VA_ARGS__ void NAME##_xor_to(void* d, const void* a, const void* b,     \
                                 std::size_t n) {                            \
    const void* srcs[] = {a, b};                                             \
    accumulate_body<V>(d, srcs, 2, n);                                       \
  }                                                                          \
  __VA_ARGS__ void NAME##_xor_into(void* d, const void* s, std::size_t n) { \
    NAME##_xor_to(d, d, s, n);                                               \
  }                                                                          \
  __VA_ARGS__ void NAME##_xor_delta(void* d, const void* a, const void* b,  \
                                    std::size_t n) {                         \
    const void* srcs[] = {d, a, b};                                          \
    accumulate_body<V>(d, srcs, 3, n);                                       \
  }                                                                          \
  __VA_ARGS__ void NAME##_xor_accumulate(void* d, const void* const* srcs,  \
                                         std::size_t nsrcs, std::size_t n) { \
    accumulate_body<V>(d, srcs, nsrcs, n);                                   \
  }                                                                          \
  __VA_ARGS__ bool NAME##_all_zero(const void* p, std::size_t n) {          \
    return all_zero_body<V>(p, n);                                           \
  }                                                                          \
  constexpr XorKernel k_##NAME{                                              \
      ISA,           #NAME,              &NAME##_xor_into,                   \
      &NAME##_xor_to, &NAME##_xor_delta, &NAME##_xor_accumulate,             \
      &NAME##_all_zero,                                                      \
  };

#if defined(__x86_64__)
C56_VEC_KERNEL(XorIsa::kSse2, sse2, V16)
C56_VEC_KERNEL(XorIsa::kAvx2, avx2, V32, __attribute__((target("avx2"))))
C56_VEC_KERNEL(XorIsa::kAvx512, avx512, V64,
               __attribute__((target("avx512f"))))
constexpr XorKernel kBuilt[] = {k_sse2, k_avx2, k_avx512};
#else
C56_VEC_KERNEL(XorIsa::kNeon, neon, V16)
constexpr XorKernel kBuilt[] = {k_neon};
#endif

#undef C56_VEC_KERNEL

}  // namespace

std::span<const XorKernel> built_vector_kernels() noexcept { return kBuilt; }

#else  // scalar-only build, or no vector variant for this architecture

std::span<const XorKernel> built_vector_kernels() noexcept { return {}; }

#endif

}  // namespace c56
