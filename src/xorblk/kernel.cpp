#include "xorblk/kernel.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "util/env.hpp"

namespace c56 {

const char* to_string(XorIsa isa) noexcept {
  switch (isa) {
    case XorIsa::kScalar:
      return "scalar";
    case XorIsa::kSse2:
      return "sse2";
    case XorIsa::kAvx2:
      return "avx2";
    case XorIsa::kAvx512:
      return "avx512";
    case XorIsa::kNeon:
      return "neon";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------
// Scalar reference kernel: eight 64-bit lanes per iteration, byte tail.
// memcpy keeps it strict-aliasing clean and compiles to plain
// loads/stores.
// ---------------------------------------------------------------------

void scalar_xor_into(void* dst, const void* src, std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  while (n >= 64) {
    std::uint64_t a[8], b[8];
    std::memcpy(a, d, 64);
    std::memcpy(b, s, 64);
    for (int i = 0; i < 8; ++i) a[i] ^= b[i];
    std::memcpy(d, a, 64);
    d += 64;
    s += 64;
    n -= 64;
  }
  while (n >= 8) {
    std::uint64_t a, b;
    std::memcpy(&a, d, 8);
    std::memcpy(&b, s, 8);
    a ^= b;
    std::memcpy(d, &a, 8);
    d += 8;
    s += 8;
    n -= 8;
  }
  for (; n > 0; --n) *d++ ^= *s++;
}

void scalar_xor_to(void* dst, const void* a, const void* b, std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* x = static_cast<const std::uint8_t*>(a);
  const auto* y = static_cast<const std::uint8_t*>(b);
  while (n >= 8) {
    std::uint64_t u, v;
    std::memcpy(&u, x, 8);
    std::memcpy(&v, y, 8);
    u ^= v;
    std::memcpy(d, &u, 8);
    d += 8;
    x += 8;
    y += 8;
    n -= 8;
  }
  for (; n > 0; --n) *d++ = static_cast<std::uint8_t>(*x++ ^ *y++);
}

void scalar_xor_delta(void* dst, const void* a, const void* b,
                      std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* x = static_cast<const std::uint8_t*>(a);
  const auto* y = static_cast<const std::uint8_t*>(b);
  while (n >= 8) {
    std::uint64_t t, u, v;
    std::memcpy(&t, d, 8);
    std::memcpy(&u, x, 8);
    std::memcpy(&v, y, 8);
    t ^= u ^ v;
    std::memcpy(d, &t, 8);
    d += 8;
    x += 8;
    y += 8;
    n -= 8;
  }
  for (; n > 0; --n) *d++ ^= static_cast<std::uint8_t>(*x++ ^ *y++);
}

void scalar_xor_accumulate(void* dst, const void* const* srcs,
                           std::size_t nsrcs, std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  if (nsrcs == 0) {
    std::memset(d, 0, n);
    return;
  }
  // All sources are folded per position before dst is written, so dst
  // may alias any source exactly. 32-byte strips keep the source
  // pointers hot without spilling the accumulator.
  std::size_t off = 0;
  for (; off + 32 <= n; off += 32) {
    std::uint64_t acc[4];
    std::memcpy(acc, static_cast<const std::uint8_t*>(srcs[0]) + off, 32);
    for (std::size_t s = 1; s < nsrcs; ++s) {
      std::uint64_t v[4];
      std::memcpy(v, static_cast<const std::uint8_t*>(srcs[s]) + off, 32);
      for (int i = 0; i < 4; ++i) acc[i] ^= v[i];
    }
    std::memcpy(d + off, acc, 32);
  }
  for (; off + 8 <= n; off += 8) {
    std::uint64_t acc;
    std::memcpy(&acc, static_cast<const std::uint8_t*>(srcs[0]) + off, 8);
    for (std::size_t s = 1; s < nsrcs; ++s) {
      std::uint64_t v;
      std::memcpy(&v, static_cast<const std::uint8_t*>(srcs[s]) + off, 8);
      acc ^= v;
    }
    std::memcpy(d + off, &acc, 8);
  }
  for (; off < n; ++off) {
    std::uint8_t acc = static_cast<const std::uint8_t*>(srcs[0])[off];
    for (std::size_t s = 1; s < nsrcs; ++s) {
      acc ^= static_cast<const std::uint8_t*>(srcs[s])[off];
    }
    d[off] = acc;
  }
}

bool scalar_all_zero(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  std::uint64_t acc = 0;
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, b, 8);
    acc |= v;
    b += 8;
    n -= 8;
  }
  for (; n > 0; --n) acc |= *b++;
  return acc == 0;
}

constexpr XorKernel kScalarKernel{
    XorIsa::kScalar,       "scalar",           &scalar_xor_into,
    &scalar_xor_to,        &scalar_xor_delta,  &scalar_xor_accumulate,
    &scalar_all_zero,
};

// ---------------------------------------------------------------------
// Registry: probe once, then serve immutable tables. The function-local
// static makes initialization thread-safe (and therefore TSan-clean)
// even when the first XOR happens on a worker thread.
// ---------------------------------------------------------------------

struct Registry {
  XorKernel kernels[4];
  std::size_t count = 0;
  const XorKernel* active = nullptr;
};

bool cpu_runs([[maybe_unused]] XorIsa isa) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (isa == XorIsa::kAvx2) return __builtin_cpu_supports("avx2");
  if (isa == XorIsa::kAvx512) return __builtin_cpu_supports("avx512f");
#endif
  return true;  // scalar and the baseline 16-byte ISAs
}

Registry build_registry() {
  Registry r;
  r.kernels[r.count++] = kScalarKernel;
  for (const XorKernel& k : built_vector_kernels()) {
    if (cpu_runs(k.isa)) r.kernels[r.count++] = k;
  }

  // Default pick: the last (widest) entry; built_vector_kernels() lists
  // narrowest first, so avx512 > avx2 > sse2 > scalar.
  r.active = &r.kernels[r.count - 1];

  if (const char* want = std::getenv("C56_XOR_KERNEL")) {
    bool found = false;
    for (std::size_t i = 0; i < r.count; ++i) {
      if (std::strcmp(r.kernels[i].name, want) == 0) {
        r.active = &r.kernels[i];
        found = true;
        break;
      }
    }
    if (!found) {
      // An unknown name used to be silently ignored, making a typo
      // indistinguishable from a real kernel selection.
      std::string avail;
      for (std::size_t i = 0; i < r.count; ++i) {
        if (i) avail += ", ";
        avail += r.kernels[i].name;
      }
      util::warn_env_once("C56_XOR_KERNEL",
                          std::string("unknown kernel '") + want +
                              "', keeping default '" + r.active->name +
                              "' (available: " + avail + ")");
    }
  }
  return r;
}

const Registry& registry() {
  static const Registry r = build_registry();
  return r;
}

}  // namespace

const XorKernel& scalar_kernel() noexcept { return registry().kernels[0]; }

std::span<const XorKernel> available_kernels() noexcept {
  const Registry& r = registry();
  return {r.kernels, r.count};
}

const XorKernel& active_kernel() noexcept { return *registry().active; }

}  // namespace c56
