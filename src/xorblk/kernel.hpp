#pragma once
// Kernel registry behind the xor.hpp entry points. Each XorKernel is a
// complete implementation of the five block primitives for one ISA. The
// scalar kernel lives in kernel.cpp; every vector kernel is one body in
// GCC/Clang vector extensions (kernel_vec.cpp) instantiated per width:
// 16 bytes for the default target (sse2 on x86-64, neon on AArch64),
// 32 and 64 bytes under target("avx2") / target("avx512f") on x86-64.
// The registry is built once at first use. Dispatch rules, in order:
//
//   1. C56_DISABLE_SIMD build flag        -> scalar only, nothing else
//      exists in the binary.
//   2. C56_XOR_KERNEL=<name> environment  -> that variant, if present
//      and runnable; unknown or unsupported names fall back to rule 3
//      with a one-time warning.
//   3. Widest runnable variant (avx512 > avx2 > sse2; neon on AArch64),
//      where __builtin_cpu_supports decides what the CPU can run.
//
// The scalar kernel is always present and is the differential-testing
// reference for every vector variant (tests/xor_kernel_test.cpp).

#include <cstddef>
#include <cstdint>
#include <span>

namespace c56 {

// Values are stable (parameterized test names print them): new ISAs
// append.
enum class XorIsa : std::uint8_t { kScalar, kAvx2, kAvx512, kNeon, kSse2 };

const char* to_string(XorIsa isa) noexcept;

struct XorKernel {
  XorIsa isa = XorIsa::kScalar;
  const char* name = "scalar";
  void (*xor_into)(void* dst, const void* src, std::size_t n) = nullptr;
  void (*xor_to)(void* dst, const void* a, const void* b,
                 std::size_t n) = nullptr;
  // dst ^= a ^ b in one pass — the incremental parity-update primitive
  // (parity ^= new_data ^ old_data without materializing the delta).
  void (*xor_delta)(void* dst, const void* a, const void* b,
                    std::size_t n) = nullptr;
  void (*xor_accumulate)(void* dst, const void* const* srcs,
                         std::size_t nsrcs, std::size_t n) = nullptr;
  bool (*all_zero)(const void* p, std::size_t n) = nullptr;
};

/// The 64-bit-lane reference kernel (always present).
const XorKernel& scalar_kernel() noexcept;

/// Every kernel compiled into this binary that the running CPU can
/// execute, scalar first. The differential tests and the throughput
/// bench iterate this.
std::span<const XorKernel> available_kernels() noexcept;

/// The kernel the xor.hpp entry points dispatch to (rules above).
const XorKernel& active_kernel() noexcept;

/// Every vector kernel compiled into this binary, narrowest first, whether
/// or not the CPU can run it (internal; the registry filters and wires
/// them up). Empty under C56_DISABLE_SIMD.
std::span<const XorKernel> built_vector_kernels() noexcept;

}  // namespace c56
