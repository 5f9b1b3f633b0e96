#pragma once
// XOR kernels over byte blocks. Every parity computation in the library
// reduces to these five primitives. Blocks are arbitrary byte ranges;
// the entry points dispatch at process start to the widest vector width
// the running CPU supports (AVX-512 / AVX2 / SSE2 on x86-64, NEON on
// AArch64, see kernel.hpp). The 64-bit-lane scalar loop is the
// reference every vector variant is differentially tested against.

#include <cstddef>
#include <cstdint>
#include <span>

namespace c56 {

/// dst ^= src, element-wise over n bytes. Regions must not overlap.
void xor_into(void* dst, const void* src, std::size_t n) noexcept;

/// dst = a ^ b over n bytes. dst may alias a or b exactly (same pointer).
void xor_to(void* dst, const void* a, const void* b, std::size_t n) noexcept;

/// dst ^= a ^ b over n bytes in one pass — the incremental parity
/// update: parity ^= new_data ^ old_data without materializing the
/// delta. dst may alias a or b exactly (same pointer).
void xor_delta_into(void* dst, const void* a, const void* b,
                    std::size_t n) noexcept;

/// dst = srcs[0] ^ srcs[1] ^ ... ^ srcs[nsrcs-1] over n bytes, computed
/// in one cache-friendly pass (each source is streamed exactly once and
/// dst is written exactly once). nsrcs == 0 zeroes dst. dst may alias
/// any srcs[i] exactly; sources must not otherwise overlap dst.
void xor_accumulate(void* dst, const void* const* srcs, std::size_t nsrcs,
                    std::size_t n) noexcept;

/// True iff all n bytes are zero.
bool all_zero(const void* p, std::size_t n) noexcept;

/// span convenience wrappers (sizes must match; checked in debug builds).
void xor_into(std::span<std::uint8_t> dst,
              std::span<const std::uint8_t> src) noexcept;
void xor_to(std::span<std::uint8_t> dst, std::span<const std::uint8_t> a,
            std::span<const std::uint8_t> b) noexcept;
void xor_delta_into(std::span<std::uint8_t> dst, std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) noexcept;
void xor_accumulate(std::span<std::uint8_t> dst,
                    std::span<const std::uint8_t* const> srcs) noexcept;
bool all_zero(std::span<const std::uint8_t> s) noexcept;

}  // namespace c56
