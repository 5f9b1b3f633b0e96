#pragma once
// Owning byte buffer aligned for the XOR kernels. A stripe of an array
// code is stored as rows*cols consecutive blocks inside one Buffer.
//
// A buffer of at least 2 MiB (a disk of the in-memory arrays) comes from
// its own 2 MiB-aligned anonymous mapping whose whole 2 MiB spans are
// advised as transparent huge pages, so filling or reading it faults a
// few huge pages instead of one 4 KiB page at a time. Smaller buffers,
// and every buffer where the platform has no MADV_HUGEPAGE, come from
// operator new.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace c56 {

namespace detail {
// Frees a Buffer's bytes: delete[] for heap storage, munmap of the
// whole mapping (map, map_len) for a huge-page buffer.
struct BufferRelease {
  void* map = nullptr;
  std::size_t map_len = 0;
  void operator()(std::uint8_t* p) const noexcept;
};
}  // namespace detail

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size, std::uint8_t fill = 0);

  Buffer(const Buffer& other);
  Buffer& operator=(const Buffer& other);
  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;

  std::size_t size() const noexcept { return size_; }
  std::uint8_t* data() noexcept { return bytes_.get(); }
  const std::uint8_t* data() const noexcept { return bytes_.get(); }

  std::span<std::uint8_t> span() noexcept { return {data(), size_}; }
  std::span<const std::uint8_t> span() const noexcept {
    return {data(), size_};
  }

  /// Block #i of a buffer partitioned into blocks of block_size bytes.
  std::span<std::uint8_t> block(std::size_t i, std::size_t block_size) noexcept {
    return span().subspan(i * block_size, block_size);
  }
  std::span<const std::uint8_t> block(std::size_t i,
                                      std::size_t block_size) const noexcept {
    return span().subspan(i * block_size, block_size);
  }

  void zero() noexcept;

  friend bool operator==(const Buffer& a, const Buffer& b) noexcept;

 private:
  using Storage = std::unique_ptr<std::uint8_t[], detail::BufferRelease>;
  static Storage allocate(std::size_t size);

  Storage bytes_;
  std::size_t size_ = 0;
};

}  // namespace c56
