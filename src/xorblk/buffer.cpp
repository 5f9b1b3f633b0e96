#include "xorblk/buffer.hpp"

#include <cstring>
#include <new>
#include <utility>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define C56_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define C56_ASAN 1
#endif
#endif
#ifdef C56_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace c56 {

#ifdef MADV_HUGEPAGE
namespace {
constexpr std::size_t kHugePage = std::size_t{2} << 20;
}  // namespace
#endif

Buffer::Storage Buffer::allocate(std::size_t size) {
#ifdef MADV_HUGEPAGE
  if (size >= kHugePage) {
    // One huge page of slack lets the bytes start 2 MiB-aligned. The
    // slack is never touched, so it costs address space, not memory.
    const std::size_t len = size + kHugePage;
    void* map = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(map);
    auto* bytes =
        reinterpret_cast<std::uint8_t*>((base + kHugePage - 1) & ~(kHugePage - 1));
    // Whole huge pages only: the tail short of 2 MiB stays on small
    // pages, so the resident size never rounds up.
    ::madvise(bytes, size / kHugePage * kHugePage, MADV_HUGEPAGE);
#ifdef C56_ASAN
    auto* end = static_cast<std::uint8_t*>(map) + len;
    ASAN_POISON_MEMORY_REGION(map, bytes - static_cast<std::uint8_t*>(map));
    ASAN_POISON_MEMORY_REGION(bytes + size, end - (bytes + size));
#endif
    return Storage(bytes, detail::BufferRelease{map, len});
  }
#endif
  return Storage(new std::uint8_t[size]);
}

void detail::BufferRelease::operator()(std::uint8_t* p) const noexcept {
  if (map == nullptr) {
    delete[] p;
    return;
  }
#ifdef MADV_HUGEPAGE
#ifdef C56_ASAN
  ASAN_UNPOISON_MEMORY_REGION(map, map_len);
#endif
  ::munmap(map, map_len);
#endif
}

Buffer::Buffer(std::size_t size, std::uint8_t fill)
    : bytes_(allocate(size)), size_(size) {
  // Also faults every page in: a disk is backed by memory from
  // creation, so a never-written block costs what a written one does.
  std::memset(bytes_.get(), fill, size);
}

Buffer::Buffer(const Buffer& other)
    : bytes_(other.size_ ? allocate(other.size_) : Storage()),
      size_(other.size_) {
  if (size_ > 0) std::memcpy(bytes_.get(), other.bytes_.get(), size_);
}

Buffer& Buffer::operator=(const Buffer& other) {
  if (this == &other) return *this;
  Buffer tmp(other);
  std::swap(bytes_, tmp.bytes_);
  std::swap(size_, tmp.size_);
  return *this;
}

Buffer::Buffer(Buffer&& other) noexcept
    : bytes_(std::move(other.bytes_)), size_(std::exchange(other.size_, 0)) {}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  bytes_ = std::move(other.bytes_);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

void Buffer::zero() noexcept {
  if (size_ > 0) std::memset(bytes_.get(), 0, size_);
}

bool operator==(const Buffer& a, const Buffer& b) noexcept {
  return a.size_ == b.size_ &&
         (a.size_ == 0 ||
          std::memcmp(a.bytes_.get(), b.bytes_.get(), a.size_) == 0);
}

}  // namespace c56
