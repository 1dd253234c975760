#ifndef SPER_CORE_PAGE_RESOURCE_H_
#define SPER_CORE_PAGE_RESOURCE_H_

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <memory_resource>
#include <new>
#include <type_traits>
#include <utility>

/// \file page_resource.h
/// A memory resource for buffers reserved far beyond what they will hold,
/// such as a parallel pass's per-chunk buffers sized from upper bounds.
/// Each allocation is an anonymous memory mapping of its own, unmapped
/// again on deallocation. The pages of a fresh mapping cost memory only
/// once written, so the unused part of a reservation is address space
/// only. The same reservation carved out of the malloc heap would instead
/// hold free heap memory that later allocations could have reused, and
/// they would grow the heap.

namespace sper {

/// Memory resource over anonymous mappings. Every allocation rounds up to
/// whole pages and costs a system call: use it for large buffers.
class PageResource final : public std::pmr::memory_resource {
 private:
  void* do_allocate(std::size_t bytes, std::size_t /*alignment*/) override {
    // Mappings are page-aligned, which satisfies every fundamental
    // alignment.
    void* pages = mmap(nullptr, std::max<std::size_t>(bytes, 1),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    return pages;
  }

  void do_deallocate(void* p, std::size_t bytes,
                     std::size_t /*alignment*/) override {
    munmap(p, std::max<std::size_t>(bytes, 1));
  }

  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }
};

/// The process-wide PageResource.
inline std::pmr::memory_resource* Pages() {
  static PageResource resource;
  return &resource;
}

/// `n` elements of a trivial type in a mapping of their own, never written
/// here: every element reads as all-zero bits (0, +0.0) until written, and
/// only the pages written cost memory. Scratch that must start zeroed
/// saves the zero-fill a vector's resize would write on the allocating
/// thread.
template <typename T>
class ZeroedPages {
  static_assert(std::is_trivial_v<T>);

 public:
  ZeroedPages() = default;
  explicit ZeroedPages(std::size_t n)
      : data_(n == 0 ? nullptr
                     : static_cast<T*>(
                           Pages()->allocate(n * sizeof(T), alignof(T)))),
        size_(n) {}
  ZeroedPages(ZeroedPages&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroedPages& operator=(ZeroedPages&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~ZeroedPages() {
    if (data_ != nullptr) {
      Pages()->deallocate(data_, size_ * sizeof(T), alignof(T));
    }
  }

  T* data() const { return data_; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t k) const { return data_[k]; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace sper

#endif  // SPER_CORE_PAGE_RESOURCE_H_
