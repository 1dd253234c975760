#ifndef SPER_CORE_PAGE_RESOURCE_H_
#define SPER_CORE_PAGE_RESOURCE_H_

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <memory_resource>
#include <new>

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

}  // namespace sper

#endif  // SPER_CORE_PAGE_RESOURCE_H_
