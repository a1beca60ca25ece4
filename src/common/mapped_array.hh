/**
 * @file
 * A growable array of zero-initialised plain values in its own
 * anonymous memory mapping, for large per-job tables (buddy slots,
 * the page table): growth remaps instead of copying, and the pages
 * go back to the OS on destruction. From malloc, once glibc's
 * dynamic mmap threshold has risen past their size, such tables
 * and their growth copies stay resident in the per-thread arenas.
 */

#ifndef SIPT_COMMON_MAPPED_ARRAY_HH
#define SIPT_COMMON_MAPPED_ARRAY_HH

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_THREAD__)
#define SIPT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIPT_TSAN 1
#endif
#endif

namespace sipt
{

template <typename T>
class MappedArray
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    MappedArray() = default;
    explicit MappedArray(std::size_t n) { resize(n); }
    ~MappedArray() { if (data_) ::munmap(data_, capacity_ * sizeof(T)); }

    MappedArray(MappedArray &&o) noexcept { *this = std::move(o); }
    MappedArray &
    operator=(MappedArray &&o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        std::swap(capacity_, o.capacity_);
        return *this;
    }

    T *data() { return data_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Grow to @p n (>= size()) elements, the new ones zero. The
     *  mapping at least doubles whenever it grows. Throws
     *  std::bad_alloc when the kernel refuses. */
    void
    resize(std::size_t n)
    {
        if (n > capacity_) {
            // Bytes past size_ were never written: still zero.
            const std::size_t cap = std::max(n, 2 * capacity_);
#ifdef SIPT_TSAN
            // TSan intercepts mmap and munmap but not mremap: a
            // remapped range keeps the shadow state of whatever
            // another thread last mapped there, which it reports as
            // races between jobs that share no memory. Grow by
            // map + copy + unmap instead, which it does model.
            void *p = ::mmap(nullptr, cap * sizeof(T),
                             PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p != MAP_FAILED && data_ != nullptr) {
                std::memcpy(p, data_, size_ * sizeof(T));
                ::munmap(data_, capacity_ * sizeof(T));
            }
#else
            void *p = data_ == nullptr
                          ? ::mmap(nullptr, cap * sizeof(T),
                                   PROT_READ | PROT_WRITE,
                                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                          : ::mremap(data_, capacity_ * sizeof(T),
                                     cap * sizeof(T), MREMAP_MAYMOVE);
#endif
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            data_ = static_cast<T *>(p);
            capacity_ = cap;
        }
        size_ = n;
    }

  private:
    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace sipt

#endif // SIPT_COMMON_MAPPED_ARRAY_HH
