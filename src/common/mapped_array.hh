/**
 * @file
 * A growable array of zero-initialised plain values in its own
 * anonymous memory mapping, for large per-job tables (buddy slots,
 * the page table): growth remaps instead of copying, and the pages
 * go back to the OS on destruction. From malloc, once glibc's
 * dynamic mmap threshold has risen past their size, such tables
 * and their growth copies stay resident in the per-thread arenas.
 * A dense array (MappedArray::dense), one its owner writes whole,
 * sits on 2 MiB host pages where the host grants them.
 */

#ifndef SIPT_COMMON_MAPPED_ARRAY_HH
#define SIPT_COMMON_MAPPED_ARRAY_HH

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
    /** Host huge-page size: the alignment of a dense array's
     *  mapping. */
    static constexpr std::size_t hugePageBytes = std::size_t{2} << 20;

    MappedArray() = default;
    explicit MappedArray(std::size_t n) { resize(n); }
    ~MappedArray() { if (data_) ::munmap(data_, mappedBytes()); }

    /**
     * An array of @p n elements that its owner writes whole. Once
     * it spans a huge page or more, its mapping starts on a
     * huge-page boundary and is advised onto transparent huge
     * pages: writing it whole then costs one host fault per 2 MiB
     * instead of one per 4 KiB. A tail short of a whole huge page
     * stays on base pages. Sparse arrays must not be dense: a huge
     * page is resident as a whole once touched.
     */
    static MappedArray
    dense(std::size_t n)
    {
        MappedArray a;
        a.dense_ = true;
        a.resize(n);
        return a;
    }

    MappedArray(MappedArray &&o) noexcept { *this = std::move(o); }
    MappedArray &
    operator=(MappedArray &&o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        std::swap(capacity_, o.capacity_);
        std::swap(dense_, o.dense_);
        return *this;
    }

    T *data() { return data_; }
    const T *data() const { return data_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
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
            const bool huge = dense_ && cap * sizeof(T) >= hugePageBytes;
            void *p;
            if (data_ != nullptr && remapGrowth && !huge) {
                p = ::mremap(data_, mappedBytes(), cap * sizeof(T),
                             MREMAP_MAYMOVE);
            } else {
                // mremap would not keep a huge mapping aligned.
                p = map(cap * sizeof(T), huge);
                if (p != MAP_FAILED && data_ != nullptr) {
                    std::memcpy(p, data_, size_ * sizeof(T));
                    ::munmap(data_, mappedBytes());
                }
            }
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            data_ = static_cast<T *>(p);
            capacity_ = cap;
        }
        size_ = n;
    }

  private:
    /** Whether growth may remap in place. TSan intercepts mmap and
     *  munmap but not mremap: a remapped range keeps the shadow
     *  state of whatever another thread last mapped there, which it
     *  reports as races between jobs that share no memory. Under
     *  TSan every array grows by map + copy + unmap, which it does
     *  model. */
#ifdef SIPT_TSAN
    static constexpr bool remapGrowth = false;
#else
    static constexpr bool remapGrowth = true;
#endif

    std::size_t mappedBytes() const { return capacity_ * sizeof(T); }

    /** Map @p bytes of zero pages; a @p huge mapping starts on a
     *  huge-page boundary and is advised onto huge pages. */
    static void *
    map(std::size_t bytes, bool huge)
    {
        constexpr int prot = PROT_READ | PROT_WRITE;
        constexpr int flags = MAP_PRIVATE | MAP_ANONYMOUS;
        if (!huge)
            return ::mmap(nullptr, bytes, prot, flags, -1, 0);
        // Over-map by one huge page and trim both ends: newer
        // kernels align large anonymous mappings on their own,
        // older ones do not.
        static const auto pageBytes =
            static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        const std::size_t len = (bytes + pageBytes - 1) & -pageBytes;
        void *p = ::mmap(nullptr, len + hugePageBytes, prot, flags, -1,
                         0);
        if (p == MAP_FAILED)
            return p;
        char *const raw = static_cast<char *>(p);
        const std::size_t head =
            -reinterpret_cast<std::uintptr_t>(raw) & (hugePageBytes - 1);
        if (head != 0)
            ::munmap(raw, head);
        ::munmap(raw + head + len, hugePageBytes - head);
        // A host without transparent huge pages refuses the advice
        // and keeps 4 KiB pages: nothing to handle.
        ::madvise(raw + head, bytes, MADV_HUGEPAGE);
        return raw + head;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
    bool dense_ = false;
};

} // namespace sipt

#endif // SIPT_COMMON_MAPPED_ARRAY_HH
