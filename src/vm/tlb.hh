/**
 * @file
 * A set-associative translation lookaside buffer with true-LRU
 * replacement. One Tlb instance caches translations for a single
 * page granularity; the unified L2 stores both granularities by
 * tagging entries with the page size.
 *
 * Recency is a 64-bit stamp per entry, unlike the cache arrays'
 * packed per-set order word: a TLB hit, by far its commonest
 * operation, then costs one store, and its small sets make the
 * victim scan cheap. The packed word measured no faster here.
 */

#ifndef SIPT_VM_TLB_HH
#define SIPT_VM_TLB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sipt::vm
{

/** Configuration of one TLB array. */
struct TlbParams
{
    /** Total number of entries. */
    std::uint32_t entries = 64;
    /** Associativity; entries must be a multiple of this. */
    std::uint32_t assoc = 4;
};

/**
 * Set-associative LRU TLB keyed by (vpn, size-class).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * Probe for @p vpn of the given size class.
     * @return true on hit (and update LRU state)
     *
     * Defined inline below: lookup/insert are on the per-reference
     * critical path, and the pipeline's resolve stage inlines them
     * into its loop.
     */
    bool lookup(Vpn vpn, bool huge_page = false);

    /** Insert @p vpn, evicting the set's LRU entry if needed; a
     *  resident @p vpn is only made most recently used. */
    void insert(Vpn vpn, bool huge_page = false);

    /**
     * Insert @p vpn right after lookup() missed it: insert()
     * without its scan for a resident copy.
     * @pre @p vpn of this size class is not resident
     */
    void fill(Vpn vpn, bool huge_page = false);

    /** Invalidate everything (context switch / munmap). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Hit rate over all lookups so far (0 when idle). */
    double hitRate() const;

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

    /** Zero the counters (entries are kept: warmup). */
    void resetStats() { hits_ = misses_ = 0; }

  private:
    /**
     * Entries in struct-of-arrays form: the per-way probe scans a
     * dense array of 8-byte keys instead of padded entry records.
     * A key encodes (vpn << 1) | huge; virtual page numbers come
     * from sub-63-bit virtual addresses, so no real translation
     * can collide with the invalid sentinel.
     */
    static constexpr std::uint64_t invalidKey = ~std::uint64_t{0};

    static std::uint64_t
    keyOf(Vpn vpn, bool huge_page)
    {
        return (static_cast<std::uint64_t>(vpn) << 1) |
               (huge_page ? 1u : 0u);
    }

    /** Way index of (vpn, size-class) in its set, or -1. */
    int findSlot(Vpn vpn, bool huge_page) const;

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lastUse_;
};

inline int
Tlb::findSlot(Vpn vpn, bool huge_page) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(vpn) & (numSets_ - 1);
    const std::uint64_t want = keyOf(vpn, huge_page);
    const std::uint64_t *base =
        &keys_[static_cast<std::size_t>(set) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w] == want)
            return static_cast<int>(w);
    }
    return -1;
}

inline bool
Tlb::lookup(Vpn vpn, bool huge_page)
{
    const int way = findSlot(vpn, huge_page);
    if (way >= 0) {
        const std::uint32_t set =
            static_cast<std::uint32_t>(vpn) & (numSets_ - 1);
        lastUse_[static_cast<std::size_t>(set) * assoc_ +
                 static_cast<std::uint32_t>(way)] = ++useClock_;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

inline void
Tlb::insert(Vpn vpn, bool huge_page)
{
    const int hit = findSlot(vpn, huge_page);
    if (hit < 0) {
        fill(vpn, huge_page);
        return;
    }
    const std::uint32_t set =
        static_cast<std::uint32_t>(vpn) & (numSets_ - 1);
    lastUse_[static_cast<std::size_t>(set) * assoc_ +
             static_cast<std::uint32_t>(hit)] = ++useClock_;
}

inline void
Tlb::fill(Vpn vpn, bool huge_page)
{
    SIPT_DEBUG_ASSERT(findSlot(vpn, huge_page) < 0,
                      "Tlb::fill of a resident vpn ", vpn);
    const std::uint32_t set =
        static_cast<std::uint32_t>(vpn) & (numSets_ - 1);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    // First invalid way, else the least recently used one.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (keys_[base + w] == invalidKey) {
            victim = w;
            break;
        }
        if (lastUse_[base + w] < lastUse_[base + victim])
            victim = w;
    }
    keys_[base + victim] = keyOf(vpn, huge_page);
    lastUse_[base + victim] = ++useClock_;
}

} // namespace sipt::vm

#endif // SIPT_VM_TLB_HH
