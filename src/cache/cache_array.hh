/**
 * @file
 * A set-associative cache tag/data array with true-LRU replacement.
 *
 * The array is indexed explicitly by set number so that the SIPT L1
 * controller can probe it with a *speculative* index while lines are
 * always stored under their physical index. Tags store the full line
 * address, which is what lets SIPT keep synonyms cached safely: a
 * lookup can never false-hit, no matter which set was probed.
 */

#ifndef SIPT_CACHE_CACHE_ARRAY_HH
#define SIPT_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/prefetch.hh"
#include "common/types.hh"

namespace sipt::cache
{

/** Geometry of a cache array. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;

    /** Number of sets implied by the geometry. */
    std::uint32_t numSets() const;
    /**
     * Number of set-index bits that lie above the 4 KiB page offset
     * (the bits SIPT must speculate on). 0 means VIPT-feasible.
     */
    unsigned speculativeBits() const;

    bool operator==(const CacheGeometry &) const = default;
};

/** A line evicted by an insertion. */
struct Eviction
{
    Addr lineAddr = 0;
    bool dirty = false;
};

/**
 * The tag array proper. All addresses are *line* addresses
 * (byte address >> lineShift) in the physical address space.
 */
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geometry);

    /** The set a physical byte address maps to. */
    std::uint32_t
    setOf(Addr paddr) const
    {
        return static_cast<std::uint32_t>(
                   blockNumber(paddr, lineShift_)) &
               (numSets_ - 1);
    }

    /**
     * Probe @p set for the line containing @p paddr without
     * updating replacement state. Defined inline below: probing is
     * the innermost operation of every simulated access.
     * @return the way on a hit, -1 on a miss
     */
    int probe(std::uint32_t set, Addr paddr) const;

    /**
     * Look up @p paddr in @p set, updating replacement state on a
     * hit.
     * @return the way on a hit, -1 on a miss
     */
    int lookup(std::uint32_t set, Addr paddr);

    /**
     * Update replacement state for a line already located by
     * probe(). Equivalent to the touch a lookup() hit performs,
     * without rescanning the set — the L1's access path probes
     * once and touches by way.
     */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        touchLine(set, way);
    }

    /**
     * Host-prefetch the tag storage of @p set. The access pipeline
     * issues this a few references ahead of the probe/insert that
     * will scan the set; it has no effect on simulated state.
     */
    void
    prefetchSet(std::uint32_t set) const
    {
        const std::size_t base =
            static_cast<std::size_t>(set) * assoc_;
        prefetchWriteRange(&tags_[base], sizeof(Addr) * assoc_);
        prefetchWriteRange(&lastUse_[base],
                           sizeof(std::uint64_t) * assoc_);
    }

    /** Mark the line at (@p set, @p way) dirty. */
    void setDirty(std::uint32_t set, std::uint32_t way);

    /** Dirty bit of the line at (@p set, @p way). */
    bool dirtyAt(std::uint32_t set, std::uint32_t way) const;

    /**
     * Insert the line containing @p paddr into @p set.
     * @return the eviction forced by the fill, if any
     */
    std::optional<Eviction> insert(std::uint32_t set, Addr paddr,
                                   bool dirty);

    /** Invalidate the line containing @p paddr if present in
     *  @p set. @return true when a line was invalidated. */
    bool invalidate(std::uint32_t set, Addr paddr);

    /** The MRU way of @p set (for way prediction); 0 if empty. */
    std::uint32_t mruWay(std::uint32_t set) const;

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }
    unsigned lineShift() const { return lineShift_; }
    const CacheGeometry &geometry() const { return geometry_; }

    /** Count of currently valid lines (test/inspection aid). */
    std::uint64_t validLines() const;

  private:
    /**
     * Tag slot value of an invalid way. Physical line addresses are
     * bounded by physical memory, so no real line can collide with
     * it — which lets probe() scan the dense tag array with a
     * single compare per way, no validity test.
     */
    static constexpr Addr invalidTag = ~Addr{0};

    /** Bitmask with one bit per way of this array. */
    std::uint32_t
    fullMask() const
    {
        return assoc_ == 32 ? ~std::uint32_t{0}
                            : (std::uint32_t{1} << assoc_) - 1;
    }

    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * assoc_ + way;
    }

    /** Choose a victim way in @p set: the lowest invalid way, else
     *  the least recently used one. */
    std::uint32_t selectVictim(std::uint32_t set) const;

    /** Update replacement metadata after touching (set, way). */
    void touchLine(std::uint32_t set, std::uint32_t way);

    CacheGeometry geometry_;
    std::uint32_t numSets_;
    std::uint32_t assoc_;
    unsigned lineShift_;
    std::uint64_t useClock_ = 0;
    /**
     * Struct-of-arrays line state. Tags are the probe-critical
     * stream: a 16-way set is two host cache lines of tags instead
     * of six lines of padded line records. Valid and dirty bits
     * live in per-set bitmasks (assoc <= 32), which also makes
     * victim selection a count-trailing-zeros instead of a scan.
     */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint32_t> validMask_;
    std::vector<std::uint32_t> dirtyMask_;
    /** MRU way per set, maintained for way prediction. */
    std::vector<std::uint32_t> mru_;
};

inline int
CacheArray::probe(std::uint32_t set, Addr paddr) const
{
    SIPT_ASSERT(set < numSets_, "set out of range");
    const Addr want = blockNumber(paddr, lineShift_);
    const Addr *base = &tags_[slot(set, 0)];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w] == want)
            return static_cast<int>(w);
    }
    return -1;
}

inline void
CacheArray::touchLine(std::uint32_t set, std::uint32_t way)
{
    lastUse_[slot(set, way)] = ++useClock_;
    mru_[set] = way;
}

} // namespace sipt::cache

#endif // SIPT_CACHE_CACHE_ARRAY_HH
