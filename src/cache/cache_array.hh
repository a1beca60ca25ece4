/**
 * @file
 * A set-associative cache tag/data array with true-LRU replacement.
 *
 * Replacement state is one 16-byte record per set: the ways'
 * recency order packed one nibble per position in a 64-bit word,
 * plus the valid and dirty bitmasks. Touching a way is a handful of
 * ALU operations and choosing a victim reads one nibble, with no
 * per-line stamps to store or scan; the packing caps associativity
 * at 16 ways.
 *
 * The array is indexed explicitly by set number so that the SIPT L1
 * controller can probe it with a *speculative* index while lines are
 * always stored under their physical index. Tags store the full line
 * address, which is what lets SIPT keep synonyms cached safely: a
 * lookup can never false-hit, no matter which set was probed.
 */

#ifndef SIPT_CACHE_CACHE_ARRAY_HH
#define SIPT_CACHE_CACHE_ARRAY_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
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
     * probe(): make @p way the set's MRU way. Equivalent to the
     * touch a lookup() hit performs, without rescanning the set —
     * the L1's access path probes once and touches by way.
     */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint64_t &order = sets_[set].order;
        if ((order & 0xf) == way)
            return;
        // The way's nibble is the only zero nibble of x, and the
        // lowest one flagged (a borrow only flags above it).
        constexpr std::uint64_t ones = 0x1111111111111111;
        const std::uint64_t x = order ^ (ones * way);
        const unsigned shift = static_cast<unsigned>(
            std::countr_zero((x - ones) & ~x & (ones << 3)) - 3);
        // The positions below it each age by one; the way is MRU.
        const std::uint64_t low = (std::uint64_t{1} << shift) - 1;
        order = (order & ~((low << 4) | 0xf)) |
                ((order & low) << 4) | way;
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

    /**
     * The MRU way of @p set (for way prediction): the way touched
     * last, even if since invalidated; 0 if none was ever touched.
     */
    std::uint32_t
    mruWay(std::uint32_t set) const
    {
        SIPT_ASSERT(set < numSets_, "set out of range");
        return static_cast<std::uint32_t>(sets_[set].order & 0xf);
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }
    unsigned lineShift() const { return lineShift_; }
    const CacheGeometry &geometry() const { return geometry_; }

    /** Count of currently valid lines (test/inspection aid). */
    std::uint64_t validLines() const;

    /** Most ways a set can have: one recency nibble per way. */
    static constexpr std::uint32_t maxAssoc = 16;

  private:
    /**
     * Replacement and status state of one set. `order` lists the
     * ways from most to least recently used, one nibble each, the
     * MRU way in the low nibble; it starts as the identity order
     * 0xfedcba9876543210. Ways never touched keep their initial
     * positions, so with fewer than 16 ways the nibbles at and
     * above position assoc are constant and the LRU way is always
     * the nibble at position assoc - 1. `valid` and `dirty` hold
     * one bit per way.
     */
    struct SetState
    {
        std::uint64_t order = 0xfedcba9876543210;
        std::uint32_t valid = 0;
        std::uint32_t dirty = 0;
    };
    static_assert(sizeof(SetState) == 16,
                  "a set's replacement record is 16 bytes");

    /**
     * Tag slot value of an invalid way. Physical line addresses are
     * bounded by physical memory, so no real line can collide with
     * it — which lets probe() scan the dense tag array with a
     * single compare per way, no validity test.
     */
    static constexpr Addr invalidTag = ~Addr{0};

    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * assoc_ + way;
    }

    /** Choose a victim way in @p set: the lowest invalid way, else
     *  the least recently used one. */
    std::uint32_t selectVictim(std::uint32_t set) const;

    CacheGeometry geometry_;
    std::uint32_t numSets_;
    std::uint32_t assoc_;
    unsigned lineShift_;
    /**
     * Tags are the probe-critical stream, dense per set: a 16-way
     * set is two host cache lines of tags. Everything else about a
     * set lives in its SetState, a quarter of a host line.
     */
    std::vector<Addr> tags_;
    std::vector<SetState> sets_;
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

} // namespace sipt::cache

#endif // SIPT_CACHE_CACHE_ARRAY_HH
