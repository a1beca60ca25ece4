#include "cache/cache_array.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::cache
{

std::uint32_t
CacheGeometry::numSets() const
{
    return static_cast<std::uint32_t>(
        sizeBytes / (static_cast<std::uint64_t>(assoc) * lineBytes));
}

unsigned
CacheGeometry::speculativeBits() const
{
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(numSets()) * lineBytes;
    if (way_bytes <= pageSize)
        return 0;
    return floorLog2(way_bytes) - pageShift;
}

CacheArray::CacheArray(const CacheGeometry &geometry)
    : geometry_(geometry), numSets_(geometry.numSets()),
      assoc_(geometry.assoc),
      lineShift_(floorLog2(geometry.lineBytes)),
      tags_(static_cast<std::size_t>(numSets_) * geometry.assoc,
            invalidTag),
      lastUse_(static_cast<std::size_t>(numSets_) * geometry.assoc,
               0),
      validMask_(numSets_, 0), dirtyMask_(numSets_, 0),
      mru_(numSets_, 0)
{
    if (geometry.sizeBytes == 0 || geometry.assoc == 0 ||
        geometry.lineBytes == 0) {
        fatal("CacheArray: zero geometry parameter");
    }
    if (!isPowerOfTwo(numSets_))
        fatal("CacheArray: number of sets must be a power of two");
    if (!isPowerOfTwo(geometry.lineBytes))
        fatal("CacheArray: line size must be a power of two");
    if (geometry.lineBytes != lineSize)
        warn("CacheArray: line size ", geometry.lineBytes,
             " differs from the system line size");
    if (assoc_ > 32)
        fatal("CacheArray: associativity > 32 unsupported");
}

int
CacheArray::lookup(std::uint32_t set, Addr paddr)
{
    const int way = probe(set, paddr);
    if (way >= 0)
        touchLine(set, static_cast<std::uint32_t>(way));
    return way;
}

void
CacheArray::setDirty(std::uint32_t set, std::uint32_t way)
{
    SIPT_ASSERT(set < numSets_ && way < assoc_, "index range");
    SIPT_ASSERT((validMask_[set] >> way) & 1u,
                "setDirty on invalid line");
    dirtyMask_[set] |= std::uint32_t{1} << way;
}

bool
CacheArray::dirtyAt(std::uint32_t set, std::uint32_t way) const
{
    SIPT_ASSERT(set < numSets_ && way < assoc_, "index range");
    SIPT_ASSERT((validMask_[set] >> way) & 1u,
                "dirtyAt on invalid line");
    return ((dirtyMask_[set] >> way) & 1u) != 0;
}

std::optional<Eviction>
CacheArray::insert(std::uint32_t set, Addr paddr, bool dirty)
{
    SIPT_ASSERT(set < numSets_, "set out of range");
    SIPT_DEBUG_ASSERT(probe(set, paddr) < 0,
                      "insert of resident line");

    const std::uint32_t victim = selectVictim(set);
    const std::size_t idx = slot(set, victim);
    const std::uint32_t bit = std::uint32_t{1} << victim;
    std::optional<Eviction> evicted;
    if (validMask_[set] & bit) {
        evicted = Eviction{blockBase(tags_[idx], lineShift_),
                           (dirtyMask_[set] & bit) != 0};
    }
    validMask_[set] |= bit;
    if (dirty)
        dirtyMask_[set] |= bit;
    else
        dirtyMask_[set] &= ~bit;
    tags_[idx] = blockNumber(paddr, lineShift_);
    touchLine(set, victim);
    return evicted;
}

bool
CacheArray::invalidate(std::uint32_t set, Addr paddr)
{
    const int way = probe(set, paddr);
    if (way < 0)
        return false;
    tags_[slot(set, static_cast<std::uint32_t>(way))] = invalidTag;
    validMask_[set] &=
        ~(std::uint32_t{1} << static_cast<std::uint32_t>(way));
    return true;
}

std::uint32_t
CacheArray::mruWay(std::uint32_t set) const
{
    SIPT_ASSERT(set < numSets_, "set out of range");
    return mru_[set];
}

std::uint64_t
CacheArray::validLines() const
{
    std::uint64_t n = 0;
    for (const std::uint32_t mask : validMask_)
        n += std::popcount(mask);
    return n;
}

std::uint32_t
CacheArray::selectVictim(std::uint32_t set) const
{
    // Lowest invalid way first.
    const std::uint32_t invalid = ~validMask_[set] & fullMask();
    if (invalid)
        return static_cast<std::uint32_t>(
            std::countr_zero(invalid));

    const std::uint64_t *use = &lastUse_[slot(set, 0)];
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < assoc_; ++w) {
        if (use[w] < use[victim])
            victim = w;
    }
    return victim;
}

} // namespace sipt::cache
