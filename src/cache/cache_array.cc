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

namespace
{

/**
 * @p geometry, once checked to be one a CacheArray can hold. Runs
 * first in the constructor's initializer list: nothing may divide
 * by or size storage from a geometry before it is checked.
 */
const CacheGeometry &
validated(const CacheGeometry &geometry)
{
    if (geometry.sizeBytes == 0 || geometry.assoc == 0 ||
        geometry.lineBytes == 0) {
        fatal("CacheArray: zero geometry parameter");
    }
    if (geometry.assoc > CacheArray::maxAssoc) {
        fatal("CacheArray: associativity ", geometry.assoc, " > ",
              CacheArray::maxAssoc, " unsupported");
    }
    if (!isPowerOfTwo(geometry.numSets()))
        fatal("CacheArray: number of sets must be a power of two");
    if (!isPowerOfTwo(geometry.lineBytes))
        fatal("CacheArray: line size must be a power of two");
    if (geometry.lineBytes != lineSize)
        warn("CacheArray: line size ", geometry.lineBytes,
             " differs from the system line size");
    return geometry;
}

} // namespace

CacheArray::CacheArray(const CacheGeometry &geometry)
    : geometry_(validated(geometry)), numSets_(geometry.numSets()),
      assoc_(geometry.assoc),
      lineShift_(floorLog2(geometry.lineBytes)),
      tags_(static_cast<std::size_t>(numSets_) * geometry.assoc,
            invalidTag),
      sets_(numSets_)
{
}

int
CacheArray::lookup(std::uint32_t set, Addr paddr)
{
    const int way = probe(set, paddr);
    if (way >= 0)
        touch(set, static_cast<std::uint32_t>(way));
    return way;
}

void
CacheArray::setDirty(std::uint32_t set, std::uint32_t way)
{
    SIPT_ASSERT(set < numSets_ && way < assoc_, "index range");
    SIPT_ASSERT((sets_[set].valid >> way) & 1u,
                "setDirty on invalid line");
    sets_[set].dirty |= std::uint32_t{1} << way;
}

bool
CacheArray::dirtyAt(std::uint32_t set, std::uint32_t way) const
{
    SIPT_ASSERT(set < numSets_ && way < assoc_, "index range");
    SIPT_ASSERT((sets_[set].valid >> way) & 1u,
                "dirtyAt on invalid line");
    return ((sets_[set].dirty >> way) & 1u) != 0;
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
    SetState &state = sets_[set];
    std::optional<Eviction> evicted;
    if (state.valid & bit) {
        evicted = Eviction{blockBase(tags_[idx], lineShift_),
                           (state.dirty & bit) != 0};
    }
    state.valid |= bit;
    if (dirty)
        state.dirty |= bit;
    else
        state.dirty &= ~bit;
    tags_[idx] = blockNumber(paddr, lineShift_);
    touch(set, victim);
    return evicted;
}

bool
CacheArray::invalidate(std::uint32_t set, Addr paddr)
{
    const int way = probe(set, paddr);
    if (way < 0)
        return false;
    tags_[slot(set, static_cast<std::uint32_t>(way))] = invalidTag;
    sets_[set].valid &=
        ~(std::uint32_t{1} << static_cast<std::uint32_t>(way));
    return true;
}

std::uint64_t
CacheArray::validLines() const
{
    std::uint64_t n = 0;
    for (const SetState &state : sets_)
        n += std::popcount(state.valid);
    return n;
}

std::uint32_t
CacheArray::selectVictim(std::uint32_t set) const
{
    // Lowest invalid way first, else the LRU nibble.
    const SetState &state = sets_[set];
    const std::uint32_t invalid =
        ~state.valid & ((std::uint32_t{1} << assoc_) - 1);
    if (invalid)
        return static_cast<std::uint32_t>(
            std::countr_zero(invalid));
    return static_cast<std::uint32_t>(
        (state.order >> (4 * (assoc_ - 1))) & 0xf);
}

} // namespace sipt::cache
