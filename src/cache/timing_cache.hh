/**
 * @file
 * A timing model for the lower cache levels (L2 / LLC): a
 * sequentially accessed, write-back/write-allocate set-associative
 * cache with access counters for the energy model.
 *
 * These levels always see physical addresses (translation has
 * completed by the time an access leaves the L1), so they are plain
 * PIPT caches.
 */

#ifndef SIPT_CACHE_TIMING_CACHE_HH
#define SIPT_CACHE_TIMING_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cache/cache_array.hh"
#include "common/types.hh"

namespace sipt::cache
{

/** Parameters of one timing cache level. */
struct TimingCacheParams
{
    std::string name = "cache";
    CacheGeometry geometry{};
    /** Access latency in core cycles (tag+data, sequential). */
    Cycles latency = 12;
    /** Dynamic energy per access in nJ (CACTI, Tab. II). */
    double accessEnergyNj = 0.13;
    /** Static power in mW (CACTI, Tab. II). */
    double staticPowerMw = 102.0;
};

/** Result of a lookup at this level. */
struct TimingCacheResult
{
    bool hit = false;
    /** Dirty victim evicted by the fill, to be written downward. */
    std::optional<Addr> writebackAddr;
};

/**
 * One L2/LLC level. The surrounding hierarchy decides what happens
 * on a miss; this class owns residency, replacement, writeback
 * generation, and counters.
 */
class TimingCache
{
  public:
    explicit TimingCache(const TimingCacheParams &params);

    /**
     * Perform a read (fill on miss).
     * @return hit flag and any dirty eviction caused by the fill
     */
    TimingCacheResult read(Addr paddr);

    /**
     * Perform a write (write-allocate; marks the line dirty).
     * @return hit flag and any dirty eviction caused by the fill
     */
    TimingCacheResult write(Addr paddr);

    /** Access latency of this level. */
    Cycles latency() const { return params_.latency; }

    const TimingCacheParams &params() const { return params_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    double
    hitRate() const
    {
        return accesses_ ? static_cast<double>(hits_) /
                               static_cast<double>(accesses_)
                         : 0.0;
    }

    /** Dynamic energy consumed so far, in nJ. */
    double
    dynamicEnergyNj() const
    {
        return static_cast<double>(accesses_) *
               params_.accessEnergyNj;
    }

    const CacheArray &array() const { return array_; }

    /** Zero the counters (cache contents are kept: warmup). */
    void
    resetStats()
    {
        accesses_ = hits_ = misses_ = writebacks_ = 0;
    }

  private:
    TimingCacheResult access(Addr paddr, bool write);

    TimingCacheParams params_;
    CacheArray array_;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace sipt::cache

#endif // SIPT_CACHE_TIMING_CACHE_HH
