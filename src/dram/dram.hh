/**
 * @file
 * A DDR3-like main-memory timing model: channels x banks with open
 * rows and busy tracking.
 *
 * This substitutes for DRAMSim2 in the paper's setup (Tab. II:
 * 8 banks, 4 channels, DDR3, 16 GiB). It models what the SIPT
 * evaluation is sensitive to: a large, row-locality- and
 * contention-dependent miss latency at the bottom of the hierarchy.
 * All latencies are expressed in *core* cycles at 3 GHz.
 */

#ifndef SIPT_DRAM_DRAM_HH
#define SIPT_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sipt::dram
{

/** DDR3-like timing and topology parameters. */
struct DramParams
{
    std::uint32_t channels = 4;
    std::uint32_t banksPerChannel = 8;
    /** Bytes per row (row-buffer reach). */
    std::uint64_t rowBytes = 8 * 1024;
    /** Core cycles for a row-buffer hit (CAS + transfer). */
    Cycles rowHitLatency = 60;
    /** Core cycles for a closed-row access (RCD + CAS + xfer). */
    Cycles rowMissLatency = 110;
    /** Extra core cycles when a different row is open (PRE). */
    Cycles rowConflictExtra = 40;
    /** Bank occupancy per access (limits per-bank throughput). */
    Cycles bankBusy = 24;
    /** Channel data-bus occupancy per access (burst transfer). */
    Cycles busBusy = 12;
    /**
     * Maximum queueing delay modelled per access. The core model
     * dispatches accesses with out-of-order timestamps (dependent
     * chains complete far after independent work), so busy-until
     * state is only allowed to delay accesses that arrive within
     * this window of it; a finite memory-controller queue has the
     * same effect.
     */
    Cycles queueWindow = 200;
    /** Dynamic energy per access in nJ (activate+rd/wr+IO). */
    double accessEnergyNj = 20.0;
    /** Background power in mW for the whole DRAM subsystem. */
    double staticPowerMw = 1200.0;
};

/**
 * Bank-state main memory. Accesses are issued at a global time and
 * return their completion latency; bank and bus contention push
 * later accesses out.
 */
class Dram
{
  public:
    explicit Dram(const DramParams &params = DramParams{});

    /**
     * Issue an access to physical address @p paddr at time @p now.
     *
     * @return total latency in core cycles from @p now until the
     *         critical word is available
     */
    Cycles access(Addr paddr, Cycles now, bool write = false);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t rowConflicts() const { return rowConflicts_; }

    /** Dynamic energy consumed so far, in nJ. */
    double
    dynamicEnergyNj() const
    {
        return static_cast<double>(accesses_) *
               params_.accessEnergyNj;
    }

    const DramParams &params() const { return params_; }

    /** Zero the counters (bank state is kept: warmup). */
    void
    resetStats()
    {
        accesses_ = rowHits_ = rowMisses_ = rowConflicts_ = 0;
    }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycles busyUntil = 0;
    };

    DramParams params_;
    std::vector<Bank> banks_;
    std::vector<Cycles> channelBusyUntil_;
    std::uint64_t accesses_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
    std::uint64_t rowConflicts_ = 0;
};

} // namespace sipt::dram

#endif // SIPT_DRAM_DRAM_HH
