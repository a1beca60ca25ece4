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
 *
 * The model is two halves with no state in common. DramRows keeps
 * the open row of every bank: which row an access finds open
 * depends only on the order of the accesses, never on their times.
 * DramQueue keeps when every bank and channel bus is busy until,
 * and turns a row outcome issued at a cycle into a latency. Dram
 * composes them; the access pipeline runs the row half in its
 * memory stage and replays the outcomes (AccessLog) through the
 * queue half in its timing stage.
 */

#ifndef SIPT_DRAM_DRAM_HH
#define SIPT_DRAM_DRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
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

/** What an access found in its bank's row buffer. */
enum class RowOutcome : std::uint8_t
{
    Hit,      ///< the row was open
    Miss,     ///< no row was open
    Conflict, ///< another row was open
};

/** The row half's verdict on one access: all the queue half needs
 *  to time it. */
struct RowAccess
{
    /** Flat bank index: channel * banksPerChannel + bank. */
    std::uint32_t bank = 0;
    RowOutcome outcome = RowOutcome::Hit;

    bool operator==(const RowAccess &) const = default;
};

/**
 * The memory stage's record of the DRAM accesses below-L1
 * operations made, in order, for the timing stage to replay through
 * the queue half. An operation's accesses are consecutive and the
 * last one is flagged; each carries its row outcome and its issue
 * cycle relative to the operation's start. Only a demand access's
 * latency adds to its operation's; the others (victim writebacks,
 * prefetches) only occupy banks. An operation that reached no DRAM
 * leaves no entry.
 */
struct AccessLog
{
    struct Access
    {
        RowAccess row;
        /** Issue cycle relative to its operation's start. */
        std::uint32_t offset = 0;
        /** Its latency adds to the operation's. */
        bool demand = false;
        /** The last access of its operation. */
        bool last = false;

        bool operator==(const Access &) const = default;
    };

    /** A read position: the next access to replay. */
    struct Cursor
    {
        std::size_t next = 0;
    };

    std::vector<Access> accesses;

    void clear() { accesses.clear(); }

    /** Record an access of the operation in progress. */
    void
    add(const RowAccess &row, std::uint32_t offset, bool demand)
    {
        accesses.push_back({row, offset, demand, false});
    }

    /** Close the operation whose accesses began at index @p first.
     *  @return whether it made any */
    bool
    close(std::size_t first)
    {
        if (accesses.size() == first)
            return false;
        accesses.back().last = true;
        return true;
    }

    bool operator==(const AccessLog &) const = default;
};

/** The row half: which row each bank has open, and the row-buffer
 *  counters. Touched in access order only. */
class DramRows
{
  public:
    /** Fatal unless the topology is non-zero powers of two. */
    explicit DramRows(const DramParams &params);

    /** Open @p paddr's row in its bank and count the outcome. */
    RowAccess access(Addr paddr);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t rowConflicts() const { return rowConflicts_; }

    /** Zero the counters (open rows are kept: warmup). */
    void
    resetStats()
    {
        accesses_ = rowHits_ = rowMisses_ = rowConflicts_ = 0;
    }

  private:
    struct Row
    {
        bool open = false;
        std::uint64_t row = 0;
    };

    std::uint32_t channelMask_;
    std::uint32_t bankMask_;
    unsigned channelShift_;
    unsigned rowShift_;
    std::uint32_t banksPerChannel_;
    std::vector<Row> rows_;
    std::uint64_t accesses_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
    std::uint64_t rowConflicts_ = 0;
};

/** The queue half: bank and bus occupancy in time. */
class DramQueue
{
  public:
    explicit DramQueue(const DramParams &params);

    /**
     * Issue an access the row half decided at @p now.
     *
     * @return total latency in core cycles from @p now until the
     *         critical word is available
     */
    Cycles access(const RowAccess &row, Cycles now);

    /**
     * Queue the accesses of the next operation in @p log (at
     * @p cursor, which moves past them), started at @p start.
     * @return the latency of its demand access, or 0
     */
    Cycles
    replay(const AccessLog &log, AccessLog::Cursor &cursor,
           Cycles start)
    {
        Cycles latency = 0;
        for (;;) {
            const AccessLog::Access &a = log.accesses[cursor.next++];
            const Cycles dram = access(a.row, start + a.offset);
            if (a.demand)
                latency = dram;
            if (a.last)
                return latency;
        }
    }

  private:
    DramParams params_;
    unsigned bankShift_;
    std::vector<Cycles> bankBusyUntil_;
    std::vector<Cycles> channelBusyUntil_;
};

/**
 * Bank-state main memory: the two halves composed. Accesses are
 * issued at a global time and return their completion latency;
 * bank and bus contention push later accesses out.
 */
class Dram
{
  public:
    explicit Dram(const DramParams &params = DramParams{});

    /**
     * Issue an access to physical address @p paddr at time @p now:
     * the row half, then the queue half.
     *
     * @return total latency in core cycles from @p now until the
     *         critical word is available
     */
    Cycles
    access(Addr paddr, Cycles now, bool write = false)
    {
        (void)write; // reads and writes share timing in this model
        return queue_.access(rows_.access(paddr), now);
    }

    DramRows &rows() { return rows_; }
    DramQueue &queue() { return queue_; }

    std::uint64_t accesses() const { return rows_.accesses(); }
    std::uint64_t rowHits() const { return rows_.rowHits(); }
    std::uint64_t rowMisses() const { return rows_.rowMisses(); }
    std::uint64_t rowConflicts() const { return rows_.rowConflicts(); }

    /** Dynamic energy consumed so far, in nJ. */
    double
    dynamicEnergyNj() const
    {
        return static_cast<double>(accesses()) *
               params_.accessEnergyNj;
    }

    const DramParams &params() const { return params_; }

    /** Zero the counters (bank state is kept: warmup). */
    void resetStats() { rows_.resetStats(); }

  private:
    DramParams params_;
    DramRows rows_;
    // The queue half on lines of its own: the access pipeline
    // touches the two halves from different host threads.
    alignas(64) DramQueue queue_;
};

// Inline: both halves are on the per-reference path of every
// L2/LLC miss.
inline RowAccess
DramRows::access(Addr paddr)
{
    ++accesses_;

    // Line-interleaved channel, then bank, then row: adjacent lines
    // spread across channels for bandwidth (common BIOS mapping).
    const Addr line = blockNumber(paddr, lineShift);
    const auto channel =
        static_cast<std::uint32_t>(line & channelMask_);
    const auto bank = static_cast<std::uint32_t>(
        blockNumber(line, channelShift_) & bankMask_);
    const std::uint64_t row = blockNumber(paddr, rowShift_);

    RowAccess res;
    res.bank = channel * banksPerChannel_ + bank;
    Row &r = rows_[res.bank];
    if (r.open && r.row == row) {
        ++rowHits_;
        res.outcome = RowOutcome::Hit;
    } else if (!r.open) {
        ++rowMisses_;
        res.outcome = RowOutcome::Miss;
    } else {
        ++rowConflicts_;
        res.outcome = RowOutcome::Conflict;
    }
    r.open = true;
    r.row = row;
    return res;
}

inline Cycles
DramQueue::access(const RowAccess &row, Cycles now)
{
    Cycles &bank_busy = bankBusyUntil_[row.bank];
    Cycles &bus_busy = channelBusyUntil_[row.bank >> bankShift_];

    // Queue behind the bank and the channel bus, but only when the
    // conflicting work is close in time (see queueWindow).
    Cycles start = now;
    if (bank_busy > start && bank_busy - start <= params_.queueWindow)
        start = bank_busy;
    if (bus_busy > start && bus_busy - start <= params_.queueWindow)
        start = bus_busy;

    Cycles service = params_.rowMissLatency;
    if (row.outcome == RowOutcome::Hit)
        service = params_.rowHitLatency;
    else if (row.outcome == RowOutcome::Conflict)
        service += params_.rowConflictExtra;
    bank_busy = start + params_.bankBusy;
    bus_busy = start + params_.busBusy;

    return (start - now) + service;
}

} // namespace sipt::dram

#endif // SIPT_DRAM_DRAM_HH
