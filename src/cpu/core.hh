/**
 * @file
 * Trace-driven core timing models.
 *
 * This is the substitute for the paper's Macsim cores (Tab. II):
 * a 6-wide, 192-entry-ROB out-of-order core and a 2-wide in-order
 * core, both at 3 GHz. Rather than a full pipeline simulation, we
 * use an interval-style model that exposes exactly the effects the
 * SIPT evaluation depends on:
 *
 *  - issue bandwidth (width W): every instruction consumes a slot;
 *  - load-to-use exposure: each load has a consumer at a sampled
 *    distance; in-order pipelines stall when the consumer issues
 *    before the load completes, which is how L1 hit latency shows
 *    up in IPC;
 *  - dependent-load chains: pointer-chase loads
 *    (MemRef::dependsOnPrev) serialise on the previous load, which
 *    is how OOO cores expose L1 hit latency;
 *  - ROB-limited memory parallelism: a load cannot dispatch until
 *    the load a window behind it has retired;
 *  - MSHR-limited miss parallelism.
 *
 * The model is deliberately deterministic: consumer distances are
 * sampled from a per-core xoshiro stream.
 */

#ifndef SIPT_CPU_CORE_HH
#define SIPT_CPU_CORE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/trace_source.hh"

namespace sipt::trace
{
class Tracer;
} // namespace sipt::trace

namespace sipt::cpu
{

/** Core configuration (defaults = the OOO core of Tab. II). */
struct CoreParams
{
    bool outOfOrder = true;
    /** Issue width (instructions per cycle). */
    std::uint32_t width = 6;
    /** Reorder-buffer size (OOO only). */
    std::uint32_t robSize = 192;
    /**
     * Memory operations simultaneously in flight in the ROB.
     * Roughly robSize x memory-op fraction; this is the window
     * that bounds memory-level parallelism.
     */
    std::uint32_t loadWindow = 64;
    /** Outstanding L1 misses (MSHRs). */
    std::uint32_t mshrs = 16;
    /**
     * Effective sustained ILP on non-memory work. Register
     * dependences keep real cores well below their nominal issue
     * width; this caps the issue rate the model uses.
     */
    double effectiveIlp = 3.0;
    /** Core frequency, for energy integration. */
    double freqGhz = 3.0;
    /** RNG seed for consumer-distance sampling. */
    std::uint64_t seed = 3;
};

/** In-order core preset of Tab. II (2-wide, 2-level hierarchy). */
CoreParams inOrderCoreParams();

/** Out-of-order core preset of Tab. II. */
CoreParams outOfOrderCoreParams();

/** Result of a trace run. */
struct CoreResult
{
    double cycles = 0.0;
    InstCount instructions = 0;
    std::uint64_t memRefs = 0;

    double
    ipc() const
    {
        return cycles > 0.0
                   ? static_cast<double>(instructions) / cycles
                   : 0.0;
    }

    /** Wall-clock seconds at the configured frequency. */
    double seconds(double freq_ghz) const;
};

/**
 * Callback that performs one memory access (translation + L1 +
 * below) and returns its load-to-use latency in cycles.
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * @param ref the reference to perform
     * @param now dispatch cycle of the reference
     * @param miss_out set to true when the access missed the L1
     * @return latency in cycles until the value is available
     */
    virtual Cycles access(const MemRef &ref, Cycles now,
                          bool &miss_out) = 0;
};

/**
 * The trace-driven core model.
 *
 * The per-reference timing steps are exposed as
 * dispatchRef()/completeRef() (with beginRun()/endRun() bracketing
 * the accounting) so the simulator's access pipeline can drive
 * them over references it fetched and predicted in bulk. run() is
 * the same steps as a one-reference-at-a-time loop over a MemPort,
 * for unit tests and stand-alone core studies.
 */
class TraceCore
{
  public:
    explicit TraceCore(const CoreParams &params);

    /** Progress snapshot taken at the start of a run() episode. */
    struct RunCursor
    {
        double startCycles = 0.0;
        InstCount startInstructions = 0;
        std::uint64_t startRefs = 0;
    };

    /**
     * Run @p max_refs references from @p source against @p port.
     * The core may be run repeatedly; timing state carries over
     * (used by the multicore driver to recycle traces).
     */
    CoreResult run(TraceSource &source, MemPort &port,
                   std::uint64_t max_refs);

    /** Snapshot progress counters at the start of an episode. */
    RunCursor
    beginRun() const
    {
        return {std::max(now_, retireEnvelope_), instructions_,
                memRefs_};
    }

    /** Close an episode opened by beginRun(): the delta result,
     *  plus the simulated-time trace span run() would emit. */
    CoreResult endRun(const RunCursor &cursor);

    /**
     * Dispatch one reference: charge issue bandwidth for it and
     * its preceding non-memory instructions, apply the ROB-window
     * and chase-chain constraints.
     *
     * @return the dispatch cycle to hand to the memory port
     */
    double
    dispatchRef(const MemRef &ref)
    {
        now_ += static_cast<double>(ref.nonMemBefore) * slot_;
        instructions_ += ref.nonMemBefore + 1;
        ++memRefs_;
        now_ += slot_;

        // ROB-window constraint: dispatch (in program order)
        // stalls when the op loadWindow ops earlier has not yet
        // retired, which pushes the whole issue front forward.
        if (params_.outOfOrder)
            now_ = std::max(now_, robRing_[robIdx_]);
        double disp = now_;

        // Address dependence on an earlier load (pointer chase):
        // the load sits in the issue queue until its chain's
        // producer completes, but dispatch continues.
        if (ref.dependsOnPrev) {
            disp = std::max(
                disp, chainComp_[ref.chainId % numChains]);
        }
        return disp;
    }

    /**
     * Retire one reference dispatched at @p disp whose memory
     * access reported @p latency (and @p miss): MSHR and
     * load-to-use constraints, chase-chain update, retirement
     * envelope and ROB ring.
     */
    void
    completeRef(const MemRef &ref, double disp, Cycles latency,
                bool miss)
    {
        double comp = disp + static_cast<double>(latency);

        // MSHR constraint: with all miss registers busy, the miss
        // waits for the oldest outstanding one.
        if (miss) {
            const double free_at = mshrRing_[mshrIdx_];
            if (free_at > disp)
                comp += free_at - disp;
            mshrRing_[mshrIdx_] = comp;
            if (++mshrIdx_ == mshrRing_.size())
                mshrIdx_ = 0;
        }

        if (ref.op == MemOp::Load) {
            if (ref.dependsOnPrev) {
                chainComp_[ref.chainId % numChains] =
                    comp + ref.chainTail;
            }
            if (!params_.outOfOrder) {
                // The consumer issues useDist instructions later;
                // if the load has not completed by then the
                // pipeline stalls until it has.
                const double use_at =
                    now_ +
                    static_cast<double>(sampleUseDistance()) *
                        slot_;
                if (comp > use_at)
                    now_ += comp - use_at;
            }
        }

        // In-order retirement envelope feeds the ROB ring.
        retireEnvelope_ = std::max(retireEnvelope_, comp);
        if (params_.outOfOrder) {
            robRing_[robIdx_] = retireEnvelope_;
            if (++robIdx_ == params_.loadWindow)
                robIdx_ = 0;
        }
    }

    /** Cycles elapsed so far across run() calls. */
    double cyclesSoFar() const { return now_; }

    const CoreParams &params() const { return params_; }

  private:
    /** Sample the instruction distance to a load's first consumer:
     *  a heavy-tailed distribution with ~15% adjacent consumers. */
    std::uint32_t sampleUseDistance();

    /** Number of independent chase chains tracked. */
    static constexpr std::uint32_t numChains = 16;

    CoreParams params_;
    Rng rng_;
    /** Issue-slot cost of one instruction (1 / effective IPC). */
    double slot_ = 1.0;
    double now_ = 0.0;
    InstCount instructions_ = 0;
    std::uint64_t memRefs_ = 0;
    /** Completion time of the last load per chase chain. */
    std::vector<double> chainComp_;
    /** Ring of memory-op retire times (ROB window constraint). */
    std::vector<double> robRing_;
    /** Wrapping cursor into robRing_ (the slot the next dispatch
     *  reads and the matching completion writes). */
    std::uint32_t robIdx_ = 0;
    /** Ring of miss completion times (MSHR constraint). */
    std::vector<double> mshrRing_;
    /** Wrapping cursor into mshrRing_. */
    std::size_t mshrIdx_ = 0;
    /** In-order retire envelope (monotone completion front). */
    double retireEnvelope_ = 0.0;
    /** Tracing hook (nullptr unless SIPT_TRACE is set): one
     *  simulated-time span per run() call. */
    trace::Tracer *trace_ = nullptr;
    std::uint64_t traceLane_ = 0;
};

} // namespace sipt::cpu

#endif // SIPT_CPU_CORE_HH
