#include "cpu/core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"

namespace sipt::cpu
{

CoreParams
inOrderCoreParams()
{
    CoreParams p;
    p.outOfOrder = false;
    p.width = 2;
    p.robSize = 0;
    p.loadWindow = 0;
    p.mshrs = 4;
    p.effectiveIlp = 1.5;
    return p;
}

CoreParams
outOfOrderCoreParams()
{
    return CoreParams{};
}

double
CoreResult::seconds(double freq_ghz) const
{
    return cycles / (freq_ghz * 1e9);
}

TraceCore::TraceCore(const CoreParams &params)
    : params_(params), rng_(params.seed)
{
    if (params.width == 0)
        fatal("TraceCore: zero issue width");
    if (params.effectiveIlp <= 0.0)
        fatal("TraceCore: effectiveIlp must be positive");
    if (params.outOfOrder) {
        if (params.loadWindow == 0 || params.mshrs == 0)
            fatal("TraceCore: OOO core needs loadWindow and mshrs");
        robRing_.assign(params.loadWindow, 0.0);
    }
    mshrRing_.assign(std::max<std::uint32_t>(params.mshrs, 1), 0.0);
    chainComp_.assign(numChains, 0.0);
    slot_ = 1.0 / std::min(static_cast<double>(params.width),
                           params.effectiveIlp);
    trace_ = trace::Tracer::globalIfEnabled();
    if (trace_)
        traceLane_ = trace_->newLane();
}

std::uint32_t
TraceCore::sampleUseDistance()
{
    // Heavy-headed distribution: a sizeable fraction of loads have
    // their first consumer within a couple of instructions (these
    // are the loads that expose L1 hit latency), with a long tail
    // that the compiler/scheduler has hidden.
    const double r = rng_.uniform();
    if (r < 0.10)
        return 0;
    if (r < 0.18)
        return 1;
    if (r < 0.25)
        return 2;
    if (r < 0.31)
        return 3;
    if (r < 0.37)
        return 5;
    return 8 + static_cast<std::uint32_t>(rng_.below(24));
}

CoreResult
TraceCore::run(TraceSource &source, MemPort &port,
               std::uint64_t max_refs)
{
    const RunCursor cursor = beginRun();

    MemRef ref;
    for (std::uint64_t i = 0; i < max_refs; ++i) {
        if (!source.next(ref))
            break;

        const double disp = dispatchRef(ref);
        bool miss = false;
        const Cycles latency = port.access(
            ref, static_cast<Cycles>(disp), miss);
        completeRef(ref, disp, latency, miss);
    }

    return endRun(cursor);
}

CoreResult
TraceCore::endRun(const RunCursor &cursor)
{
    CoreResult res;
    // The run ends when the last instruction retires, not merely
    // when it dispatches.
    res.cycles =
        std::max(now_, retireEnvelope_) - cursor.startCycles;
    res.instructions = instructions_ - cursor.startInstructions;
    res.memRefs = memRefs_ - cursor.startRefs;
    if (trace_) {
        trace_->simSpan("core",
                        params_.outOfOrder ? "core-run-ooo"
                                           : "core-run-inorder",
                        traceLane_, cursor.startCycles,
                        res.cycles);
    }
    return res;
}

} // namespace sipt::cpu
