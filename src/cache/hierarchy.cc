#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace sipt::cache
{

BelowL1::BelowL1(const TimingCacheParams *l2_params,
                 TimingCache &llc, dram::Dram &dram,
                 const check::Options &check)
    : llc_(llc), dram_(dram)
{
    if (l2_params != nullptr)
        l2_ = std::make_unique<TimingCache>(*l2_params);
    if (check.enabled) {
        fillTracker_ = std::make_unique<check::FillTracker>(
            static_cast<std::uint32_t>(lineSize));
        checkAbort_ = check.abortOnDivergence;
    }
    trace_ = trace::Tracer::globalIfEnabled();
    if (trace_)
        traceLane_ = trace_->newLane();
}

Cycles
BelowL1::fill(Addr paddr, Cycles now)
{
    if (fillTracker_)
        fillTracker_->onFill(paddr);
    Cycles latency;
    if (!l2_) {
        latency = fillFromLlc(paddr, now, false);
    } else {
        latency = l2_->latency();
        const auto l2_res = l2_->read(paddr);
        if (l2_res.writebackAddr) {
            // L2 victim flows into the LLC off the critical path.
            fillFromLlc(*l2_res.writebackAddr, now + latency,
                        true);
        }
        if (!l2_res.hit)
            latency += fillFromLlc(paddr, now + latency, false);
    }
    if (trace_)
        trace_->fill(traceLane_, paddr, now, latency);
    return latency;
}

void
BelowL1::writeback(Addr paddr, Cycles now)
{
    if (fillTracker_) {
        const std::string error = fillTracker_->onWriteback(paddr);
        if (!error.empty() && checkAbort_)
            panic("SIPT_CHECK writeback shim: ", error);
    }
    if (l2_) {
        const auto res = l2_->write(paddr);
        if (res.writebackAddr)
            fillFromLlc(*res.writebackAddr, now, true);
    } else {
        fillFromLlc(paddr, now, true);
    }
}

void
BelowL1::prefetch(Addr paddr, Cycles now)
{
    if (l2_) {
        const auto res = l2_->read(paddr);
        if (res.writebackAddr)
            fillFromLlc(*res.writebackAddr, now, true);
        if (!res.hit)
            fillFromLlc(paddr, now, false);
    } else {
        fillFromLlc(paddr, now, false);
    }
}

Cycles
BelowL1::fillFromLlc(Addr paddr, Cycles now, bool write)
{
    Cycles latency = llc_.latency();
    const auto res = write ? llc_.write(paddr) : llc_.read(paddr);
    if (res.writebackAddr) {
        ++dramWrites_;
        dram_.access(*res.writebackAddr, now + latency, true);
    }
    if (!res.hit) {
        ++dramReads_;
        latency += dram_.access(paddr, now + latency, false);
    }
    return latency;
}

} // namespace sipt::cache
