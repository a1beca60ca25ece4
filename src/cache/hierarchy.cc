#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace sipt::cache
{

BelowL1::BelowL1(const TimingCacheParams *l2_params,
                 TimingCache &llc, dram::Dram &dram,
                 const check::Options &check)
    : llc_(llc), dram_(dram), queue_(dram.queue()),
      l2Latency_(l2_params ? l2_params->latency : 0),
      llcLatency_(llc.latency())
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

std::uint8_t
BelowL1::fill(Addr paddr, dram::AccessLog &log)
{
    if (fillTracker_)
        fillTracker_->onFill(paddr);
    const std::size_t first = log.accesses.size();
    std::uint8_t outcome = FillOutcome::llc;
    if (!l2_) {
        fillFromLlc(paddr, 0, false, true, log);
    } else {
        const auto l2_res = l2_->read(paddr);
        if (l2_res.writebackAddr) {
            // L2 victim flows into the LLC off the critical path.
            fillFromLlc(*l2_res.writebackAddr, l2Latency_, true, false,
                        log);
        }
        if (!l2_res.hit)
            fillFromLlc(paddr, l2Latency_, false, true, log);
        else
            outcome = 0;
    }
    if (log.close(first))
        outcome |= FillOutcome::dram;
    return outcome;
}

bool
BelowL1::writeback(Addr paddr, dram::AccessLog &log)
{
    if (fillTracker_) {
        const std::string error = fillTracker_->onWriteback(paddr);
        if (!error.empty() && checkAbort_)
            panic("SIPT_CHECK writeback shim: ", error);
    }
    const std::size_t first = log.accesses.size();
    if (l2_) {
        const auto res = l2_->write(paddr);
        if (res.writebackAddr)
            fillFromLlc(*res.writebackAddr, 0, true, false, log);
    } else {
        fillFromLlc(paddr, 0, true, false, log);
    }
    return log.close(first);
}

bool
BelowL1::prefetch(Addr paddr, dram::AccessLog &log)
{
    const std::size_t first = log.accesses.size();
    if (l2_) {
        const auto res = l2_->read(paddr);
        if (res.writebackAddr)
            fillFromLlc(*res.writebackAddr, 0, true, false, log);
        if (!res.hit)
            fillFromLlc(paddr, 0, false, false, log);
    } else {
        fillFromLlc(paddr, 0, false, false, log);
    }
    return log.close(first);
}

void
BelowL1::fillFromLlc(Addr paddr, Cycles offset, bool write,
                     bool demand, dram::AccessLog &log)
{
    const auto at = static_cast<std::uint32_t>(offset + llcLatency_);
    const auto res = write ? llc_.write(paddr) : llc_.read(paddr);
    if (res.writebackAddr) {
        ++dramWrites_;
        log.add(dram_.rows().access(*res.writebackAddr), at, false);
    }
    if (!res.hit) {
        ++dramReads_;
        log.add(dram_.rows().access(paddr), at, demand);
    }
}

Cycles
BelowL1::timeFill(Addr paddr, std::uint8_t outcome,
                  const dram::AccessLog &log,
                  dram::AccessLog::Cursor &cursor, Cycles now)
{
    Cycles latency = l2Latency_;
    if (outcome & FillOutcome::llc)
        latency += llcLatency_;
    if (outcome & FillOutcome::dram)
        latency += queue_.replay(log, cursor, now);
    if (trace_)
        trace_->fill(traceLane_, paddr, now, latency);
    return latency;
}

Cycles
BelowL1::fill(Addr paddr, Cycles now)
{
    scratch_.clear();
    const std::uint8_t outcome = fill(paddr, scratch_);
    dram::AccessLog::Cursor cursor;
    return timeFill(paddr, outcome, scratch_, cursor, now);
}

void
BelowL1::writeback(Addr paddr, Cycles now)
{
    scratch_.clear();
    dram::AccessLog::Cursor cursor;
    if (writeback(paddr, scratch_))
        time(scratch_, cursor, now);
}

void
BelowL1::prefetch(Addr paddr, Cycles now)
{
    scratch_.clear();
    dram::AccessLog::Cursor cursor;
    if (prefetch(paddr, scratch_))
        time(scratch_, cursor, now);
}

} // namespace sipt::cache
