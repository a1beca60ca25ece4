#include "predictor/counter.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::predictor
{

CounterBypassPredictor::CounterBypassPredictor(
    const CounterParams &params)
    : params_(params)
{
    if (!isPowerOfTwo(params.entries))
        fatal("CounterPredictor: entries must be a power of two");
    if (params.counterBits == 0 || params.counterBits > 8)
        fatal("CounterPredictor: bad counter width");
    maxValue_ = (1u << params.counterBits) - 1;
    threshold_ = 1u << (params.counterBits - 1);
    counters_.assign(params.entries, threshold_); // weakly taken
}

std::uint32_t
CounterBypassPredictor::indexOf(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) &
           (params_.entries - 1);
}

bool
CounterBypassPredictor::resolve(Addr pc, bool unchanged)
{
    std::uint32_t &c = counters_[indexOf(pc)];
    const bool speculate = c >= threshold_;
    if (unchanged) {
        if (c < maxValue_)
            ++c;
    } else if (c > 0) {
        --c;
    }
    return speculate;
}

} // namespace sipt::predictor
