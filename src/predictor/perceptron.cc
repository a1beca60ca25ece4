#include "predictor/perceptron.hh"

#include <cmath>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace sipt::predictor
{

PerceptronBypassPredictor::PerceptronBypassPredictor(
    const PerceptronParams &params)
    : params_(params)
{
    if (!isPowerOfTwo(params.entries))
        fatal("Perceptron: entries must be a power of two");
    if (params.history == 0 || params.history > 64)
        fatal("Perceptron: bad history length");
    if (params.weightBits < 2 || params.weightBits > 15)
        fatal("Perceptron: bad weight width");

    threshold_ = params.threshold >= 0
                     ? params.threshold
                     : static_cast<int>(
                           std::floor(1.93 * params.history + 14));
    weightMax_ = static_cast<Weight>(
        (1 << (params.weightBits - 1)) - 1);
    weightMin_ = static_cast<Weight>(
        -(1 << (params.weightBits - 1)));
    weights_.assign(static_cast<std::size_t>(params.entries) *
                        (params.history + 1),
                    0);
    // Bias toward speculating before any training: OS contiguity
    // makes "unchanged" the common case, and a zero-weight
    // perceptron outputs y = 0 which we already treat as speculate
    // (y >= 0), so no explicit bias initialisation is needed.
    historyBits_ = params.history == 64
                       ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << params.history) - 1;
    trace_ = trace::Tracer::globalIfEnabled();
    if (trace_)
        traceLane_ = trace_->newLane();
}

void
PerceptronBypassPredictor::traceResolve(Addr pc, bool unchanged,
                                        int y)
{
    trace::PredictorEvent event;
    event.predictor = "bypass-perceptron";
    event.pc = pc;
    event.seq = resolves_++;
    event.decision = y >= 0 ? "speculate" : "bypass";
    event.predicted = y >= 0 ? 1 : 0;
    event.actual = unchanged ? 1 : 0;
    event.correct = (y >= 0) == unchanged;
    trace_->predictor(traceLane_, event);
}

std::uint64_t
PerceptronBypassPredictor::storageBytes() const
{
    const std::uint64_t bits =
        static_cast<std::uint64_t>(params_.entries) *
        (params_.history + 1) * params_.weightBits;
    return bits / 8;
}

} // namespace sipt::predictor
