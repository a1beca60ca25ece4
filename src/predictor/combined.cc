#include "predictor/combined.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace sipt::predictor
{

namespace
{

IdbParams
withSpecBits(IdbParams params, std::uint32_t spec_bits)
{
    params.specBits = spec_bits;
    return params;
}

} // namespace

const char *
indexSourceName(IndexSource source)
{
    switch (source) {
      case IndexSource::VaBits:
        return "va-bits";
      case IndexSource::Reversed:
        return "reversed";
      case IndexSource::Idb:
        return "idb";
    }
    return "?";
}

CombinedIndexPredictor::CombinedIndexPredictor(
    std::uint32_t spec_bits,
    const PerceptronParams &perceptron_params,
    const IdbParams &idb_params)
    : specBits_(spec_bits), perceptron_(perceptron_params),
      idb_(withSpecBits(idb_params, spec_bits))
{
    if (spec_bits == 0 || spec_bits > 9)
        fatal("CombinedIndexPredictor: specBits must be in 1..9");
    trace_ = trace::Tracer::globalIfEnabled();
    if (trace_)
        traceLane_ = trace_->newLane();
}

void
CombinedIndexPredictor::traceResolve(Addr pc,
                                     const IndexPrediction &pred,
                                     std::uint32_t pa_bits)
{
    trace::PredictorEvent event;
    event.predictor = "combined-index";
    event.pc = pc;
    event.seq = resolves_++;
    event.decision = indexSourceName(pred.source);
    event.predicted = pred.bits;
    event.actual = pa_bits;
    event.correct = pred.bits == pa_bits;
    trace_->predictor(traceLane_, event);
}

std::uint64_t
CombinedIndexPredictor::storageBytes() const
{
    return perceptron_.storageBytes() + idb_.storageBytes();
}

} // namespace sipt::predictor
