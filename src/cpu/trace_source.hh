/**
 * @file
 * The interface between workload generators and core models: a pull
 * source of memory references (with embedded non-memory instruction
 * counts), substituting for the paper's Macsim trace files.
 */

#ifndef SIPT_CPU_TRACE_SOURCE_HH
#define SIPT_CPU_TRACE_SOURCE_HH

#include <cstddef>

#include "cpu/ref_batch.hh"
#include "common/types.hh"

namespace sipt::cpu
{

/**
 * A stream of memory references. Implementations may be synthetic
 * generators or replayers of recorded traces.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     * @return false when the trace is exhausted (sources may be
     *         infinite; callers bound the run by reference count)
     */
    virtual bool next(MemRef &ref) = 0;

    /**
     * Produce up to @p max_refs references directly into the
     * caller's batch (replacing its contents). Must yield exactly
     * the stream next() would: the generators override this with a
     * loop around their internal generation step so the access
     * pipeline pays one virtual call per batch, and this default
     * adapter keeps single-ref-only sources (and wrappers like
     * TeeSource) correct.
     *
     * @return batch.size; less than @p max_refs only on exhaustion
     */
    virtual std::size_t
    nextBatch(RefBatch &batch, std::size_t max_refs)
    {
        if (max_refs > RefBatch::capacity)
            max_refs = RefBatch::capacity;
        batch.clear();
        MemRef ref;
        while (batch.size < max_refs && next(ref))
            batch.push(ref);
        return batch.size;
    }

    /** Restart the stream from the beginning, when supported. */
    virtual void reset() {}
};

/**
 * Consumer side of trace recording: receives every reference a
 * TeeSource forwards. Implementations persist the stream (the
 * workload-layer file recorder) or accumulate statistics.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Observe one reference that the wrapped source produced. */
    virtual void record(const MemRef &ref) = 0;
};

/**
 * Recording hook: forwards an inner source unchanged while
 * mirroring every produced reference into a sink. Wrapping any
 * TraceSource (synthetic, instruction-stream, even a replayer) in
 * a TeeSource captures exactly the stream the core consumed.
 */
class TeeSource : public TraceSource
{
  public:
    TeeSource(TraceSource &inner, TraceSink &sink)
        : inner_(inner), sink_(sink)
    {
    }

    bool
    next(MemRef &ref) override
    {
        if (!inner_.next(ref))
            return false;
        sink_.record(ref);
        return true;
    }

    void reset() override { inner_.reset(); }

  private:
    TraceSource &inner_;
    TraceSink &sink_;
};

} // namespace sipt::cpu

#endif // SIPT_CPU_TRACE_SOURCE_HH
