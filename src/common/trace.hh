/**
 * @file
 * Structured event tracing for the SIPT pipeline.
 *
 * The tracer emits one JSON object per line (JSONL) in Chrome
 * `trace_event` "complete event" form (ph:"X"), so a trace can be
 * inspected with standard text tools, validated by
 * tools/sipt-claims --validate-trace, or wrapped in a JSON array
 * and loaded into chrome://tracing / Perfetto.
 *
 * Two timelines share the file, distinguished by pid:
 *
 *  - pid 1: simulated time. Per-access SIPT outcome events
 *    (speculate / bypass / replay / delta-hit with TLB and L1
 *    latencies) are stamped with the core cycle; predictor
 *    decision events are stamped with a per-predictor sequence
 *    number (the predict stage runs a batch ahead of the core
 *    clock, so a prediction has no cycle of its own).
 *  - pid 0: wall-clock time. Sweep-worker spans (one per executed
 *    simulation job or generic task) in microseconds.
 *
 * Tracing is off unless SIPT_TRACE=<path> names the output file.
 * Components cache a Tracer pointer (nullptr when disabled) at
 * construction, so the hot-path cost of a disabled tracer is one
 * predicted-not-taken branch and nothing else.
 */

#ifndef SIPT_COMMON_TRACE_HH
#define SIPT_COMMON_TRACE_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "common/types.hh"

namespace sipt::trace
{

/** One L1 access event; ts is the dispatch cycle. */
struct AccessEvent
{
    /** Indexing policy name (policyName()). */
    const char *policy = "";
    /** Speculation outcome name (specDecisionName()). */
    const char *outcome = "";
    Addr pc = 0;
    Addr vaddr = 0;
    /** Dispatch cycle of the access (event timestamp). */
    Cycles cycle = 0;
    /** Cycle at which the translation was available. */
    Cycles tlbLatency = 0;
    /** Load-to-use latency of the access (event duration). */
    Cycles l1Latency = 0;
    bool hit = false;
    /** True when data was available at hitLatency ("fast"). */
    bool fast = false;
};

/** One predictor decision event; ts is a per-predictor sequence
 *  number, because the predict stage runs ahead of the core clock
 *  and a prediction has no cycle of its own. */
struct PredictorEvent
{
    /** Predictor kind: "bypass-perceptron" / "combined-index". */
    const char *predictor = "";
    Addr pc = 0;
    std::uint64_t seq = 0;
    /** Decision taken: "speculate" / "bypass" for the perceptron,
     *  the IndexSource name for the combined predictor. */
    const char *decision = "";
    /** Predicted speculative index bits (perceptron: 1 =
     *  speculate). */
    std::uint32_t predicted = 0;
    /** Resolved index bits (perceptron: 1 = unchanged). */
    std::uint32_t actual = 0;
    bool correct = false;
};

/**
 * JSONL trace writer. Thread-safe: events may come from any sweep
 * worker; each line is built outside the lock and appended under
 * it, so lines are never torn.
 */
class Tracer
{
  public:
    /**
     * Process-wide tracer configured from SIPT_TRACE. Disabled
     * (and no file is created) when the variable is unset or
     * empty.
     */
    static Tracer &global();

    /**
     * Tracer writing to @p path; an empty path disables it. Fatal
     * when the file cannot be opened.
     */
    explicit Tracer(const std::string &path);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /**
     * The process tracer when enabled, else nullptr. Components
     * cache this pointer at construction so the per-access check
     * is a single branch.
     */
    static Tracer *
    globalIfEnabled()
    {
        Tracer &tracer = global();
        return tracer.enabled() ? &tracer : nullptr;
    }

    /**
     * Allocate a fresh display lane (the Chrome "tid"). Each
     * traced component instance takes one so its events stay on
     * one row of the viewer regardless of which worker ran it.
     */
    std::uint64_t newLane();

    /** Emit one L1 access event (pid 1, simulated cycles). */
    void access(std::uint64_t lane, const AccessEvent &event);

    /** Emit one predictor decision event (pid 1, sequence ts). */
    void predictor(std::uint64_t lane, const PredictorEvent &event);

    /** Emit one below-L1 fill event (pid 1, cycle timestamps):
     *  an L1 miss being serviced by L2/LLC/DRAM. */
    void fill(std::uint64_t lane, Addr paddr, Cycles cycle,
              Cycles latency);

    /** Emit one simulated-time span (pid 1, cycle timestamps),
     *  e.g. a core's warmup or measurement run. */
    void simSpan(const char *category, const char *name,
                 std::uint64_t lane, double start_cycle,
                 double dur_cycles);

    /**
     * Emit one wall-clock span (pid 0). @p start_us / @p dur_us
     * are microseconds on the caller's clock; the tracer itself
     * never reads a clock so simulation code stays deterministic.
     */
    void span(const char *category, const std::string &name,
              std::uint64_t lane, double start_us, double dur_us);

    /** Lines written so far. */
    std::uint64_t events() const;

    /** Flush buffered lines to the file. */
    void flush();

  private:
    void write(const std::string &line);

    mutable std::mutex mu_;
    std::ofstream out_;
    bool enabled_ = false;
    std::uint64_t lanes_ = 0;
    std::uint64_t events_ = 0;
};

} // namespace sipt::trace

#endif // SIPT_COMMON_TRACE_HH
