/**
 * @file
 * Shared helpers for the figure-regeneration benchmark binaries.
 *
 * Each bench_figNN binary reproduces one table or figure of the
 * SIPT paper (see DESIGN.md's experiment index): it runs the
 * relevant sweep and prints the same rows/series the paper reports,
 * normalised the same way (IPC and energy relative to the baseline
 * L1; harmonic-mean speedups; arithmetic-mean energies).
 */

#ifndef SIPT_BENCH_BENCH_UTIL_HH
#define SIPT_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdlib>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

namespace sipt::bench
{

/** Apps on the x-axis of the per-application figures. */
inline const std::vector<std::string> &
apps()
{
    return workload::figureApps();
}

/** Number of measured references per run (SIPT_REFS overrides). */
inline std::uint64_t
measureRefs()
{
    return sim::defaultMeasureRefs();
}

/**
 * Apps used for the (very wide) sensitivity sweeps; a documented
 * 10-app subset spanning the three behaviour classes so the bench
 * finishes in minutes. SIPT_ALL_APPS=1 runs every app.
 */
inline std::vector<std::string>
sensitivityApps()
{
    if (envU64("SIPT_ALL_APPS", 0, 0, 1) == 1)
        return apps();
    return {"mcf",      "h264ref",  "gcc",     "libquantum",
            "calculix", "GemsFDTD", "gromacs", "graph500",
            "ycsb",     "leela_17"};
}

/**
 * Trace-level speculation statistics for one application: runs the
 * allocation phase and a reference stream, comparing VA and PA
 * index bits without any cache model (Figs. 5, 9, 12 are purely
 * properties of the address stream and predictors).
 */
struct TraceLab
{
    /** A default system: 4 GiB, Normal condition, seed 42. */
    sim::SystemConfig config;
    /** Its conditioned memory, before any app allocation. */
    sim::ConditionedMemory mem{sim::streamSpec(config)};
    /** The app's address space (seed 43) and reference source
     *  (seed 44). */
    sim::Workload workload;

    /** @param app profile name */
    explicit TraceLab(const std::string &app)
        : workload(sim::buildWorkload(sim::streamSpec(config), app,
                                      mem.buddy, config.seed,
                                      nullptr))
    {
    }

    /** Produce the app's next reference. */
    void next(MemRef &ref) { workload.source->next(ref); }

    /** Translate a VA via the (already populated) page table. */
    Pfn
    pfnOf(Addr vaddr) const
    {
        const auto xlat =
            workload.as->pageTable().translate(vaddr);
        return xlat ? (xlat->paddr >> pageShift) : invalidPfn;
    }

    /** True when vaddr lies in a huge-page mapping. */
    bool
    isHuge(Addr vaddr) const
    {
        return workload.as->pageTable().isHugeMapped(vaddr);
    }
};

/** Print a standard figure header. */
inline void
figureHeader(const std::string &what)
{
    std::cout << "\n=== " << what << " ===\n"
              << "(refs/run = " << measureRefs() << ")\n\n";
}

/**
 * The process-wide sweep engine every bench submits its runs
 * through (SIPT_THREADS workers, memoized via SIPT_RUN_CACHE).
 * Benches enqueue every job up front and then fetch futures in
 * print order, so tables are byte-identical for any thread count.
 */
inline sim::SweepRunner &
sweep()
{
    return sim::SweepRunner::global();
}

/** Shorthand for a future single-core result. */
using RunFuture = std::shared_future<sim::RunResult>;

/**
 * Print the engine's jobs/sec and cache-hit counters. Goes to
 * stderr so stdout (the figure tables) stays byte-comparable
 * between runs and thread counts.
 */
inline void
sweepFooter()
{
    sim::SweepRunner::global().printStats(std::cerr);
}

/** Directory for per-figure metrics JSON (SIPT_METRICS env);
 *  empty = metrics export off. */
inline std::string
metricsDir()
{
    if (const char *env = std::getenv("SIPT_METRICS"))
        return env;
    return "";
}

/**
 * Machine-readable companion of one figure's printed table: the
 * bench records per-app values and summary statistics under dotted
 * paths, and write() drops "<SIPT_METRICS>/<figure>.json" for
 * tools/sipt-claims. Everything is a no-op (and nothing touches
 * stdout either way) when SIPT_METRICS is unset, so figure output
 * stays byte-identical.
 */
class FigureMetrics
{
  public:
    explicit FigureMetrics(std::string figure)
        : figure_(std::move(figure)), dir_(metricsDir())
    {
    }

    bool enabled() const { return !dir_.empty(); }

    /** Record one floating-point metric. */
    void
    value(const std::string &path, double v)
    {
        if (enabled())
            registry_.setValue(path, v);
    }

    /** Record one counter. */
    void
    counter(const std::string &path, std::uint64_t v)
    {
        if (enabled())
            registry_.setCounter(path, v);
    }

    /** Record every field of @p result under @p prefix. */
    void
    run(const std::string &prefix, const sim::RunResult &result)
    {
        if (enabled())
            sim::fillRunMetrics(registry_, prefix, result);
    }

    /** Write the figure's JSON file (no-op when disabled). */
    void
    write()
    {
        if (enabled()) {
            sim::writeMetricsJson(dir_ + "/" + figure_ + ".json",
                                  figure_, measureRefs(),
                                  registry_);
        }
    }

  private:
    std::string figure_;
    std::string dir_;
    MetricsRegistry registry_;
};

} // namespace sipt::bench

#endif // SIPT_BENCH_BENCH_UTIL_HH
