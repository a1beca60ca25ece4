/**
 * @file
 * The figure registry behind sipt-figures.
 *
 * Each figure reproduces one table or figure of the SIPT paper (see
 * DESIGN.md's experiment index) as a plan/report pair: plan()
 * enqueues the figure's jobs on the shared sweep engine and returns
 * a report() closure that fetches them in print order and fills a
 * FigureTable. The driver plans every requested figure before it
 * reports any, so jobs that several figures share run once, and the
 * tables stay byte-identical for any thread count. Figures
 * normalise the way the paper does: IPC and energy relative to the
 * baseline L1, harmonic-mean speedups, arithmetic-mean energies.
 */

#ifndef SIPT_BENCH_FIGURES_HH
#define SIPT_BENCH_FIGURES_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/env.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/table.hh"
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
 * Half of measureRefs(), rounded up so that no run measures zero
 * references: the quad-core mixes, Fig. 18 and the ablations use
 * it to keep their wide sweeps short.
 */
inline std::uint64_t
halfRefs()
{
    return (measureRefs() + 1) / 2;
}

/**
 * Apps used for the (very wide) sensitivity sweeps; a documented
 * 10-app subset spanning the three behaviour classes so the figure
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

/** Shorthand for a future single-core result. */
using RunFuture = std::shared_future<sim::RunResult>;

/** Shorthand for a future quad-core result. */
using MultiFuture = std::shared_future<sim::MulticoreResult>;

/** One column of a figure table after the label column. */
struct Column
{
    std::string header;
    /** Metrics key of the column's numeric cells; empty = the
     *  column is display-only. */
    std::string key;
    /** Decimal places of its floating-point cells. */
    int precision = 3;
    /** Display factor: a fraction kept raw (in the JSON and in
     *  values()) prints as a percentage with 100. */
    double scale = 1.0;
};

/** One table cell: text, an integer (a metrics counter) or a
 *  floating-point value. "" is the blank cell. */
using Cell = std::variant<std::string, std::uint64_t, double>;

/**
 * One figure's output, each value written once: the rows render
 * the stdout table through TextTable and, when SIPT_METRICS is
 * set, the metrics JSON. A data row's keyed cells export as
 * "apps.<row key>.<column key>"; summary values export as
 * "summary.<key>" and are returned to the caller, so a summary row
 * or a note prints the same number the JSON holds.
 */
class FigureTable
{
  public:
    /** @param title header line; @param label first column's
     *  header; @param columns the value columns */
    FigureTable(std::string title, const std::string &label,
                std::vector<Column> columns);

    /** Append a data row. @p key (default: @p label) names the
     *  row in the JSON and must be unique. */
    void row(const std::string &label, const std::vector<Cell> &cells,
             const std::string &key = "");

    /** Append a summary row: displayed only, its values come from
     *  summary(). */
    void summaryRow(const std::string &label,
                    const std::vector<Cell> &cells);

    /** Record summary.<key> and return @p value. */
    double summary(const std::string &key, double value);
    /** Record summary.<key> as a counter and return @p value. */
    std::uint64_t summary(const std::string &key,
                          std::uint64_t value);

    /** The floating-point data cells of column @p key, in row
     *  order. */
    const std::vector<double> &values(const std::string &key) const;

    /** Text printed after the table. */
    std::ostream &notes() { return notes_; }

    /** Mark the figure's own check as failed: sipt-figures exits
     *  nonzero. */
    void fail() { ok_ = false; }
    bool ok() const { return ok_; }

    /** Header, table and notes, as stdout shows them. */
    void print(std::ostream &os) const;

    /** Write "<dir>/<id>.json" (sim::writeMetricsJson). */
    void writeJson(const std::string &dir, const std::string &id) const;

  private:
    void addCells(const std::vector<Cell> &cells, const std::string &key);

    std::string title_;
    std::vector<Column> columns_;
    TextTable table_;
    MetricsRegistry metrics_;
    std::map<std::string, std::vector<double>> values_;
    std::ostringstream notes_;
    bool ok_ = true;
};

/** A planned figure: fetches its jobs and fills its table. */
using Report = std::function<FigureTable()>;

// The plans, one per figure id.
Report fig01(sim::SweepRunner &sweep);
Report fig02(sim::SweepRunner &sweep);
Report fig03(sim::SweepRunner &sweep);
Report fig05(sim::SweepRunner &sweep);
Report fig06(sim::SweepRunner &sweep);
Report fig07(sim::SweepRunner &sweep);
Report fig09(sim::SweepRunner &sweep);
Report fig12(sim::SweepRunner &sweep);
Report fig13(sim::SweepRunner &sweep);
Report fig14(sim::SweepRunner &sweep);
Report fig15(sim::SweepRunner &sweep);
Report fig15syn(sim::SweepRunner &sweep);
Report fig16(sim::SweepRunner &sweep);
Report fig17(sim::SweepRunner &sweep);
Report fig18(sim::SweepRunner &sweep);
Report sec07(sim::SweepRunner &sweep);
Report ablationPredictors(sim::SweepRunner &sweep);
Report ablationContiguity(sim::SweepRunner &sweep);
Report extIcache(sim::SweepRunner &sweep);
Report fig13x(sim::SweepRunner &sweep);
Report fig14x(sim::SweepRunner &sweep);
Report trace13(sim::SweepRunner &sweep);

} // namespace sipt::bench

#endif // SIPT_BENCH_FIGURES_HH
