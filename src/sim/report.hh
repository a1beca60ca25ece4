/**
 * @file
 * Machine-readable result export: flattens RunResult records into
 * CSV so experiment sweeps can be post-processed (plotted against
 * the paper's figures) without scraping the figure tables, and
 * serialises MetricsRegistry snapshots — the per-figure JSON files
 * that tools/sipt-claims checks against the paper's claim
 * envelopes.
 */

#ifndef SIPT_SIM_REPORT_HH
#define SIPT_SIM_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "sim/system.hh"

namespace sipt::sim
{

/** One labelled result row (configuration + metrics). */
struct ResultRow
{
    std::string experiment;
    std::string config;
    RunResult result;
};

/** Write the CSV header for RunResult rows. */
void writeCsvHeader(std::ostream &os);

/** Write one row. Fields are comma-separated; labels must not
 *  contain commas (enforced fatally). */
void writeCsvRow(std::ostream &os, const ResultRow &row);

/** Header + all rows. */
void writeCsv(std::ostream &os,
              const std::vector<ResultRow> &rows);

/**
 * Serialise @p metrics to @p path as pretty-stable JSON:
 * {"figure": <figure>, "refs": <refs>, "metrics": {...nested...}}.
 * Fatal when the file cannot be written (a claims run must never
 * silently produce nothing).
 */
void writeMetricsJson(const std::string &path,
                      const std::string &figure,
                      std::uint64_t refs,
                      const MetricsRegistry &metrics);

} // namespace sipt::sim

#endif // SIPT_SIM_REPORT_HH
