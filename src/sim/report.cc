#include "sim/report.hh"

#include <fstream>
#include <ostream>

#include "common/logging.hh"

namespace sipt::sim
{

void
writeCsvHeader(std::ostream &os)
{
    os << "experiment,config,app,ipc,cycles,instructions,"
       << "l1_accesses,l1_hits,l1_misses,l1_mpki,"
       << "fast_fraction,extra_array_accesses,"
       << "correct_speculation,correct_bypass,opportunity_loss,"
       << "extra_access,idb_hit,"
       << "energy_total_nj,energy_dynamic_nj,"
       << "huge_coverage,waypred_accuracy,dtlb_hit_rate,"
       << "page_walks\n";
}

void
writeCsvRow(std::ostream &os, const ResultRow &row)
{
    auto check = [](const std::string &s) {
        if (s.find(',') != std::string::npos)
            fatal("CSV label contains a comma: ", s);
        return s;
    };
    const RunResult &r = row.result;
    os << check(row.experiment) << ',' << check(row.config)
       << ',' << check(r.app) << ',' << r.ipc << ',' << r.cycles
       << ',' << r.instructions << ',' << r.l1.accesses << ','
       << r.l1.hits << ',' << r.l1.misses << ',' << r.l1Mpki
       << ',' << r.fastFraction << ','
       << r.l1.extraArrayAccesses << ','
       << r.l1.spec.correctSpeculation << ','
       << r.l1.spec.correctBypass << ','
       << r.l1.spec.opportunityLoss << ','
       << r.l1.spec.extraAccess << ',' << r.l1.spec.idbHit
       << ',' << r.energy.total() << ','
       << r.energy.dynamicTotal() << ',' << r.hugeCoverage
       << ',' << r.wayPredAccuracy << ',' << r.dtlbHitRate
       << ',' << r.pageWalks << '\n';
}

void
writeCsv(std::ostream &os, const std::vector<ResultRow> &rows)
{
    writeCsvHeader(os);
    for (const auto &row : rows)
        writeCsvRow(os, row);
}

void
writeMetricsJson(const std::string &path,
                 const std::string &figure, std::uint64_t refs,
                 const MetricsRegistry &metrics)
{
    Json doc = Json::object();
    doc.set("figure", figure);
    doc.set("refs", refs);
    doc.set("metrics", metrics.toJson());
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out)
        fatal("report: cannot write metrics file '", path, "'");
    out << doc.dump() << '\n';
}

} // namespace sipt::sim
