/**
 * @file
 * sipt-figures: regenerate the SIPT paper's tables and figures.
 *
 *   sipt-figures <id>...     the named figures, in the order given
 *   sipt-figures --all       every figure
 *
 * Every requested figure is planned before any is reported, so the
 * one sweep engine sees all jobs first and runs each distinct job
 * once. Stdout is each figure's table and notes, byte-identical for
 * any SIPT_THREADS; the engine's footer goes to stderr. With
 * SIPT_METRICS=<dir> each figure also writes <dir>/<id>.json. The
 * exit status is 2 on a bad command line, 1 when a figure's own
 * check fails (fig15syn's, ext_icache's, trace13's replay digests)
 * or any run the engine served recorded a check failure, else 0.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "bench/figures.hh"

namespace
{

using namespace sipt;

/** A registered figure: its id (also its JSON stem) and plan. */
struct Figure
{
    const char *id;
    bench::Report (*plan)(sim::SweepRunner &sweep);
};

/** Every figure, in the paper's order. */
const Figure kFigures[] = {
    {"fig01", bench::fig01},
    {"fig02", bench::fig02},
    {"fig03", bench::fig03},
    {"fig05", bench::fig05},
    {"fig06", bench::fig06},
    {"fig07", bench::fig07},
    {"fig09", bench::fig09},
    {"fig12", bench::fig12},
    {"fig13", bench::fig13},
    {"fig14", bench::fig14},
    {"fig15", bench::fig15},
    {"fig15syn", bench::fig15syn},
    {"fig16", bench::fig16},
    {"fig17", bench::fig17},
    {"fig18", bench::fig18},
    {"sec07", bench::sec07},
    {"ablation_predictors", bench::ablationPredictors},
    {"ablation_contiguity", bench::ablationContiguity},
    {"ext_icache", bench::extIcache},
    {"fig13x", bench::fig13x},
    {"fig14x", bench::fig14x},
    {"trace13", bench::trace13},
};

int
usage(const std::string &problem)
{
    std::cerr << "sipt-figures: " << problem
              << "\nusage: sipt-figures <id>... | --all\nfigure ids:";
    for (const Figure &f : kFigures)
        std::cerr << ' ' << f.id;
    std::cerr << '\n';
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    std::vector<const Figure *> selected;
    if (args.size() == 1 && args[0] == "--all") {
        for (const Figure &f : kFigures)
            selected.push_back(&f);
    } else {
        for (const std::string &arg : args) {
            const auto it = std::find_if(
                std::begin(kFigures), std::end(kFigures),
                [&arg](const Figure &f) { return arg == f.id; });
            if (it == std::end(kFigures)) {
                return usage(arg == "--all"
                                 ? "--all takes no figure ids"
                                 : "unknown figure '" + arg + "'");
            }
            selected.push_back(&*it);
        }
    }
    if (selected.empty())
        return usage("no figure requested");

    sim::SweepRunner sweep;
    std::vector<bench::Report> reports;
    for (const Figure *f : selected)
        reports.push_back(f->plan(sweep));

    const char *metrics_dir = std::getenv("SIPT_METRICS");
    int status = 0;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const bench::FigureTable table = reports[i]();
        table.print(std::cout);
        if (metrics_dir && *metrics_dir)
            table.writeJson(metrics_dir, selected[i]->id);
        if (!table.ok())
            status = 1;
    }
    std::cout.flush();
    sweep.printStats(std::cerr);
    if (sweep.stats().checkFailures != 0)
        status = 1;
    return status;
}
