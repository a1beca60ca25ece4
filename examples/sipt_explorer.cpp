/**
 * @file
 * A command-line experiment driver over the full public API:
 * choose an application, L1 configuration, indexing policy,
 * memory condition, core type, and options, and get the metrics
 * (optionally as CSV for scripting).
 *
 * Usage:
 *   sipt_explorer [--app NAME]
 *                 [--l1 baseline32k8|small16k4|sipt32k2|sipt32k4|
 *                       sipt64k4|sipt128k4]
 *                 [--policy vipt|ideal|naive|bypass|combined|
 *                           vespa|revelator|pcax]
 *                 [--inorder] [--waypred] [--radix-walker]
 *                 [--condition normal|fragmented|thp-off|no-contig]
 *                 [--refs N] [--seed N] [--csv]
 *
 * The L1, policy and condition names are sim's vocabulary
 * (sim::l1ConfigFromName, policyFromName, conditionFromName); the
 * L1 and condition names are the ones sipt-trace accepts.
 */

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/env.hh"
#include "common/table.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

namespace
{

using namespace sipt;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: sipt_explorer [--app NAME] [--l1 CFG] "
           "[--policy P] [--inorder]\n"
           "                     [--waypred] [--radix-walker] "
           "[--condition C]\n"
           "                     [--refs N] [--seed N] [--csv] "
           "[--list-apps]\n";
    std::exit(2);
}

/** Strict flag values; a missing or bad one exits with usage. */
const FlagParser flags{"sipt_explorer", []() -> int { usage(); }};

/** The value a sim name parser returned, or exit with usage. */
template <typename T>
T
parseName(std::optional<T> parsed, const std::string &flag,
          const std::string &name)
{
    if (!parsed) {
        std::cerr << "sipt_explorer: unknown " << flag << " '"
                  << name << "'\n";
        usage();
    }
    return *parsed;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app = "mcf";
    sim::SystemConfig cfg;
    cfg.l1Config = sim::L1Config::Sipt32K2;
    cfg.policy = IndexingPolicy::SiptCombined;
    cfg.measureRefs = sim::defaultMeasureRefs();
    bool csv = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--app") {
            app = flags.value(argc, argv, i);
        } else if (arg == "--l1") {
            const std::string name = flags.value(argc, argv, i);
            cfg.l1Config =
                parseName(sim::l1ConfigFromName(name), arg, name);
        } else if (arg == "--policy") {
            const std::string name = flags.value(argc, argv, i);
            cfg.policy =
                parseName(sim::policyFromName(name), arg, name);
        } else if (arg == "--condition") {
            const std::string name = flags.value(argc, argv, i);
            cfg.condition =
                parseName(sim::conditionFromName(name), arg, name);
        } else if (arg == "--inorder") {
            cfg.outOfOrder = false;
        } else if (arg == "--waypred") {
            cfg.wayPrediction = true;
        } else if (arg == "--radix-walker") {
            cfg.radixWalker = true;
        } else if (arg == "--refs") {
            cfg.measureRefs =
                flags.u64(argc, argv, i, 1, sim::maxRefs);
        } else if (arg == "--seed") {
            cfg.seed =
                flags.u64(argc, argv, i, 0, ~std::uint64_t{0});
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--list-apps") {
            for (const auto &name : workload::allApps())
                std::cout << name << '\n';
            return 0;
        } else {
            usage();
        }
    }

    const auto r = sim::runSingleCore(app, cfg);

    if (csv) {
        sim::writeCsv(std::cout,
                      {{"explorer",
                        std::string(sim::l1ConfigName(
                            cfg.l1Config)) +
                            "/" + policyName(cfg.policy),
                        r}});
        return 0;
    }

    std::cout << app << " on " << sim::l1ConfigName(cfg.l1Config)
              << " (" << policyName(cfg.policy) << ", "
              << (cfg.outOfOrder ? "OOO" : "in-order") << ", "
              << sim::conditionName(cfg.condition) << ")\n\n";
    TextTable t({"metric", "value"});
    auto row = [&](const char *name, double v, int prec = 3) {
        t.beginRow();
        t.add(name);
        t.add(v, prec);
    };
    row("IPC", r.ipc);
    row("L1 hit rate", r.l1HitRate);
    row("L1 MPKI", r.l1Mpki, 1);
    row("fast-access fraction", r.fastFraction);
    row("extra array accesses",
        static_cast<double>(r.l1.extraArrayAccesses));
    row("huge-page coverage", r.hugeCoverage);
    row("huge accesses", static_cast<double>(r.l1.hugeAccesses),
        0);
    row("huge replays", static_cast<double>(r.l1.hugeReplays), 0);
    row("huge bypass losses",
        static_cast<double>(r.l1.hugeBypassLosses), 0);
    row("D-TLB hit rate", r.dtlbHitRate, 4);
    row("page walks", static_cast<double>(r.pageWalks), 0);
    row("energy (uJ)", r.energy.total() / 1000.0, 1);
    row("dynamic energy (uJ)",
        r.energy.dynamicTotal() / 1000.0, 1);
    if (cfg.wayPrediction)
        row("way-pred accuracy", r.wayPredAccuracy);
    t.print(std::cout);
    return 0;
}
