/**
 * @file
 * The quad-core figures: Tab. III + Fig. 15 (multiprogrammed
 * mixes) and its shared-page synonym extension. Both run the
 * mixes at half the measured references and half the footprint.
 */

#include <array>

#include "bench/figures.hh"

namespace sipt::bench
{

namespace
{

/** The quad-core baseline of both figures, on the OOO core. */
sim::SystemConfig
quadCoreBase()
{
    sim::SystemConfig base;
    base.outOfOrder = true;
    base.measureRefs = halfRefs();
    base.footprintScale = 0.5;
    return base;
}

/** Events per kilo-access; 0 without accesses. */
double
perKiloAccess(std::uint64_t events, std::uint64_t accesses)
{
    return accesses ? 1000.0 * static_cast<double>(events) /
                          static_cast<double>(accesses)
                    : 0.0;
}

} // namespace

/**
 * Tab. III + Fig. 15: sum-of-IPC speedup of SIPT+IDB for all four
 * SIPT L1 configurations over the quad core with the baseline L1,
 * plus extra L1 accesses and cache-hierarchy energy at 32 KiB
 * 2-way, per mix and on average.
 */
Report
fig15(sim::SweepRunner &sweep)
{
    const auto &mixes = workload::multicoreMixes();
    // Per mix: the baseline, then one run per SIPT config.
    std::vector<std::vector<MultiFuture>> runs;
    for (const auto &mix : mixes) {
        const sim::SystemConfig base = quadCoreBase();
        runs.push_back({sweep.enqueueMulticore(mix, base)});
        for (const auto cfg_id : sim::siptConfigs()) {
            sim::SystemConfig cfg = base;
            cfg.l1Config = cfg_id;
            cfg.policy = IndexingPolicy::SiptCombined;
            runs.back().push_back(sweep.enqueueMulticore(mix, cfg));
        }
    }

    return [runs] {
        const auto &cfgs = sim::siptConfigs();
        const std::vector<std::string> names = {"32K2w", "32K4w",
                                                "64K4w", "128K4w"};
        std::vector<Column> columns;
        for (const auto &name : names)
            columns.push_back({name, "speedup." + name});
        columns.push_back({"extraAcc(32K2w)", "extraAccess"});
        columns.push_back({"energy(32K2w)", "energy"});
        FigureTable t("Fig. 15: SIPT+IDB on an OOO quad core (Tab. III "
                      "mixes; sum-of-IPC speedup, extra accesses, "
                      "energy)",
                      "mix", columns);
        for (std::size_t m = 0; m < runs.size(); ++m) {
            const auto &base = runs[m][0].get();
            std::vector<Cell> cells;
            double extra = 0.0, energy = 0.0;
            for (std::size_t c = 0; c < cfgs.size(); ++c) {
                const auto &r = runs[m][c + 1].get();
                cells.emplace_back(r.sumIpc / base.sumIpc);
                if (cfgs[c] != sim::L1Config::Sipt32K2)
                    continue;
                std::uint64_t acc = 0, acc_base = 0;
                for (std::size_t k = 0; k < r.perCore.size(); ++k) {
                    acc += r.perCore[k].l1.arrayAccesses;
                    acc_base += base.perCore[k].l1.arrayAccesses;
                }
                extra = static_cast<double>(acc) /
                            static_cast<double>(acc_base) -
                        1.0;
                energy = r.energy.total() / base.energy.total();
            }
            cells.emplace_back(extra);
            cells.emplace_back(energy);
            t.row("mix" + std::to_string(m), cells);
        }
        std::vector<Cell> means;
        for (const auto &c : columns) {
            means.emplace_back(t.summary(
                "mean." + c.key, arithmeticMean(t.values(c.key))));
        }
        t.summaryRow("Average", means);
        t.notes() << "\nPaper shape: 32KiB 2-way performs best, "
                     "+8.1% average sum-of-IPC; total cache energy "
                     "-15.6%; mix-to-mix variability is lower than "
                     "app-to-app.\n";
        return t;
    };
}

/**
 * Fig. 15 extension: quad-core mixes with shared-page synonyms.
 *
 * The paper's correctness argument (Sec. III) is that SIPT keeps
 * lines under their physical set with full physical tags, so
 * synonyms need no extra machinery. This figure puts that claim
 * under multiprogrammed load: mixes where cores map the same
 * physical segment at different virtual bases (including a 2 MiB
 * huge-page variant), plus per-core COW and alias scenarios.
 *
 * Three numbers per mix:
 *  - sum-of-IPC speedup of SIPT+IDB (32 KiB 2-way) over the
 *    baseline L1, as in Fig. 15 — synonym traffic must not erode
 *    the speedup;
 *  - VIVT strawman invalidations per kilo-access: the reverse-map
 *    bookkeeping a virtually tagged L1 (Desai & Deshmukh, arXiv
 *    2108.00444) would have needed for the same stream, counted in
 *    lockstep by the checker. Nonzero on every synonym mix, zero
 *    machinery in SIPT;
 *  - check failures: cores with a recorded failure in any of the
 *    three runs — golden-model divergences, and the engine's
 *    functional-oracle mismatches between SiptCombined and Ideal,
 *    which share one stream and one L1 geometry.
 *    Must be zero — synonyms are free *and* correct; any failure
 *    fails the figure.
 */
Report
fig15syn(sim::SweepRunner &sweep)
{
    const std::vector<std::vector<std::string>> mixes = {
        // Two cores sharing one segment beside two figure apps.
        {"synonym:shared-a2-k1", "synonym:shared-a2-k1", "mcf",
         "gcc"},
        // All four cores over the same shared segment, skewed.
        {"synonym:shared-a4-k2", "synonym:shared-a4-k2",
         "synonym:shared-a4-k2", "synonym:shared-a4-k2"},
        // Huge-page shared segment (chunk-granular skew).
        {"synonym:shared-a2-k1-huge", "synonym:shared-a2-k1-huge",
         "xalancbmk_17", "ycsb"},
        // Per-core private multi-mappings: fork-style COW and
        // mmap aliasing beside figure apps.
        {"synonym:cow-a3-k1", "synonym:alias-a2-k3", "mcf",
         "omnetpp"},
    };

    // Checking stays on for every run so the golden model and the
    // VIVT strawman ride along; `check` is part of the memo key,
    // so these never collide with unchecked Fig. 15 entries.
    sim::SystemConfig base = quadCoreBase();
    base.check = true;
    sim::SystemConfig sipt = base;
    sipt.l1Config = sim::L1Config::Sipt32K2;
    sipt.policy = IndexingPolicy::SiptCombined;
    sim::SystemConfig ideal = sipt;
    ideal.policy = IndexingPolicy::Ideal;

    std::vector<std::array<MultiFuture, 3>> runs;
    for (const auto &mix : mixes) {
        runs.push_back({sweep.enqueueMulticore(mix, base),
                        sweep.enqueueMulticore(mix, sipt),
                        sweep.enqueueMulticore(mix, ideal)});
    }

    return [runs] {
        FigureTable t("Fig. 15 (synonyms): SIPT+IDB quad core with "
                      "shared-page mixes (speedup, VIVT strawman "
                      "bookkeeping, check)",
                      "mix",
                      {{"speedup", "speedup"},
                       {"vivtInval/kAcc", "vivtInvalPerKiloAccess", 2},
                       {"dirtyFwd/kAcc", "vivtDirtyFwdPerKiloAccess",
                        2},
                       {"checkFailures", "checkFailures"}});
        std::uint64_t total_failures = 0;
        for (std::size_t m = 0; m < runs.size(); ++m) {
            const auto &r_base = runs[m][0].get();
            const auto &r_sipt = runs[m][1].get();
            const auto &r_ideal = runs[m][2].get();

            std::uint64_t failures = 0, accesses = 0, invals = 0,
                          forwards = 0;
            for (std::size_t c = 0; c < r_sipt.perCore.size(); ++c) {
                const auto &sipt_core = r_sipt.perCore[c];
                const auto &ideal_core = r_ideal.perCore[c];
                accesses += sipt_core.l1.accesses;
                invals += sipt_core.vivtInvalidations;
                forwards += sipt_core.vivtDirtyForwards;
                if (!sipt_core.checkFailure.empty() ||
                    !ideal_core.checkFailure.empty() ||
                    !r_base.perCore[c].checkFailure.empty()) {
                    ++failures;
                }
            }
            total_failures += failures;
            t.row("mix" + std::to_string(m),
                  {r_sipt.sumIpc / r_base.sumIpc,
                   perKiloAccess(invals, accesses),
                   perKiloAccess(forwards, accesses), failures});
        }
        t.summaryRow(
            "Summary",
            {t.summary("hmeanSpeedup",
                       harmonicMean(t.values("speedup"))),
             t.summary("vivtInvalPerKiloAccess",
                       arithmeticMean(
                           t.values("vivtInvalPerKiloAccess"))),
             "", t.summary("checkFailures", total_failures)});
        if (total_failures != 0)
            t.fail();
        t.notes() << "\nPaper shape: synonym-heavy mixes keep the "
                     "Fig. 15 speedup (physical sets + physical tags "
                     "make synonyms a non-event), while a VIVT L1 "
                     "would have paid nonzero reverse-map "
                     "invalidations on every shared mix.\n";
        return t;
    };
}

} // namespace sipt::bench
