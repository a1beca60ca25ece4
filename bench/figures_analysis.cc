/**
 * @file
 * The analysis figures: Fig. 1 (CACTI latency), the speculation
 * breakdowns of Figs. 5/9/12, and the predictor and
 * allocation-substrate ablations. Figs. 5/9/12 are sweep-engine
 * runs read through L1Stats; Fig. 1 and the ablations run as
 * self-contained tasks on the engine's pool, each owning its
 * address stream and predictor state.
 */

#include <algorithm>
#include <array>

#include "bench/figures.hh"
#include "common/bitops.hh"
#include "energy/cacti_model.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "predictor/combined.hh"
#include "predictor/counter.hh"
#include "predictor/perceptron.hh"
#include "workload/synthetic.hh"

namespace sipt::bench
{

namespace
{

/** Mean of column @p key over the rows for @p bits speculative
 *  bits; Figs. 9/12 print rows (app, 1..3 bits) app-major. */
double
meanOverBits(const FigureTable &t, const std::string &key,
             unsigned bits)
{
    const std::vector<double> &all = t.values(key);
    std::vector<double> rows;
    for (std::size_t i = bits - 1; i < all.size(); i += 3)
        rows.push_back(all[i]);
    return arithmeticMean(rows);
}

/** Share of @p n in @p refs references. */
double
frac(std::uint64_t n, std::uint64_t refs)
{
    return static_cast<double>(n) / static_cast<double>(refs);
}

/** The SIPT geometries with 1, 2 and 3 speculative index bits. */
constexpr std::array<sim::L1Config, 3> specBitConfigs = {
    sim::L1Config::Sipt32K4, sim::L1Config::Sipt32K2,
    sim::L1Config::Sipt128K4};

/**
 * Per figure app, @p policy's runs at 1, 2 and 3 speculative bits
 * (Figs. 5/9/12). Like the paper, the predictors are not warmed
 * up: with no warmup phase every misprediction counts. An app's
 * Bypass and Combined runs share one stream, so they run as one
 * group.
 */
std::vector<std::array<RunFuture, 3>>
planSpecBits(sim::SweepRunner &sweep, IndexingPolicy policy)
{
    std::vector<std::array<RunFuture, 3>> runs;
    for (const auto &app : apps()) {
        std::array<RunFuture, 3> &row = runs.emplace_back();
        for (std::size_t k = 0; k < specBitConfigs.size(); ++k) {
            sim::SystemConfig cfg;
            cfg.l1Config = specBitConfigs[k];
            cfg.policy = policy;
            cfg.warmupRefs = 0;
            cfg.measureRefs = measureRefs();
            row[k] = sweep.enqueue(app, cfg);
        }
    }
    return runs;
}

} // namespace

/**
 * Fig. 1 + Tab. I: L1 access latency (range and mean over
 * ports/banks sweeps) for each capacity/associativity point,
 * normalised to the 32 KiB 8-way baseline. The paper's point is
 * that the attractive low-latency points are all VIPT-infeasible
 * (way size > 4 KiB).
 */
Report
fig01(sim::SweepRunner &sweep)
{
    using energy::ArrayConfig;
    using energy::CactiModel;

    struct Row
    {
        double mn, mean, mx;
        Cycles cycles;
    };
    const auto latencies = [](std::uint64_t size, std::uint32_t assoc) {
        std::vector<double> lats;
        for (std::uint32_t ports : {1, 2}) {
            for (std::uint32_t banks : {1, 2, 4}) {
                lats.push_back(CactiModel::latencyRaw(
                    ArrayConfig{size, assoc, ports, banks}));
            }
        }
        return Row{*std::min_element(lats.begin(), lats.end()),
                   arithmeticMean(lats),
                   *std::max_element(lats.begin(), lats.end()),
                   CactiModel::latencyCycles(
                       ArrayConfig{size, assoc, 1, 1})};
    };
    const double base_mean = latencies(32 * 1024, 8).mean;

    // CACTI rows are cheap but independent; run them through the
    // engine anyway so every figure exercises the same path.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> points;
    std::vector<std::shared_future<Row>> rows;
    for (std::uint64_t kib : {16, 32, 64, 128}) {
        const std::uint64_t size = kib * 1024;
        for (std::uint32_t assoc : {2, 4, 8, 16, 32}) {
            if (size / assoc < 64)
                continue;
            points.emplace_back(size, assoc);
            rows.push_back(sweep.async(
                [latencies, size, assoc] {
                    return latencies(size, assoc);
                }));
        }
    }

    return [points, rows, base_mean] {
        FigureTable t("Fig. 1: L1 latency vs capacity/associativity "
                      "(normalised to 32KiB 8-way)",
                      "capacity",
                      {{"assoc", ""},
                       {"lat min", "latMin"},
                       {"lat mean", "latMean"},
                       {"lat max", "latMax"},
                       {"cycles", "cycles"},
                       {"VIPT-feasible", ""}});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto [size, assoc] = points[i];
            const Row &row = rows[i].get();
            const std::string capacity =
                std::to_string(size / 1024) + "KiB";
            t.row(capacity,
                  {std::uint64_t{assoc}, row.mn / base_mean,
                   row.mean / base_mean, row.mx / base_mean,
                   row.cycles,
                   std::string(size / assoc <= pageSize ? "yes" : "no")},
                  capacity + "." + std::to_string(assoc) + "way");
        }
        t.notes() << "\nPaper shape: associativity dominates latency "
                     "(sharply beyond 4 ways); the desirable "
                     "low-latency configs are VIPT-infeasible.\n";
        return t;
    };
}

/**
 * Fig. 5: fraction of accesses whose speculative index bits are
 * unchanged by translation (1-3 bits), plus the fraction of
 * accesses to transparently mapped huge pages ("hugepage (9-bit)"
 * in the paper). Read from Fig. 9's bypass runs: an unchanged
 * access is either a correct speculation or an opportunity loss.
 */
Report
fig05(sim::SweepRunner &sweep)
{
    return [runs = planSpecBits(sweep, IndexingPolicy::SiptBypass)] {
        const std::vector<std::string> keys = {
            "unchanged1", "unchanged2", "unchanged3", "huge"};
        FigureTable t("Fig. 5: correct (unchanged-bit) speculation "
                      "fraction vs speculative index bits",
                      "app",
                      {{"1-bit", keys[0]},
                       {"2-bit", keys[1]},
                       {"3-bit", keys[2]},
                       {"hugepage(9b)", keys[3]}});
        for (std::size_t a = 0; a < apps().size(); ++a) {
            std::vector<Cell> cells;
            for (const RunFuture &run : runs[a]) {
                const L1Stats &l1 = run.get().l1;
                cells.emplace_back(frac(l1.spec.correctSpeculation +
                                            l1.spec.opportunityLoss,
                                        l1.accesses));
            }
            const L1Stats &l1 = runs[a][0].get().l1;
            cells.emplace_back(frac(l1.hugeAccesses, l1.accesses));
            t.row(apps()[a], cells);
        }
        std::vector<Cell> avg;
        for (const auto &key : keys)
            avg.emplace_back(
                t.summary(key, arithmeticMean(t.values(key))));
        t.summaryRow("Average", avg);
        t.notes() << "\nPaper shape: most apps speculate correctly "
                     "with 1 bit; accuracy decays with more bits; a "
                     "handful of apps (deepsjeng_17, cactusADM, "
                     "calculix, graph500, ycsb, xalancbmk_17, "
                     "gromacs) are hostile even at 1 bit; "
                     "libquantum/GemsFDTD are hugepage-dominated.\n";
        return t;
    };
}

/**
 * Fig. 9: outcomes of the perceptron speculation-bypass predictor —
 * correct speculation, correct bypass, opportunity loss, extra
 * access — for 1, 2 and 3 speculative index bits.
 */
Report
fig09(sim::SweepRunner &sweep)
{
    return [runs = planSpecBits(sweep, IndexingPolicy::SiptBypass)] {
        FigureTable t("Fig. 9: bypass-perceptron outcome breakdown per "
                      "speculative bit count "
                      "(cSpec/cByp/oppLoss/extra)",
                      "app",
                      {{"bits", ""},
                       {"correctSpec", "correctSpec"},
                       {"correctBypass", "correctBypass"},
                       {"oppLoss", "oppLoss"},
                       {"extraAccess", "extraAccess"},
                       {"accuracy", "accuracy"}});
        for (std::size_t a = 0; a < apps().size(); ++a) {
            for (std::uint64_t k = 1; k <= 3; ++k) {
                const L1Stats &l1 = runs[a][k - 1].get().l1;
                const SpeculationStats &n = l1.spec;
                t.row(apps()[a],
                      {k, frac(n.correctSpeculation, l1.accesses),
                       frac(n.correctBypass, l1.accesses),
                       frac(n.opportunityLoss, l1.accesses),
                       frac(n.extraAccess, l1.accesses),
                       frac(n.correctSpeculation + n.correctBypass,
                            l1.accesses)},
                      apps()[a] + ".bits" + std::to_string(k));
            }
        }
        t.notes() << "\nAverage accuracy: 1-bit "
                  << t.summary("accuracy.bits1",
                               meanOverBits(t, "accuracy", 1))
                  << ", 2-bit "
                  << t.summary("accuracy.bits2",
                               meanOverBits(t, "accuracy", 2))
                  << ", 3-bit "
                  << t.summary("accuracy.bits3",
                               meanOverBits(t, "accuracy", 3))
                  << "\nPaper shape: >90% accuracy everywhere, few "
                     "extra accesses, negligible opportunity loss.\n";
        return t;
    };
}

/**
 * Fig. 12: accuracy of the combined bypass + IDB predictor for 1,
 * 2 and 3 speculative index bits, split into correct speculation
 * (perceptron said "unchanged" and was right) and IDB hits
 * (perceptron said "changed" and the IDB — or the 1-bit reversal —
 * supplied the right value); the rest are slow accesses with extra
 * L1 array reads.
 */
Report
fig12(sim::SweepRunner &sweep)
{
    return [runs = planSpecBits(sweep, IndexingPolicy::SiptCombined)] {
        FigureTable t("Fig. 12: combined predictor accuracy per "
                      "speculative bit count",
                      "app",
                      {{"bits", ""},
                       {"correctSpec", "correctSpec"},
                       {"idbHit", "idbHit"},
                       {"slow", "slow"},
                       {"fastTotal", "fast"}});
        for (std::size_t a = 0; a < apps().size(); ++a) {
            for (std::uint64_t k = 1; k <= 3; ++k) {
                const L1Stats &l1 = runs[a][k - 1].get().l1;
                const SpeculationStats &n = l1.spec;
                t.row(apps()[a],
                      {k, frac(n.correctSpeculation, l1.accesses),
                       frac(n.idbHit, l1.accesses),
                       frac(n.extraAccess, l1.accesses),
                       frac(n.correctSpeculation + n.idbHit,
                            l1.accesses)},
                      apps()[a] + ".bits" + std::to_string(k));
            }
        }
        t.notes() << "\nAverage fast fraction: 1-bit "
                  << t.summary("fast.bits1", meanOverBits(t, "fast", 1))
                  << ", 2-bit "
                  << t.summary("fast.bits2", meanOverBits(t, "fast", 2))
                  << ", 3-bit "
                  << t.summary("fast.bits3", meanOverBits(t, "fast", 3))
                  << "\nPaper shape: >90% fast with 1 bit; the "
                     "bypass-hostile apps (gcc, calculix, xz_17, "
                     "cactusADM, gromacs) recover to >70% fast via "
                     "the IDB.\n";
        return t;
    };
}

/**
 * Ablations the paper reports in passing (Secs. V-VI), at 2
 * speculative bits: counter-based bypass predictors are ~85%
 * accurate and inconsistent against >90% for the perceptron; the
 * perceptron is insensitive to table size / history length; the
 * IDB is what recovers the bypass-hostile applications (bypass-only
 * vs combined fast fraction).
 */
Report
ablationPredictors(sim::SweepRunner &sweep)
{
    constexpr unsigned specBits = 2;
    // Correct predictions of counter, perceptron, large perceptron;
    // bypass-only fast; combined fast.
    using Row = std::array<std::uint64_t, 5>;
    const auto app_list = sensitivityApps();
    std::vector<std::shared_future<Row>> rows;
    for (const auto &app : app_list) {
        rows.push_back(sweep.async([app, refs = halfRefs()] {
            // The stream a default-config engine run of the app
            // would consume.
            sim::SystemConfig config;
            config.warmupRefs = 0;
            config.measureRefs = refs;
            const sim::StreamSpec spec = sim::streamSpec(config);
            sim::ConditionedMemory memory(spec);
            sim::Stream stream(
                app, spec, memory.buddy,
                sim::coreSeed(sim::JobKind::Single, spec.seed, 0));
            predictor::CounterBypassPredictor counter;
            predictor::PerceptronBypassPredictor small_perc;
            predictor::PerceptronBypassPredictor large_perc(
                predictor::PerceptronParams{256, 24, 6, -1});
            predictor::CombinedIndexPredictor combined(specBits);
            Row n{};
            cpu::RefBatch batch;
            for (std::uint64_t done = 0; done < refs;) {
                stream.stages().fill(
                    batch,
                    std::min<std::uint64_t>(refs - done,
                                            cpu::RefBatch::capacity));
                if (batch.size == 0)
                    break;
                for (std::size_t i = 0; i < batch.size; ++i) {
                    const Addr pc = batch.pc[i];
                    const Vpn vpn = pageNumber(batch.vaddr[i]);
                    const Pfn pfn = pageNumber(batch.paddr[i]);
                    const bool unchanged = (vpn & mask(specBits)) ==
                                           (pfn & mask(specBits));
                    const bool s = small_perc.resolve(pc, unchanged);
                    n[0] += counter.resolve(pc, unchanged) == unchanged;
                    n[1] += s == unchanged;
                    n[2] += large_perc.resolve(pc, unchanged) ==
                            unchanged;
                    // Bypass-only is fast only on correct
                    // speculation.
                    n[3] += s && unchanged;
                    n[4] += combined.resolve(pc, vpn, pfn).bits ==
                            (pfn & mask(specBits));
                }
                done += batch.size;
            }
            return n;
        }));
    }

    return [app_list, rows, refs = halfRefs()] {
        const std::vector<std::string> keys = {
            "counter", "perceptron", "perceptronLarge", "bypassFast",
            "combinedFast"};
        FigureTable t("Ablation: predictor designs (2 speculative "
                      "bits)",
                      "app",
                      {{"counter2b", keys[0]},
                       {"perceptron", keys[1]},
                       {"perc 256e/24h", keys[2]},
                       {"bypass-only fast", keys[3]},
                       {"combined fast", keys[4]}});
        for (std::size_t a = 0; a < app_list.size(); ++a) {
            std::vector<Cell> cells;
            for (const std::uint64_t n : rows[a].get())
                cells.emplace_back(frac(n, refs));
            t.row(app_list[a], cells);
        }
        std::vector<Cell> means;
        for (const auto &key : keys)
            means.emplace_back(
                t.summary(key, arithmeticMean(t.values(key))));
        t.summaryRow("Mean", means);
        t.notes() << "\nPaper shape: counters ~85% and inconsistent; "
                     "perceptron >90% and insensitive to size; the "
                     "IDB converts bypassed accesses to fast ones.\n";
        return t;
    };
}

/**
 * Ablation: how the OS allocation substrate creates (or destroys)
 * index-bit predictability — the mechanism behind Sec. VI. Sweeps
 * the buddy allocator's maximum order and the paging policy (THP,
 * coloring, random placement) for one contiguity-sensitive app
 * (gcc, 2 speculative bits) and reports the unchanged-bit fraction
 * and combined-predictor fast fraction.
 */
Report
ablationContiguity(sim::SweepRunner &sweep)
{
    os::PagingPolicy thp;
    thp.thpChance = 0.9;
    os::PagingPolicy no_thp;
    no_thp.thpEnabled = false;
    os::PagingPolicy colored = no_thp;
    colored.coloringBits = 3;
    os::PagingPolicy random = no_thp;
    random.randomPlacement = true;

    struct Variant
    {
        const char *name;
        unsigned maxOrder;
        os::PagingPolicy pol;
    };
    const std::vector<Variant> variants = {
        {"buddy order 10 + THP 90%", 10, thp},
        {"buddy order 10, THP off", 10, no_thp},
        {"buddy order 4, THP off", 4, no_thp},
        {"buddy order 0 (no grouping)", 0, no_thp},
        {"page coloring (3 bits)", 10, colored},
        {"random placement", 10, random},
    };
    // Unchanged-bit and combined-fast fractions.
    using Row = std::array<double, 2>;
    std::vector<std::shared_future<Row>> rows;
    for (const auto &v : variants) {
        rows.push_back(sweep.async([v, refs = halfRefs()] {
            os::BuddyAllocator buddy((4ull << 30) / pageSize,
                                     v.maxOrder);
            Rng rng(7);
            os::SystemAger ager(buddy);
            ager.age(os::SystemAger::uptimeChurnOps,
                     os::SystemAger::uptimeResidentFraction, rng);
            os::AddressSpace as(buddy, v.pol, 8);
            workload::SyntheticWorkload wl(workload::appProfile("gcc"),
                                           as, 9);
            predictor::CombinedIndexPredictor combined(2);

            std::uint64_t unchanged = 0, fast = 0;
            MemRef ref;
            for (std::uint64_t i = 0; i < refs; ++i) {
                wl.next(ref);
                const Vpn vpn = ref.vaddr >> pageShift;
                const Pfn pfn =
                    as.pageTable().translate(ref.vaddr)->paddr >>
                    pageShift;
                unchanged += (vpn & mask(2)) == (pfn & mask(2));
                fast += combined.resolve(ref.pc, vpn, pfn).bits ==
                        (pfn & mask(2));
            }
            return Row{frac(unchanged, refs), frac(fast, refs)};
        }));
    }

    return [variants, rows] {
        FigureTable t("Ablation: allocation substrate vs "
                      "predictability (app = gcc, 2 speculative bits)",
                      "substrate",
                      {{"unchanged-bits", "unchanged2"},
                       {"combined fast", "combinedFast"}});
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const Row &row = rows[i].get();
            t.row(variants[i].name, {row[0], row[1]});
        }
        t.notes() << "\nShape: contiguity (high buddy order, THP) "
                     "and coloring raise raw unchanged-bit rates; "
                     "the IDB keeps fast rates high until placement "
                     "is truly random.\n";
        return t;
    };
}

} // namespace sipt::bench
