/**
 * @file
 * Extension figures beyond the paper's own: the VESPA / Revelator /
 * PCAX policy pack (Figs. 13x/14x, which enqueue identical job
 * sets), Fig. 13 reproduced from recorded traces, and SIPT for the
 * L1 instruction cache.
 */

#include <array>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "bench/figures.hh"
#include "common/logging.hh"
#include "cpu/trace_source.hh"
#include "os/address_space.hh"
#include "sim/presets.hh"
#include "workload/instruction_stream.hh"

namespace sipt::bench
{

namespace
{

/** One x-axis row of the policy pack. mixedHuge marks the
 *  partial-THP applications whose huge-page replays feed the
 *  fast-gain summary; hugeHeavy marks rows with near-total 2 MiB
 *  coverage, where the gated predictor-read saving is maximal. */
struct PackRow
{
    const char *app;
    bool mixedHuge;
    bool hugeHeavy;
};

// Partial-THP applications (where the combined predictor provably
// wastes replays on huge pages) and 2 MiB-backed synonym streams
// (all-huge translation).
const PackRow kPackRows[] = {
    {"mcf", true, false},
    {"gcc", true, false},
    {"graph500", true, false},
    {"ycsb", true, false},
    {"libquantum", false, true},
    {"GemsFDTD", false, true},
    {"synonym:shared-huge", false, true},
    {"synonym:shared-a4-k2-huge", false, true},
};

/** Per pack row: the baseline, then combined, VESPA, Revelator and
 *  PCAX at 32 KiB / 2-way / 2-cycle on the OOO core. */
std::vector<std::array<RunFuture, 5>>
planPolicyPack(sim::SweepRunner &sweep)
{
    const IndexingPolicy policies[] = {
        IndexingPolicy::SiptCombined, IndexingPolicy::SiptVespa,
        IndexingPolicy::SiptRevelator, IndexingPolicy::SiptPcax};
    std::vector<std::array<RunFuture, 5>> runs;
    for (const PackRow &row : kPackRows) {
        sim::SystemConfig base;
        base.outOfOrder = true;
        base.measureRefs = measureRefs();

        std::array<RunFuture, 5> f;
        f[0] = sweep.enqueue(row.app, base);
        for (std::size_t p = 0; p < 4; ++p) {
            sim::SystemConfig cfg = base;
            cfg.l1Config = sim::L1Config::Sipt32K2;
            cfg.policy = policies[p];
            f[p + 1] = sweep.enqueue(row.app, cfg);
        }
        runs.push_back(f);
    }
    return runs;
}

/** An instruction stream with the fetch-page PC rewrite: the
 *  predictors are indexed by the fetch page instead of the fetch
 *  chunk. */
class FetchPagePc : public cpu::TraceSource
{
  public:
    explicit FetchPagePc(std::unique_ptr<cpu::TraceSource> fetch)
        : fetch_(std::move(fetch))
    {
    }

    bool
    next(MemRef &ref) override
    {
        if (!fetch_->next(ref))
            return false;
        ref.pc = (ref.vaddr >> pageShift) << 2;
        return true;
    }

  private:
    std::unique_ptr<cpu::TraceSource> fetch_;
};

} // namespace

/**
 * Fig. 13x: IPC of the translation-aware policy pack — SIPT+IDB
 * (combined), VESPA-gated combined, Revelator's hashed translation
 * table and PCAX's PC-indexed delta predictor — normalised to the
 * baseline, plus a THP-off control under which the VESPA gate never
 * fires and the policy must be bit-identical to combined.
 */
Report
fig13x(sim::SweepRunner &sweep)
{
    auto runs = planPolicyPack(sweep);

    sim::SystemConfig thp_off;
    thp_off.outOfOrder = true;
    thp_off.measureRefs = measureRefs();
    thp_off.l1Config = sim::L1Config::Sipt32K2;
    thp_off.condition = sim::MemCondition::ThpOff;
    thp_off.policy = IndexingPolicy::SiptCombined;
    auto thp_comb = sweep.enqueue("mcf", thp_off);
    thp_off.policy = IndexingPolicy::SiptVespa;
    auto thp_vespa = sweep.enqueue("mcf", thp_off);

    return [runs, thp_comb, thp_vespa] {
        FigureTable t("Fig. 13x: VESPA / Revelator / PCAX policy pack, "
                      "32KiB/2-way/2-cycle, OOO (normalised IPC)",
                      "app",
                      {{"comb", "combinedIpc"},
                       {"vespa", "vespaIpc"},
                       {"revel", "revelatorIpc"},
                       {"pcax", "pcaxIpc"},
                       {"vespaGain", "vespaFastGain"},
                       {"hugeRepl", "combinedHugeReplays"}});
        std::uint64_t vespa_huge_bad = 0, comb_huge_bad = 0;
        std::vector<double> gains_huge;
        for (std::size_t a = 0; a < std::size(kPackRows); ++a) {
            const double base_ipc = runs[a][0].get().ipc;
            const auto &comb = runs[a][1].get();
            const auto &vespa = runs[a][2].get();
            const double gain = vespa.fastFraction - comb.fastFraction;
            vespa_huge_bad +=
                vespa.l1.hugeReplays + vespa.l1.hugeBypassLosses;
            comb_huge_bad +=
                comb.l1.hugeReplays + comb.l1.hugeBypassLosses;
            if (kPackRows[a].mixedHuge)
                gains_huge.push_back(gain);
            t.row(kPackRows[a].app,
                  {comb.ipc / base_ipc, vespa.ipc / base_ipc,
                   runs[a][3].get().ipc / base_ipc,
                   runs[a][4].get().ipc / base_ipc, gain,
                   comb.l1.hugeReplays});
        }
        t.summaryRow(
            "Hmean",
            {t.summary("hmeanCombined",
                       harmonicMean(t.values("combinedIpc"))),
             t.summary("hmeanVespa", harmonicMean(t.values("vespaIpc"))),
             t.summary("hmeanRevelator",
                       harmonicMean(t.values("revelatorIpc"))),
             t.summary("hmeanPcax", harmonicMean(t.values("pcaxIpc"))),
             t.summary("meanVespaFastGain",
                       arithmeticMean(t.values("vespaFastGain"))),
             ""});
        t.summary("vespaFastGainHuge", arithmeticMean(gains_huge));
        // The claims read these two counts as values.
        const auto count = [&t](const char *key, std::uint64_t n) {
            return static_cast<std::uint64_t>(
                t.summary(key, static_cast<double>(n)));
        };
        t.notes() << "\nTHP off (mcf): vespa IPC - combined IPC = "
                  << t.summary("thpOffVespaMinusCombined",
                               thp_vespa.get().ipc - thp_comb.get().ipc)
                  << " (gate inert, must be 0)\n"
                  << "vespa huge replays+bypass losses: "
                  << count("vespaHugeBad", vespa_huge_bad)
                  << " (gate, must be 0); "
                  << "combined: " << count("combinedHugeBad", comb_huge_bad)
                  << "\n"
                  << "\nExpected shape: vespa >= combined on "
                     "partial-THP apps (the gate converts their "
                     "huge-page replays into fast accesses), "
                     "identical under THP off; revelator/pcax track "
                     "combined within a few percent.\n";
        return t;
    };
}

/**
 * Fig. 14x: cache-hierarchy energy of the policy pack normalised to
 * the baseline. The VESPA gate skips the predictor read entirely on
 * huge-page accesses, so on huge-page-heavy rows its L1 dynamic
 * energy must sit measurably below combined's (predictor-read
 * fraction plus the replays it no longer pays for).
 */
Report
fig14x(sim::SweepRunner &sweep)
{
    return [runs = planPolicyPack(sweep)] {
        FigureTable t("Fig. 14x: VESPA / Revelator / PCAX policy pack "
                      "energy, 32KiB/2-way (normalised to baseline)",
                      "app",
                      {{"comb E", "combinedEnergy"},
                       {"vespa E", "vespaEnergy"},
                       {"revel E", "revelatorEnergy"},
                       {"pcax E", "pcaxEnergy"},
                       {"dynSave", "vespaL1DynSaving", 4}});
        std::vector<double> savings_huge;
        for (std::size_t a = 0; a < std::size(kPackRows); ++a) {
            const double base_total = runs[a][0].get().energy.total();
            const auto &comb = runs[a][1].get().energy;
            const auto &vespa = runs[a][2].get().energy;
            // Relative L1 dynamic-energy saving of the gate over
            // combined on the same row.
            const double dyn_save =
                (comb.l1Dynamic - vespa.l1Dynamic) / comb.l1Dynamic;
            if (kPackRows[a].hugeHeavy)
                savings_huge.push_back(dyn_save);
            t.row(kPackRows[a].app,
                  {comb.total() / base_total, vespa.total() / base_total,
                   runs[a][3].get().energy.total() / base_total,
                   runs[a][4].get().energy.total() / base_total,
                   dyn_save});
        }
        t.summaryRow(
            "Mean",
            {t.summary("meanCombined",
                       arithmeticMean(t.values("combinedEnergy"))),
             t.summary("meanVespa",
                       arithmeticMean(t.values("vespaEnergy"))),
             t.summary("meanRevelator",
                       arithmeticMean(t.values("revelatorEnergy"))),
             t.summary("meanPcax",
                       arithmeticMean(t.values("pcaxEnergy"))),
             ""});
        t.summary("vespaL1DynSavingHuge", arithmeticMean(savings_huge));
        t.notes() << "\nExpected shape: all four policies land in the "
                     "fig. 14 energy band; vespa strictly below "
                     "combined on the huge-page-heavy rows (gated "
                     "predictor reads are free).\n";
        return t;
    };
}

/**
 * Trace-driven Fig. 13: records each app's reference stream and
 * VA->PA layout to a trace file (the paper's Macsim methodology)
 * in SIPT_TRACE_DIR (default ./trace-bench), then reproduces the
 * SIPT+IDB comparison from the files via "trace:<path>" apps. The
 * replayed run's functional-event digest must equal the live run's
 * (SIPT_CHECK harness), or the figure fails. A final line replays
 * four recorded traces on the Fig. 15 quad-core model.
 */
Report
trace13(sim::SweepRunner &sweep)
{
    const std::vector<std::string> app_list = {
        "mcf", "h264ref", "gcc", "libquantum", "gromacs", "graph500"};

    std::string dir = "trace-bench";
    if (const char *env = std::getenv("SIPT_TRACE_DIR"))
        dir = env;
    std::filesystem::create_directories(dir);

    // The recording config: the stream depends only on workload
    // identity (app, seed, condition, footprint), never on the
    // cache design points compared below.
    sim::SystemConfig base;
    base.outOfOrder = true;
    base.measureRefs = measureRefs();

    // Record every trace; a replay's run key hashes the file, so
    // the replay jobs are enqueued once the recordings exist.
    std::vector<std::shared_future<std::string>> recordings;
    for (const auto &app : app_list) {
        recordings.push_back(sweep.async([=] {
            const std::string path = dir + "/" + app + ".sipttrace";
            sim::recordTrace(app, base, path);
            return path;
        }));
    }

    sim::SystemConfig sipt_cfg = base;
    sipt_cfg.l1Config = sim::L1Config::Sipt32K2;
    sipt_cfg.policy = IndexingPolicy::SiptCombined;
    sipt_cfg.check = true;

    std::vector<std::array<RunFuture, 3>> runs;
    std::vector<std::string> mix;
    for (std::size_t a = 0; a < app_list.size(); ++a) {
        const std::string trace = "trace:" + recordings[a].get();
        runs.push_back({sweep.enqueue(app_list[a], base),
                        sweep.enqueue(app_list[a], sipt_cfg),
                        sweep.enqueue(trace, sipt_cfg)});
        if (mix.size() < 4)
            mix.push_back(trace);
    }
    auto multi = sweep.enqueueMulticore(mix, base);

    return [app_list, runs, mix, multi] {
        FigureTable t("Trace replay: Fig. 13 SIPT+IDB from recorded "
                      "traces (live-vs-replay fidelity + "
                      "multi-program replay)",
                      "app",
                      {{"SIPT IPC", "liveIpc"},
                       {"replay IPC", "replayIpc"},
                       {"fidelity", "fidelity"},
                       {"digest", ""}});
        bool all_match = true;
        for (std::size_t a = 0; a < app_list.size(); ++a) {
            const double base_ipc = runs[a][0].get().ipc;
            const auto &live = runs[a][1].get();
            const auto &replay = runs[a][2].get();
            const bool digest_ok = live.checkDigest == replay.checkDigest &&
                                   live.checkDigest != 0 &&
                                   live.checkFailure.empty() &&
                                   replay.checkFailure.empty();
            all_match = all_match && digest_ok;
            t.row(app_list[a],
                  {live.ipc / base_ipc, replay.ipc / base_ipc,
                   (replay.ipc / base_ipc) / (live.ipc / base_ipc),
                   std::string(digest_ok ? "match" : "DIVERGED")});
        }
        const double live =
            t.summary("hmeanLive", harmonicMean(t.values("liveIpc")));
        const double replay = t.summary(
            "hmeanReplay", harmonicMean(t.values("replayIpc")));
        t.summaryRow("Hmean",
                     {live, replay, t.summary("fidelity", replay / live),
                      std::string(all_match ? "match" : "DIVERGED")});
        t.summary("allDigestsMatch", all_match ? 1.0 : 0.0);
        t.notes() << "\nQuad-core trace replay (" << mix.size()
                  << " traces): sum-IPC = "
                  << t.summary("multicoreSumIpc", multi.get().sumIpc)
                  << "\n";
        if (!all_match) {
            t.fail();
            t.notes() << "ERROR: replay diverged from live run\n";
        } else {
            t.notes() << "\nEvery replayed run is digest-identical to "
                         "its live counterpart; the Fig. 13 comparison "
                         "survives the trace round-trip.\n";
        }
        return t;
    };
}

/**
 * Extension: SIPT for the L1 *instruction* cache — the paper's
 * future-work hypothesis (Sec. III): instruction working sets are
 * small and I-TLB hit rates high, so speculative index bits should
 * be at least as predictable as on the D-side.
 *
 * For small-text and large-text code profiles this measures the
 * I-TLB hit rate, the 2-bit unchanged fraction and the combined
 * predictor's fast fraction on an I-side SIPT cache (32 KiB 2-way),
 * under two predictor-indexing choices: the raw fetch-chunk address
 * (the D-side analogue — aliases badly because hot code has
 * thousands of chunks) and the fetch *page* (deltas are per-page
 * properties, and the hot page set is tiny). Each row is two
 * engine runs over one fetch stream, SIPT-naive and SIPT-combined,
 * on this pool task's thread; every value they give is functional.
 */
Report
extIcache(sim::SweepRunner &sweep)
{
    // ITLB hit, unchanged 2 bits, fast, I$ hit, extra accesses;
    // and the first failure either run recorded, or empty.
    struct Row
    {
        std::array<double, 5> values;
        std::string checkFailure;
    };
    std::vector<std::string> labels, keys, indexing;
    std::vector<std::shared_future<Row>> rows;
    for (const bool page_indexed : {false, true}) {
        for (const auto &profile : {workload::smallCodeProfile(),
                                    workload::largeCodeProfile()}) {
            labels.push_back(profile.name);
            indexing.push_back(page_indexed ? "fetch-page"
                                            : "fetch-chunk");
            keys.push_back(profile.name + "." + indexing.back());
            rows.push_back(sweep.async([page_indexed, profile,
                                        refs = measureRefs()] {
                sim::SystemConfig config;
                config.l1Config = sim::L1Config::Sipt32K2;
                config.warmupRefs = 0;
                config.measureRefs = refs;
                config.seed = 21;
                sim::ConditionedMemory memory(sim::streamSpec(config));
                os::PagingPolicy pol;
                pol.thpChance = profile.thpAffinity;
                sim::Workload fetch;
                fetch.as = std::make_unique<os::AddressSpace>(
                    memory.buddy, pol, 22);
                fetch.source =
                    std::make_unique<workload::InstructionStream>(
                        profile, *fetch.as, 23);
                if (page_indexed) {
                    fetch.source = std::make_unique<FetchPagePc>(
                        std::move(fetch.source));
                }
                sim::Stream stream(std::move(fetch));
                sim::Stream *const streams[] = {&stream};

                // Naive speculates iff the 2 index bits survive
                // translation, so its fast fraction is the
                // unchanged fraction. The figure runs as a pool
                // task, so its machines run on this thread.
                std::vector<sim::SystemConfig> configs(2, config);
                configs[0].policy = IndexingPolicy::SiptNaive;
                configs[1].policy = IndexingPolicy::SiptCombined;
                const auto results = sim::runOnStreams(
                    sim::JobKind::Single, streams, {profile.name},
                    configs, nullptr, sim::Overlap::Inline);
                const sim::RunResult &naive = results[0].perCore[0];
                const sim::RunResult &combined =
                    results[1].perCore[0];
                return Row{{combined.dtlbHitRate, naive.fastFraction,
                            combined.fastFraction, combined.l1HitRate,
                            static_cast<double>(
                                combined.l1.extraArrayAccesses) /
                                static_cast<double>(
                                    combined.l1.accesses)},
                           naive.checkFailure.empty()
                               ? combined.checkFailure
                               : naive.checkFailure};
            }));
        }
    }

    return [labels, keys, indexing, rows] {
        FigureTable t("Extension: SIPT-I (instruction-cache SIPT, "
                      "32KiB/2-way, combined predictor)",
                      "code profile",
                      {{"indexing", ""},
                       {"ITLB hit", "itlbHit", 4},
                       {"unchanged 2b", "unchanged2"},
                       {"fast (combined)", "fast"},
                       {"I$ hit", "hit"},
                       {"extraAcc", "extraAccess", 4}});
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto &[row, failure] = rows[i].get();
            t.row(labels[i],
                  {indexing[i], row[0], row[1], row[2], row[3], row[4]},
                  keys[i]);
            // Checked runs (SIPT_CHECK=1) fail the figure on any
            // recorded golden-model or writeback failure.
            if (!failure.empty()) {
                warn("ext_icache: ", keys[i], ": ", failure);
                t.fail();
            }
        }
        t.notes() << "\nHypothesis check: fast fractions should be "
                     "at or above the D-side Fig. 12 average "
                     "(~0.92 at 2 bits), with near-perfect I-TLB "
                     "hit rates.\n";
        return t;
    };
}

} // namespace sipt::bench
