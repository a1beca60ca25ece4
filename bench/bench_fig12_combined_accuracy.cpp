/**
 * @file
 * Fig. 12: accuracy of the combined bypass + IDB predictor when
 * predicting 1, 2, and 3 speculative index bits. Bars split into
 * correct speculation (perceptron said "unchanged" and was right)
 * and IDB hits (perceptron said "changed" and the IDB — or the
 * 1-bit reversal — supplied the right value); the remainder are
 * slow accesses with extra L1 array reads.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/bitops.hh"
#include "common/table.hh"
#include "predictor/combined.hh"

int
main()
{
    using namespace sipt;

    bench::figureHeader(
        "Fig. 12: combined predictor accuracy per speculative "
        "bit count");

    const std::uint64_t refs = bench::measureRefs();
    TextTable t({"app", "bits", "correctSpec", "idbHit", "slow",
                 "fastTotal"});

    // One self-contained task per (app, bit count) on the sweep
    // engine's pool; rows print in submission order.
    struct Row
    {
        double cSpec, idbHit, slow, fast;
    };
    std::vector<std::shared_future<Row>> rows;
    for (const auto &app : bench::apps()) {
        for (unsigned k = 1; k <= 3; ++k) {
            rows.push_back(bench::sweep().async([app, k, refs] {
                bench::TraceLab lab(app);
                predictor::CombinedIndexPredictor combined(k);
                std::uint64_t c_spec = 0, idb_hit = 0, slow = 0;
                MemRef ref;
                for (std::uint64_t i = 0; i < refs; ++i) {
                    lab.next(ref);
                    const Vpn vpn = ref.vaddr >> pageShift;
                    const Pfn pfn = lab.pfnOf(ref.vaddr);
                    const auto pa_bits =
                        static_cast<std::uint32_t>(pfn &
                                                   mask(k));
                    const auto pred =
                        combined.resolve(ref.pc, vpn, pfn);
                    if (pred.bits == pa_bits) {
                        if (pred.source ==
                            predictor::IndexSource::VaBits) {
                            ++c_spec;
                        } else {
                            ++idb_hit;
                        }
                    } else {
                        ++slow;
                    }
                }
                const auto frac = [&](std::uint64_t n) {
                    return static_cast<double>(n) /
                           static_cast<double>(refs);
                };
                return Row{frac(c_spec), frac(idb_hit),
                           frac(slow),
                           frac(c_spec + idb_hit)};
            }));
        }
    }

    bench::FigureMetrics fm("fig12");
    std::vector<double> avg_fast(3, 0.0);
    std::size_t i = 0;
    for (const auto &app : bench::apps()) {
        for (unsigned k = 1; k <= 3; ++k) {
            const Row row = rows[i++].get();
            t.beginRow();
            t.add(app);
            t.add(std::uint64_t{k});
            t.add(row.cSpec, 3);
            t.add(row.idbHit, 3);
            t.add(row.slow, 3);
            t.add(row.fast, 3);
            avg_fast[k - 1] += row.fast;
            const std::string prefix = "apps." + app + ".bits" +
                                       std::to_string(k) + ".";
            fm.value(prefix + "correctSpec", row.cSpec);
            fm.value(prefix + "idbHit", row.idbHit);
            fm.value(prefix + "slow", row.slow);
            fm.value(prefix + "fast", row.fast);
        }
    }
    t.print(std::cout);
    bench::sweepFooter();

    const auto n = static_cast<double>(bench::apps().size());
    for (unsigned k = 1; k <= 3; ++k) {
        fm.value("summary.fast.bits" + std::to_string(k),
                 avg_fast[k - 1] / n);
    }
    fm.write();
    std::cout << "\nAverage fast fraction: 1-bit "
              << avg_fast[0] / n << ", 2-bit " << avg_fast[1] / n
              << ", 3-bit " << avg_fast[2] / n
              << "\nPaper shape: >90% fast with 1 bit; the "
                 "bypass-hostile apps (gcc, calculix, xz_17, "
                 "cactusADM, gromacs) recover to >70% fast via "
                 "the IDB.\n";
    return 0;
}
