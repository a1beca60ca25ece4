/**
 * @file
 * Fig. 9: breakdown of the perceptron speculation-bypass
 * predictor's outcomes — correct speculation, correct bypass,
 * opportunity loss, extra access — for 1, 2, and 3 speculative
 * index bits.
 *
 * Like the paper, the predictor is not warmed up; all
 * mispredictions are included.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/bitops.hh"
#include "common/table.hh"
#include "predictor/perceptron.hh"

int
main()
{
    using namespace sipt;

    bench::figureHeader(
        "Fig. 9: bypass-perceptron outcome breakdown per "
        "speculative bit count (cSpec/cByp/oppLoss/extra)");

    const std::uint64_t refs = bench::measureRefs();
    TextTable t({"app", "bits", "correctSpec", "correctBypass",
                 "oppLoss", "extraAccess", "accuracy"});

    // One task per (app, bit count), so each analysis owns its
    // address stream and predictor state never leaks across
    // configurations — which also makes them trivially parallel.
    struct Row
    {
        double cSpec, cByp, opp, extra, acc;
    };
    std::vector<std::shared_future<Row>> rows;
    for (const auto &app : bench::apps()) {
        for (unsigned k = 1; k <= 3; ++k) {
            rows.push_back(bench::sweep().async([app, k, refs] {
                bench::TraceLab lab(app);
                predictor::PerceptronBypassPredictor perceptron;
                std::uint64_t c_spec = 0, c_byp = 0, opp = 0,
                              extra = 0;
                MemRef ref;
                for (std::uint64_t i = 0; i < refs; ++i) {
                    lab.next(ref);
                    const Vpn vpn = ref.vaddr >> pageShift;
                    const Pfn pfn = lab.pfnOf(ref.vaddr);
                    const bool unchanged =
                        (vpn & mask(k)) == (pfn & mask(k));
                    const bool spec =
                        perceptron.resolve(ref.pc, unchanged);
                    if (spec && unchanged)
                        ++c_spec;
                    else if (spec && !unchanged)
                        ++extra;
                    else if (!spec && unchanged)
                        ++opp;
                    else
                        ++c_byp;
                }
                const auto frac = [&](std::uint64_t n) {
                    return static_cast<double>(n) /
                           static_cast<double>(refs);
                };
                return Row{frac(c_spec), frac(c_byp), frac(opp),
                           frac(extra), frac(c_spec + c_byp)};
            }));
        }
    }

    bench::FigureMetrics fm("fig09");
    std::vector<double> avg_acc(3, 0.0);
    std::size_t i = 0;
    for (const auto &app : bench::apps()) {
        for (unsigned k = 1; k <= 3; ++k) {
            const Row row = rows[i++].get();
            t.beginRow();
            t.add(app);
            t.add(std::uint64_t{k});
            t.add(row.cSpec, 3);
            t.add(row.cByp, 3);
            t.add(row.opp, 3);
            t.add(row.extra, 3);
            t.add(row.acc, 3);
            avg_acc[k - 1] += row.acc;
            const std::string prefix = "apps." + app + ".bits" +
                                       std::to_string(k) + ".";
            fm.value(prefix + "correctSpec", row.cSpec);
            fm.value(prefix + "correctBypass", row.cByp);
            fm.value(prefix + "oppLoss", row.opp);
            fm.value(prefix + "extraAccess", row.extra);
            fm.value(prefix + "accuracy", row.acc);
        }
    }
    t.print(std::cout);
    bench::sweepFooter();

    const auto n = static_cast<double>(bench::apps().size());
    for (unsigned k = 1; k <= 3; ++k) {
        fm.value("summary.accuracy.bits" + std::to_string(k),
                 avg_acc[k - 1] / n);
    }
    fm.write();
    std::cout << "\nAverage accuracy: 1-bit "
              << avg_acc[0] / n << ", 2-bit " << avg_acc[1] / n
              << ", 3-bit " << avg_acc[2] / n
              << "\nPaper shape: >90% accuracy everywhere, few "
                 "extra accesses, negligible opportunity loss.\n";
    return 0;
}
