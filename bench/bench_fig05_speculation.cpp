/**
 * @file
 * Fig. 5: fraction of accesses whose speculative index bits are
 * unchanged by translation, for 1, 2, and 3 bits, plus the
 * fraction of accesses to transparently mapped huge pages
 * ("hugepage (9-bit)" in the paper).
 *
 * This is a property of the address stream and the OS mapping
 * alone; no cache model is involved.
 */

#include <array>
#include <iostream>

#include "bench/bench_util.hh"
#include "common/bitops.hh"
#include "common/table.hh"

int
main()
{
    using namespace sipt;

    bench::figureHeader(
        "Fig. 5: correct (unchanged-bit) speculation fraction "
        "vs speculative index bits");

    TextTable t({"app", "1-bit", "2-bit", "3-bit",
                 "hugepage(9b)"});
    const std::uint64_t refs = bench::measureRefs();

    // One self-contained trace analysis per app, run on the
    // sweep engine's pool; rows print in submission order.
    struct Row
    {
        std::array<double, 3> unchanged;
        double huge;
    };
    std::vector<std::shared_future<Row>> rows;
    for (const auto &app : bench::apps()) {
        rows.push_back(bench::sweep().async([app, refs] {
            bench::TraceLab lab(app);
            std::uint64_t unchanged[3] = {0, 0, 0};
            std::uint64_t huge_refs = 0;
            MemRef ref;
            for (std::uint64_t i = 0; i < refs; ++i) {
                lab.next(ref);
                const Vpn vpn = ref.vaddr >> pageShift;
                const Pfn pfn = lab.pfnOf(ref.vaddr);
                for (unsigned k = 1; k <= 3; ++k) {
                    if ((vpn & mask(k)) == (pfn & mask(k)))
                        ++unchanged[k - 1];
                }
                if (lab.isHuge(ref.vaddr))
                    ++huge_refs;
            }
            Row row;
            for (unsigned k = 0; k < 3; ++k)
                row.unchanged[k] =
                    static_cast<double>(unchanged[k]) /
                    static_cast<double>(refs);
            row.huge = static_cast<double>(huge_refs) /
                       static_cast<double>(refs);
            return row;
        }));
    }

    std::vector<double> avg(4, 0.0);
    for (std::size_t a = 0; a < bench::apps().size(); ++a) {
        const Row row = rows[a].get();
        t.beginRow();
        t.add(bench::apps()[a]);
        for (unsigned k = 0; k < 3; ++k) {
            t.add(row.unchanged[k], 3);
            avg[k] += row.unchanged[k];
        }
        t.add(row.huge, 3);
        avg[3] += row.huge;
    }
    t.beginRow();
    t.add("Average");
    for (unsigned k = 0; k < 4; ++k)
        t.add(avg[k] / static_cast<double>(bench::apps().size()),
              3);
    t.print(std::cout);
    bench::sweepFooter();

    std::cout << "\nPaper shape: most apps speculate correctly "
                 "with 1 bit; accuracy decays with more bits; a "
                 "handful of apps (deepsjeng_17, cactusADM, "
                 "calculix, graph500, ycsb, xalancbmk_17, "
                 "gromacs) are hostile even at 1 bit; "
                 "libquantum/GemsFDTD are hugepage-dominated.\n";
    return 0;
}
