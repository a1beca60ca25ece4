/**
 * @file
 * Ablation: how the OS allocation substrate creates (or destroys)
 * index-bit predictability — the mechanism behind Sec. VI of the
 * paper. Sweeps the buddy allocator's maximum order and the
 * paging policy (THP, coloring, random placement) for one
 * contiguity-sensitive application and reports the unchanged-bit
 * fraction and combined-predictor fast fraction.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/bitops.hh"
#include "common/table.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "predictor/combined.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace sipt;

struct Sample
{
    double unchanged = 0.0;
    double fast = 0.0;
};

Sample
run(const std::string &app, unsigned max_order,
    os::PagingPolicy pol, std::uint64_t refs)
{
    os::BuddyAllocator buddy((4ull << 30) / pageSize, max_order);
    Rng rng(7);
    os::SystemAger ager(buddy);
    ager.age(20'000, 0.22, rng);
    os::AddressSpace as(buddy, pol, 8);
    workload::SyntheticWorkload wl(workload::appProfile(app), as,
                                   9);
    predictor::CombinedIndexPredictor combined(2);

    std::uint64_t unchanged = 0, fast = 0;
    MemRef ref;
    for (std::uint64_t i = 0; i < refs; ++i) {
        wl.next(ref);
        const Vpn vpn = ref.vaddr >> pageShift;
        const auto xlat = as.pageTable().translate(ref.vaddr);
        const Pfn pfn = xlat->paddr >> pageShift;
        if ((vpn & mask(2)) == (pfn & mask(2)))
            ++unchanged;
        const auto pred = combined.resolve(ref.pc, vpn, pfn);
        if (pred.bits == (pfn & mask(2)))
            ++fast;
    }
    return {static_cast<double>(unchanged) /
                static_cast<double>(refs),
            static_cast<double>(fast) /
                static_cast<double>(refs)};
}

} // namespace

int
main()
{
    using namespace sipt;

    bench::figureHeader(
        "Ablation: allocation substrate vs predictability "
        "(app = gcc, 2 speculative bits)");

    const std::uint64_t refs = bench::measureRefs() / 2;
    TextTable t({"substrate", "unchanged-bits", "combined fast"});

    os::PagingPolicy thp;
    thp.thpChance = 0.9;
    os::PagingPolicy no_thp;
    no_thp.thpEnabled = false;
    os::PagingPolicy colored = no_thp;
    colored.coloringBits = 3;
    os::PagingPolicy random = no_thp;
    random.randomPlacement = true;

    // Each substrate is a self-contained run; submit them all to
    // the engine, then print in submission order.
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
    std::vector<std::shared_future<Sample>> rows;
    for (const auto &v : variants) {
        rows.push_back(bench::sweep().async([v, refs] {
            return run("gcc", v.maxOrder, v.pol, refs);
        }));
    }

    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Sample s = rows[i].get();
        t.beginRow();
        t.add(variants[i].name);
        t.add(s.unchanged, 3);
        t.add(s.fast, 3);
    }
    t.print(std::cout);
    bench::sweepFooter();

    std::cout << "\nShape: contiguity (high buddy order, THP) "
                 "and coloring raise raw unchanged-bit rates; "
                 "the IDB keeps fast rates high until placement "
                 "is truly random.\n";
    return 0;
}
