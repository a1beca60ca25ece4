/**
 * @file
 * Extension experiment: SIPT for the L1 *instruction* cache — the
 * paper's future-work hypothesis (Sec. III): instruction working
 * sets are small and I-TLB hit rates high, so speculative index
 * bits should be at least as predictable as on the D-side.
 *
 * For small-text and large-text code profiles this measures the
 * I-TLB hit rate, the unchanged-bit fraction (1-3 bits), and the
 * combined predictor's fast fraction, then runs an I-side SIPT
 * cache (32 KiB 2-way) and reports fast accesses and hit rate
 * against the D-side averages from Fig. 12.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/bitops.hh"
#include "common/table.hh"
#include "os/address_space.hh"
#include "predictor/combined.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"
#include "workload/instruction_stream.hh"

int
main()
{
    using namespace sipt;

    bench::figureHeader(
        "Extension: SIPT-I (instruction-cache SIPT, "
        "32KiB/2-way, combined predictor)");

    const std::uint64_t refs = bench::measureRefs();
    TextTable t({"code profile", "indexing", "ITLB hit",
                 "unchanged 2b", "fast (combined)", "I$ hit",
                 "extraAcc"});

    // Two SIPT-I predictor-indexing choices: raw fetch-chunk
    // address (the D-side analogue — aliases badly because hot
    // code has thousands of chunks) and fetch *page* (deltas are
    // per-page properties, and the hot page set is tiny). Each
    // (indexing, profile) cell is a self-contained simulation;
    // submit all four to the engine, then print in order.
    struct Row
    {
        std::string profile;
        double itlbHit, unchanged2, fast, hit, extra;
    };
    std::vector<std::shared_future<Row>> rows;
    std::vector<bool> row_page_indexed;
    for (const bool page_indexed : {false, true}) {
    for (const auto &profile :
         {workload::smallCodeProfile(),
          workload::largeCodeProfile()}) {
        row_page_indexed.push_back(page_indexed);
        rows.push_back(bench::sweep().async(
            [page_indexed, profile, refs] {
            sim::SystemConfig config;
            config.seed = 21;
            sim::ConditionedMemory memory(sim::streamSpec(config));
            os::PagingPolicy pol;
            pol.thpChance = profile.thpAffinity;
            os::AddressSpace as(memory.buddy, pol, 22);
            workload::InstructionStream fetch(profile, as, 23);

            vm::Mmu mmu;
            dram::Dram dram;
            cache::TimingCache llc(sim::llcPreset(true, 1));
            const auto l2 = sim::l2Preset();
            cache::BelowL1 below(&l2, llc, dram);
            L1Params p =
                sim::l1Preset(sim::L1Config::Sipt32K2,
                              IndexingPolicy::SiptCombined);
            p.name = "L1I";
            SiptL1Cache l1i(p, below);

            std::uint64_t unchanged2 = 0;
            MemRef ref;
            Cycles now = 0;
            for (std::uint64_t i = 0; i < refs; ++i) {
                fetch.next(ref);
                if (page_indexed)
                    ref.pc = (ref.vaddr >> pageShift) << 2;
                const auto xlat =
                    mmu.translate(ref.vaddr, as.pageTable());
                const Vpn vpn = ref.vaddr >> pageShift;
                const Pfn pfn = xlat.paddr >> pageShift;
                unchanged2 +=
                    ((vpn & mask(2)) == (pfn & mask(2)));
                l1i.access(ref, xlat, now);
                now += 2;
            }

            const auto &small = mmu.l1Small();
            const auto &huge = mmu.l1Huge();
            const double itlb_hit =
                static_cast<double>(small.hits() +
                                    huge.hits()) /
                static_cast<double>(
                    small.hits() + small.misses() +
                    huge.hits() + huge.misses());

            return Row{profile.name, itlb_hit,
                       static_cast<double>(unchanged2) /
                           static_cast<double>(refs),
                       l1i.fastFraction(), l1i.hitRate(),
                       static_cast<double>(
                           l1i.stats().extraArrayAccesses) /
                           static_cast<double>(refs)};
        }));
    }
    }

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row row = rows[i].get();
        t.beginRow();
        t.add(row.profile);
        t.add(row_page_indexed[i] ? "fetch-page"
                                  : "fetch-chunk");
        t.add(row.itlbHit, 4);
        t.add(row.unchanged2, 3);
        t.add(row.fast, 3);
        t.add(row.hit, 3);
        t.add(row.extra, 4);
    }
    t.print(std::cout);
    bench::sweepFooter();

    std::cout << "\nHypothesis check: fast fractions should be "
                 "at or above the D-side Fig. 12 average "
                 "(~0.92 at 2 bits), with near-perfect I-TLB "
                 "hit rates.\n";
    return 0;
}
