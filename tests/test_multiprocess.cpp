/**
 * @file
 * Multi-process invariants the quad-core evaluation relies on:
 * address spaces sharing one physical allocator must receive
 * disjoint frames, release them independently, and produce
 * independent VA->PA delta structure.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "workload/synthetic.hh"

namespace sipt::os
{
namespace
{

constexpr std::uint64_t frames = (2ull << 30) / pageSize;

/** Collect every PFN mapped by an address space's table. */
std::set<Pfn>
mappedFrames(const AddressSpace &as, Addr base,
             std::uint64_t bytes)
{
    std::set<Pfn> pfns;
    for (Addr off = 0; off < bytes; off += pageSize) {
        const auto xlat = as.pageTable().translate(base + off);
        if (xlat)
            pfns.insert(xlat->paddr >> pageShift);
    }
    return pfns;
}

TEST(MultiProcess, FramesAreDisjoint)
{
    BuddyAllocator buddy(frames);
    PagingPolicy pol;
    pol.thpEnabled = false;

    AddressSpace a(buddy, pol, 1);
    AddressSpace b(buddy, pol, 2);
    const std::uint64_t bytes = 16ull << 20;
    const Addr base_a = a.mmap(bytes);
    const Addr base_b = b.mmap(bytes);
    // Interleave the demand faults of the two processes.
    for (Addr off = 0; off < bytes; off += pageSize) {
        a.touch(base_a + off);
        b.touch(base_b + off);
    }

    const auto pfns_a = mappedFrames(a, base_a, bytes);
    const auto pfns_b = mappedFrames(b, base_b, bytes);
    EXPECT_EQ(pfns_a.size(), bytes / pageSize);
    EXPECT_EQ(pfns_b.size(), bytes / pageSize);
    for (Pfn pfn : pfns_a)
        ASSERT_EQ(pfns_b.count(pfn), 0u) << "shared frame";
}

TEST(MultiProcess, InterleavedFaultsStillGiveUsableDeltas)
{
    // Two co-running workloads interleave their bursts; each
    // process's pages must still come in contiguous runs long
    // enough for the IDB (this is the multiprogrammed-contention
    // version of the Fig. 10 property).
    BuddyAllocator buddy(frames);
    PagingPolicy pol;
    pol.thpEnabled = false;
    AddressSpace a(buddy, pol, 1);
    AddressSpace b(buddy, pol, 2);
    const std::uint64_t pages = 4096;
    const Addr base_a = a.mmap(pages * pageSize);
    const Addr base_b = b.mmap(pages * pageSize);
    for (std::uint64_t i = 0; i < pages; i += 64) {
        for (std::uint64_t k = 0; k < 64; ++k) {
            a.touch(base_a + (i + k) * pageSize);
        }
        for (std::uint64_t k = 0; k < 64; ++k) {
            b.touch(base_b + (i + k) * pageSize);
        }
    }
    // Count delta changes along process A's pages.
    int changes = 0;
    std::int64_t prev = 0;
    bool first = true;
    for (std::uint64_t i = 0; i < pages; ++i) {
        const auto xlat =
            a.pageTable().translate(base_a + i * pageSize);
        const auto d = static_cast<std::int64_t>(
                           xlat->paddr >> pageShift) -
                       static_cast<std::int64_t>(
                           (base_a >> pageShift) + i);
        if (!first && d != prev)
            ++changes;
        prev = d;
        first = false;
    }
    // At most one change per 64-page burst.
    EXPECT_LE(changes, static_cast<int>(pages / 64));
}

TEST(MultiProcess, WorkloadsOverSharedAllocatorAreDeterministic)
{
    auto run = [] {
        BuddyAllocator buddy(frames);
        PagingPolicy pol;
        AddressSpace a(buddy, pol, 1);
        AddressSpace b(buddy, pol, 2);
        workload::SyntheticWorkload wa(
            workload::appProfile("povray"), a, 11);
        workload::SyntheticWorkload wb(
            workload::appProfile("gamess"), b, 12);
        MemRef ra, rb;
        std::uint64_t sig = 0;
        for (int i = 0; i < 5000; ++i) {
            wa.next(ra);
            wb.next(rb);
            sig = sig * 1315423911u + ra.vaddr + 3 * rb.vaddr;
        }
        return sig;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace sipt::os
