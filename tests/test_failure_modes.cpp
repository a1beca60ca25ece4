/**
 * @file
 * Failure-injection and configuration-validation tests: every
 * user-facing misconfiguration must fail fast with a clear
 * message (fatal -> exit(1)), and internal invariant violations
 * must panic. Out-of-resource behaviour is also pinned down.
 */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "predictor/idb.hh"
#include "predictor/perceptron.hh"
#include "vm/tlb.hh"
#include "workload/synthetic.hh"

namespace sipt
{
namespace
{

TEST(FailureModes, BuddyZeroFrames)
{
    EXPECT_EXIT(os::BuddyAllocator b(0),
                ::testing::ExitedWithCode(1), "zero frames");
}

TEST(FailureModes, BuddyHugeOrder)
{
    EXPECT_EXIT(os::BuddyAllocator b(1024, 21),
                ::testing::ExitedWithCode(1), "too large");
}

TEST(FailureModes, BuddyMisalignedFree)
{
    os::BuddyAllocator b(1024);
    EXPECT_DEATH(b.free(1, 3), "unaligned");
}

TEST(FailureModes, BuddyFreeBeyondEnd)
{
    os::BuddyAllocator b(512);
    EXPECT_DEATH(b.free(1024, 0), "beyond");
}

TEST(FailureModes, OutOfPhysicalMemory)
{
    // 1 MiB of physical memory cannot back an 8 MiB touch loop.
    os::BuddyAllocator b((1ull << 20) / pageSize);
    os::PagingPolicy pol;
    pol.thpEnabled = false;
    os::AddressSpace as(b, pol);
    const Addr base = as.mmap(8ull << 20);
    EXPECT_EXIT(
        {
            for (Addr off = 0; off < (8ull << 20);
                 off += pageSize) {
                as.touch(base + off);
            }
        },
        ::testing::ExitedWithCode(1), "out of physical memory");
}

TEST(FailureModes, MmapZeroLength)
{
    os::BuddyAllocator b(1024);
    os::AddressSpace as(b, os::PagingPolicy{});
    EXPECT_EXIT(as.mmap(0), ::testing::ExitedWithCode(1),
                "zero length");
}

TEST(FailureModes, MmapSubPageAlignment)
{
    os::BuddyAllocator b(1024);
    os::AddressSpace as(b, os::PagingPolicy{});
    EXPECT_EXIT(as.mmap(pageSize, 8),
                ::testing::ExitedWithCode(1), "alignment");
}

TEST(FailureModes, ExcessiveColoringBits)
{
    os::BuddyAllocator b(1024);
    os::PagingPolicy pol;
    pol.coloringBits = 12;
    EXPECT_EXIT(os::AddressSpace as(b, pol),
                ::testing::ExitedWithCode(1), "coloringBits");
}

TEST(FailureModes, TlbBadGeometry)
{
    EXPECT_EXIT(vm::Tlb t(vm::TlbParams{0, 4}),
                ::testing::ExitedWithCode(1), "zero");
    EXPECT_EXIT(vm::Tlb t(vm::TlbParams{64, 0}),
                ::testing::ExitedWithCode(1), "zero");
    EXPECT_EXIT(vm::Tlb t(vm::TlbParams{65, 4}),
                ::testing::ExitedWithCode(1), "multiple");
    EXPECT_EXIT(vm::Tlb t(vm::TlbParams{24, 4}),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(FailureModes, CacheZeroGeometry)
{
    // Checked before the set count divides by either parameter.
    EXPECT_EXIT(cache::CacheArray a(cache::CacheGeometry{4096, 0, 64}),
                ::testing::ExitedWithCode(1), "zero");
    EXPECT_EXIT(cache::CacheArray a(cache::CacheGeometry{4096, 2, 0}),
                ::testing::ExitedWithCode(1), "zero");
}

TEST(FailureModes, DramBadTopology)
{
    dram::DramParams p;
    p.channels = 0;
    EXPECT_EXIT(dram::Dram d(p), ::testing::ExitedWithCode(1),
                "zero channels");
    dram::DramParams q;
    q.banksPerChannel = 3;
    EXPECT_EXIT(dram::Dram d(q), ::testing::ExitedWithCode(1),
                "powers of two");
}

TEST(FailureModes, PerceptronBadWeights)
{
    predictor::PerceptronParams p;
    p.weightBits = 1;
    EXPECT_EXIT(predictor::PerceptronBypassPredictor x(p),
                ::testing::ExitedWithCode(1), "weight");
    predictor::PerceptronParams q;
    q.history = 0;
    EXPECT_EXIT(predictor::PerceptronBypassPredictor x(q),
                ::testing::ExitedWithCode(1), "history");
}

TEST(FailureModes, IdbBadSpecBits)
{
    EXPECT_EXIT(predictor::IndexDeltaBuffer i(
                    predictor::IdbParams{64, 0, false, 1}),
                ::testing::ExitedWithCode(1), "specBits");
    EXPECT_EXIT(predictor::IndexDeltaBuffer i(
                    predictor::IdbParams{64, 10, false, 1}),
                ::testing::ExitedWithCode(1), "specBits");
}

TEST(FailureModes, CoreBadEffectiveIlp)
{
    cpu::CoreParams p;
    p.effectiveIlp = 0.0;
    EXPECT_EXIT(cpu::TraceCore c(p),
                ::testing::ExitedWithCode(1), "effectiveIlp");
}

TEST(FailureModes, WorkloadBadProfile)
{
    os::BuddyAllocator b((1ull << 30) / pageSize);
    os::AddressSpace as(b, os::PagingPolicy{});

    workload::AppProfile p = workload::appProfile("povray");
    p.chaseFrac = 0.8;
    p.hotFrac = 0.5;
    EXPECT_EXIT(workload::SyntheticWorkload w(p, as, 1),
                ::testing::ExitedWithCode(1), "fractions");

    workload::AppProfile q = workload::appProfile("povray");
    q.footprintBytes = 1024;
    q.hotBytes = 32 * 1024;
    EXPECT_EXIT(workload::SyntheticWorkload w(q, as, 1),
                ::testing::ExitedWithCode(1), "smaller");

    workload::AppProfile r = workload::appProfile("povray");
    r.memRatio = 0.0;
    EXPECT_EXIT(workload::SyntheticWorkload w(r, as, 1),
                ::testing::ExitedWithCode(1), "memRatio");
}

} // namespace
} // namespace sipt
