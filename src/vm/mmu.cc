#include "vm/mmu.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::vm
{

Mmu::Mmu(const MmuParams &params)
    : l1Small_(params.l1Small), l1Huge_(params.l1Huge),
      l2_(params.l2), timing_(params)
{
}

MmuResult
Mmu::translate(Addr vaddr, const PageTable &page_table,
               Cycles now)
{
    const auto xlat = page_table.translate(vaddr);
    if (!xlat)
        panic("MMU translate of unmapped va ", vaddr);
    return timing_.complete(vaddr, *xlat,
                            lookup(vaddr, xlat->hugePage), now);
}

double
Mmu::l1HitRate() const
{
    const std::uint64_t hits = l1Small_.hits() + l1Huge_.hits();
    const std::uint64_t lookups =
        hits + l1Small_.misses() + l1Huge_.misses();
    return lookups ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
}

void
Mmu::flushAll()
{
    l1Small_.flush();
    l1Huge_.flush();
    l2_.flush();
}

} // namespace sipt::vm
