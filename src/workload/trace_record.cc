#include "workload/trace_record.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace sipt::workload
{

std::vector<TraceRegion>
captureRegions(const os::AddressSpace &as)
{
    std::vector<TraceRegion> regions;
    for (const auto &[base, length] : as.regionSpans())
        regions.push_back({base, length});
    return regions;
}

std::vector<TraceMapping>
captureMappings(const os::AddressSpace &as)
{
    const vm::PageTable &pt = as.pageTable();
    std::vector<TraceMapping> mappings;
    for (const auto &[base, length] : as.regionSpans()) {
        for (Addr va = base; va < base + length;
             va += pageSize) {
            const auto xlat = pt.translate(va);
            if (!xlat)
                continue; // never-touched page
            if (xlat->hugePage) {
                // One entry per 2 MiB chunk, at its base.
                if (alignDown(va, hugePageSize) != va)
                    continue;
                mappings.push_back(
                    {va, pageNumber(xlat->paddr), true});
            } else {
                mappings.push_back(
                    {va, pageNumber(xlat->paddr), false});
            }
        }
    }
    std::sort(mappings.begin(), mappings.end(),
              [](const TraceMapping &a, const TraceMapping &b) {
                  return a.vaddr < b.vaddr;
              });
    return mappings;
}

} // namespace sipt::workload
