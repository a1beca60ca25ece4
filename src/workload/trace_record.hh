/**
 * @file
 * Trace capture: a recorder that persists a reference stream,
 * together with the address-space layout it ran over, as one
 * trace file.
 *
 * Usage mirrors the paper's trace collection: build the workload
 * (its constructor runs the allocation phase, fixing the VA->PA
 * mapping), construct a TraceRecorder over the now-complete
 * address space, and record every reference the workload produces
 * in the order a core would consume them. Replaying the file
 * reproduces the run bit-for-bit (see trace_replay.hh).
 */

#ifndef SIPT_WORKLOAD_TRACE_RECORD_HH
#define SIPT_WORKLOAD_TRACE_RECORD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "os/address_space.hh"
#include "workload/trace_format.hh"

namespace sipt::workload
{

/**
 * Snapshot @p as's layout for a trace header: its regions, and
 * every mapped page of those regions as a TraceMapping (huge
 * mappings once per 2 MiB chunk), sorted by VPN.
 */
std::vector<TraceMapping>
captureMappings(const os::AddressSpace &as);

/**
 * Records a reference stream to a trace file. The address-space
 * snapshot is taken at construction, so the workload's allocation
 * phase must already have run (mapping fixed before streaming —
 * the same order the paper's SimPoint traces impose).
 */
class TraceRecorder
{
  public:
    /**
     * @param path trace file to create
     * @param app recorded application name (header metadata)
     * @param seed recording SystemConfig::seed (header metadata)
     * @param as the workload's address space, fully allocated
     */
    TraceRecorder(const std::string &path, const std::string &app,
                  std::uint64_t seed, const os::AddressSpace &as);

    /** Append one reference to the file. */
    void record(const MemRef &ref);

    /** Flush and seal the file; idempotent (the destructor also
     *  seals). */
    void finish();

  private:
    TraceWriter writer_;
};

} // namespace sipt::workload

#endif // SIPT_WORKLOAD_TRACE_RECORD_HH
