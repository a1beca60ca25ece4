/**
 * @file
 * Trace capture: the address-space layout a trace file records.
 *
 * Usage mirrors the paper's trace collection: build the workload
 * (its constructor runs the allocation phase, fixing the VA->PA
 * mapping), capture its regions and mappings into a TraceWriter,
 * and append every reference the workload produces in the order a
 * core would consume them (sim::recordTrace). Replaying the file
 * reproduces the run bit-for-bit (see trace_replay.hh).
 */

#ifndef SIPT_WORKLOAD_TRACE_RECORD_HH
#define SIPT_WORKLOAD_TRACE_RECORD_HH

#include <vector>

#include "os/address_space.hh"
#include "workload/trace_format.hh"

namespace sipt::workload
{

/** @p as's regions for a trace header, in map order. */
std::vector<TraceRegion>
captureRegions(const os::AddressSpace &as);

/**
 * Snapshot @p as's layout for a trace header: every mapped page
 * of its regions as a TraceMapping (huge mappings once per 2 MiB
 * chunk), sorted by VPN.
 */
std::vector<TraceMapping>
captureMappings(const os::AddressSpace &as);

} // namespace sipt::workload

#endif // SIPT_WORKLOAD_TRACE_RECORD_HH
