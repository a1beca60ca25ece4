#include "workload/trace_replay.hh"

#include <stdexcept>

#include "common/logging.hh"

namespace sipt::workload
{

TraceReplaySource::TraceReplaySource(const std::string &path,
                                     os::AddressSpace &as,
                                     bool loop)
    : path_(path), loop_(loop)
{
    const std::string err = reader_.open(path);
    if (!err.empty())
        fatal("trace replay '", path, "': ", err);
    if (reader_.info().refCount == 0)
        fatal("trace replay '", path, "': empty trace");

    for (const auto &region : reader_.regions())
        as.adoptRegion(region.base, region.bytes);
    for (const auto &m : reader_.mappings())
        as.installMapping(m.vaddr, m.pfn, m.huge);
}

bool
TraceReplaySource::next(MemRef &ref)
{
    if (reader_.next(ref))
        return true;
    if (!reader_.error().empty())
        throw std::runtime_error(detail::formatMessage(
            "trace replay '", path_, "': ", reader_.error()));
    if (!loop_)
        return false;
    // End of the recorded window: recycle. The delta decoder
    // restarts from its zero state, exactly like a fresh replay.
    reader_.rewind();
    ++laps_;
    if (!reader_.next(ref))
        throw std::runtime_error(detail::formatMessage(
            "trace replay '", path_, "': no records after rewind"));
    return true;
}

void
TraceReplaySource::reset()
{
    reader_.rewind();
    laps_ = 0;
}

} // namespace sipt::workload
