#include "dram/dram.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::dram
{

Dram::Dram(const DramParams &params)
    : params_(params),
      banks_(static_cast<std::size_t>(params.channels) *
             params.banksPerChannel),
      channelBusyUntil_(params.channels, 0)
{
    if (params.channels == 0 || params.banksPerChannel == 0)
        fatal("Dram: zero channels or banks");
    if (!isPowerOfTwo(params.channels) ||
        !isPowerOfTwo(params.banksPerChannel) ||
        !isPowerOfTwo(params.rowBytes)) {
        fatal("Dram: topology parameters must be powers of two");
    }
}

Cycles
Dram::access(Addr paddr, Cycles now, bool write)
{
    (void)write; // reads and writes share timing in this model
    ++accesses_;

    // Line-interleaved channel, then bank, then row: adjacent lines
    // spread across channels for bandwidth (common BIOS mapping).
    const Addr line = blockNumber(paddr, lineShift);
    const std::uint32_t channel = static_cast<std::uint32_t>(
        line & (params_.channels - 1));
    const Addr after_ch =
        blockNumber(line, floorLog2(params_.channels));
    const std::uint32_t bank = static_cast<std::uint32_t>(
        after_ch & (params_.banksPerChannel - 1));
    const std::uint64_t row =
        blockNumber(paddr, floorLog2(params_.rowBytes *
                                     params_.channels));

    Bank &b = banks_[static_cast<std::size_t>(channel) *
                         params_.banksPerChannel +
                     bank];

    // Queue behind the bank and the channel bus, but only when the
    // conflicting work is close in time (see queueWindow).
    Cycles start = now;
    if (b.busyUntil > start &&
        b.busyUntil - start <= params_.queueWindow) {
        start = b.busyUntil;
    }
    if (channelBusyUntil_[channel] > start &&
        channelBusyUntil_[channel] - start <=
            params_.queueWindow) {
        start = channelBusyUntil_[channel];
    }

    Cycles service;
    if (b.rowOpen && b.openRow == row) {
        ++rowHits_;
        service = params_.rowHitLatency;
    } else if (!b.rowOpen) {
        ++rowMisses_;
        service = params_.rowMissLatency;
    } else {
        ++rowConflicts_;
        service = params_.rowMissLatency + params_.rowConflictExtra;
    }
    b.rowOpen = true;
    b.openRow = row;
    b.busyUntil = start + params_.bankBusy;
    channelBusyUntil_[channel] = start + params_.busBusy;

    return (start - now) + service;
}

} // namespace sipt::dram
