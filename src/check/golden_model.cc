#include "check/golden_model.hh"

#include <algorithm>
#include <ios>
#include <sstream>

#include "common/bitops.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace sipt::check
{

namespace
{

/** Render an address as 0x... for failure messages. */
std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** Build a failure message from heterogeneous pieces. */
template <typename... Args>
std::string
msg(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace

GoldenL1::GoldenL1(std::uint64_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes, Mutation mutation)
    : assoc_(assoc), mutation_(mutation)
{
    if (size_bytes == 0 || assoc == 0 || line_bytes == 0 ||
        !isPowerOfTwo(line_bytes)) {
        fatal("GoldenL1: bad geometry ", size_bytes, "B/",
              assoc, "w/", line_bytes, "B lines");
    }
    const std::uint64_t way_lines =
        size_bytes / (static_cast<std::uint64_t>(assoc) *
                      line_bytes);
    if (way_lines == 0 || !isPowerOfTwo(way_lines)) {
        fatal("GoldenL1: sets per way (", way_lines,
              ") must be a nonzero power of two");
    }
    numSets_ = static_cast<std::uint32_t>(way_lines);
    lineShift_ = floorLog2(line_bytes);
}

std::uint32_t
GoldenL1::setOf(Addr paddr) const
{
    return static_cast<std::uint32_t>(
               blockNumber(paddr, lineShift_)) &
           (numSets_ - 1);
}

Addr
GoldenL1::lineBase(Addr paddr) const
{
    return blockBase(blockNumber(paddr, lineShift_), lineShift_);
}

std::uint64_t
GoldenL1::residentLines() const
{
    std::uint64_t total = 0;
    for (const auto &[set, lines] : sets_)
        total += lines.size();
    return total;
}

bool
GoldenL1::contains(Addr paddr) const
{
    const auto it = sets_.find(setOf(paddr));
    if (it == sets_.end())
        return false;
    const Addr line = lineBase(paddr);
    return std::any_of(it->second.begin(), it->second.end(),
                       [line](const Line &l) {
                           return l.lineAddr == line;
                       });
}

bool
GoldenL1::isDirty(Addr paddr) const
{
    const auto it = sets_.find(setOf(paddr));
    if (it == sets_.end())
        return false;
    const Addr line = lineBase(paddr);
    for (const Line &l : it->second) {
        if (l.lineAddr == line)
            return l.dirty;
    }
    return false;
}

std::string
GoldenL1::access(const Observation &obs)
{
    const std::uint32_t set = setOf(obs.paddr);
    const Addr line = lineBase(obs.paddr);
    const bool store = obs.op == MemOp::Store;
    Set &resident = sets_[set];

    auto hit_it = std::find_if(resident.begin(), resident.end(),
                               [line](const Line &l) {
                                   return l.lineAddr == line;
                               });
    if (mutation_ == Mutation::DropTagCheck && !resident.empty()) {
        // Harness self-test: pretend the tag comparison does not
        // exist, so any resident line in the set "hits".
        hit_it = resident.begin();
    }
    const bool golden_hit = hit_it != resident.end();

    if (golden_hit != obs.hit) {
        return msg("hit/miss divergence at pa ", hexAddr(obs.paddr),
                   " (set ", set, "): golden says ",
                   golden_hit ? "hit" : "miss", ", L1 says ",
                   obs.hit ? "hit" : "miss");
    }

    if (golden_hit) {
        if (obs.evicted || obs.writeback) {
            return msg("hit at pa ", hexAddr(obs.paddr), " (set ",
                       set, ") must not evict or write back");
        }
        if (store && mutation_ != Mutation::DropDirty)
            hit_it->dirty = true;
        // Move to MRU position.
        std::rotate(resident.begin(), hit_it, hit_it + 1);
        const bool golden_dirty = resident.front().dirty;
        if (golden_dirty != obs.dirtyAfter) {
            return msg("dirty-state divergence on hit at pa ",
                       hexAddr(obs.paddr), " (set ", set,
                       "): golden ", golden_dirty, ", L1 ",
                       obs.dirtyAfter);
        }
        return {};
    }

    // Miss: the fill must evict exactly when the set is full.
    const bool golden_evicts = resident.size() >= assoc_;
    if (golden_evicts != obs.evicted) {
        return msg("eviction divergence on miss at pa ",
                   hexAddr(obs.paddr), " (set ", set, ", ",
                   resident.size(), "/", assoc_,
                   " resident): golden ", golden_evicts, ", L1 ",
                   obs.evicted);
    }

    if (obs.evicted) {
        const auto victim_it =
            std::find_if(resident.begin(), resident.end(),
                         [&obs](const Line &l) {
                             return l.lineAddr == obs.evictedLine;
                         });
        if (victim_it == resident.end()) {
            return msg("L1 evicted line ", hexAddr(obs.evictedLine),
                       " which is not resident in golden set ",
                       set);
        }
        if (victim_it->lineAddr != resident.back().lineAddr) {
            return msg("LRU victim divergence in set ", set,
                       ": golden ", hexAddr(resident.back().lineAddr),
                       ", L1 ", hexAddr(obs.evictedLine));
        }
        const bool golden_victim_dirty = victim_it->dirty;
        if (golden_victim_dirty != obs.evictedDirty) {
            return msg("evicted-dirty divergence for line ",
                       hexAddr(obs.evictedLine), " (set ", set,
                       "): golden ", golden_victim_dirty, ", L1 ",
                       obs.evictedDirty);
        }
        const bool golden_writeback =
            golden_victim_dirty &&
            mutation_ != Mutation::DropWriteback;
        if (golden_writeback != obs.writeback) {
            return msg("writeback divergence for evicted line ",
                       hexAddr(obs.evictedLine), " (set ", set,
                       "): golden ", golden_writeback, ", L1 ",
                       obs.writeback);
        }
        resident.erase(victim_it);
    } else if (obs.writeback) {
        return msg("L1 wrote back without an eviction at pa ",
                   hexAddr(obs.paddr), " (set ", set, ")");
    }

    Line filled;
    filled.lineAddr = line;
    filled.dirty = store && mutation_ != Mutation::DropDirty;
    resident.insert(resident.begin(), filled);
    if (filled.dirty != obs.dirtyAfter) {
        return msg("dirty-state divergence on fill at pa ",
                   hexAddr(obs.paddr), " (set ", set, "): golden ",
                   filled.dirty, ", L1 ", obs.dirtyAfter);
    }
    return {};
}

DifferentialChecker::DifferentialChecker(const Options &options,
                                         std::uint64_t size_bytes,
                                         std::uint32_t assoc,
                                         std::uint32_t line_bytes)
    : options_(options),
      golden_(size_bytes, assoc, line_bytes, options.mutation),
      vivt_(size_bytes, assoc, line_bytes),
      digest_(fnv1a64({}))
{
}

bool
DifferentialChecker::failAccess(const std::string &violation)
{
    const std::string message =
        msg("access #", eventCount_ - 1, ": ", violation);
    if (options_.abortOnDivergence)
        panic("SIPT_CHECK divergence: ", message);
    if (failure_.empty())
        failure_ = message;
    return false;
}

void
DifferentialChecker::foldEvent(const FunctionalEvent &event)
{
    // Stable digest: FNV-1a over the event's functional fields,
    // independent of process, pointer values, and policy. Encoded
    // byte-by-byte through fixed-width integers so padding never
    // leaks in.
    char bytes[2 + 2 * sizeof(Addr)];
    std::size_t n = 0;
    bytes[n++] = event.op == MemOp::Store ? 1 : 0;
    bytes[n++] = static_cast<char>((event.hit ? 1 : 0) |
                                   (event.dirtyAfter ? 2 : 0) |
                                   (event.writeback ? 4 : 0));
    for (unsigned byte = 0; byte < sizeof(Addr); ++byte) {
        bytes[n++] = static_cast<char>(
            bits(event.lineAddr, 8 * byte + 7, 8 * byte));
    }
    for (unsigned byte = 0; byte < sizeof(Addr); ++byte) {
        bytes[n++] = static_cast<char>(
            bits(event.writebackLine, 8 * byte + 7, 8 * byte));
    }
    std::uint64_t h = digest_;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<std::uint8_t>(bytes[i]);
        h *= 0x100000001b3ull;
    }
    digest_ = h;
    ++eventCount_;
    if (options_.recordEvents)
        events_.push_back(event);
}

bool
DifferentialChecker::onAccess(const Observation &obs)
{
    FunctionalEvent event;
    event.index = eventCount_;
    event.op = obs.op;
    event.lineAddr =
        blockBase(blockNumber(obs.paddr, golden_.lineShift()),
                  golden_.lineShift());
    event.hit = obs.hit;
    event.dirtyAfter = obs.dirtyAfter;
    event.writeback = obs.writeback;
    event.writebackLine = obs.writeback ? obs.evictedLine : 0;
    foldEvent(event);

    // The strawman sees the same stream; it only counts the
    // synonym bookkeeping a VIVT cache would have needed.
    vivt_.access(obs.vaddr, obs.paddr, obs.op);

    const std::string diff = golden_.access(obs);
    return diff.empty() || failAccess(diff);
}

void
DifferentialChecker::resetStream()
{
    digest_ = fnv1a64({});
    eventCount_ = 0;
    events_.clear();
    vivt_.resetStats();
}

FillTracker::FillTracker(std::uint32_t line_bytes)
    : lineShift_(floorLog2(line_bytes))
{
    SIPT_ASSERT(isPowerOfTwo(line_bytes));
}

void
FillTracker::onFill(Addr paddr)
{
    ++fills_;
    filledLines_.insert(blockNumber(paddr, lineShift_));
}

std::string
FillTracker::onWriteback(Addr paddr)
{
    std::string error;
    if (blockBase(blockNumber(paddr, lineShift_), lineShift_) !=
        paddr) {
        error = msg("writeback address ", hexAddr(paddr),
                    " is not line aligned");
    } else if (filledLines_.count(blockNumber(paddr, lineShift_)) ==
               0) {
        error = msg("writeback of line ", hexAddr(paddr),
                    " which was never filled");
    }
    if (!error.empty() && failure_.empty())
        failure_ = error;
    return error;
}

} // namespace sipt::check
