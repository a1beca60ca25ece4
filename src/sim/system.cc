#include "sim/system.hh"

#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <system_error>

#include "batch/pipeline.hh"
#include "check/options.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "dram/dram.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "os/shared_segment.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"
#include "workload/synonym.hh"
#include "workload/synthetic.hh"
#include "workload/trace_record.hh"
#include "workload/trace_replay.hh"

namespace sipt::sim
{

namespace
{

/** A mix's episode length: its cores take turns in slices of this
 *  many references. */
constexpr std::uint64_t mixSlice = 5'000;

/** PTE reads of the radix walker go through the hierarchy, each a
 *  fill with a function and a timing half. */
class WalkThroughCaches : public vm::WalkPort
{
  public:
    explicit WalkThroughCaches(cache::BelowL1 &below)
        : below_(below)
    {
    }

    Cycles
    walkRead(Addr paddr, Cycles now) override
    {
        return below_.fill(paddr, now);
    }

    std::uint8_t
    walkFunction(Addr paddr, dram::AccessLog &log) override
    {
        return below_.fill(paddr, log);
    }

    Cycles
    walkTiming(Addr paddr, std::uint8_t outcome, Cycles now,
               const dram::AccessLog &log,
               dram::AccessLog::Cursor &cursor) override
    {
        return below_.timeFill(paddr, outcome, log, cursor, now);
    }

  private:
    cache::BelowL1 &below_;
};

os::PagingPolicy
policyFor(const StreamSpec &spec, double thp_affinity)
{
    os::PagingPolicy pol;
    switch (spec.condition) {
      case MemCondition::Normal:
      case MemCondition::Fragmented:
        pol.thpEnabled = true;
        pol.thpChance = thp_affinity;
        break;
      case MemCondition::ThpOff:
        pol.thpEnabled = false;
        break;
      case MemCondition::NoContiguity:
        pol.thpEnabled = false;
        pol.randomPlacement = true;
        break;
    }
    return pol;
}

/**
 * Build @p app's address space and reference source under spec's
 * condition and footprint scale: the allocation phase demand-faults
 * every page in from @p buddy. Seeds derive from @p seed (+1 address
 * space, +2 workload). @p shared is the segment a shared-mode
 * synonym app attaches (else null).
 */
Workload
buildWorkload(const StreamSpec &spec, const std::string &app,
              os::BuddyAllocator &buddy, std::uint64_t seed,
              const os::SharedSegment *shared)
{
    Workload w;
    if (isTraceApp(app)) {
        // Replay: the trace supplies the layout and mapping, so
        // the paging policy and footprint scale are moot (no
        // demand fault ever fires).
        w.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(spec, 0.0), seed + 1);
        w.source = std::make_unique<workload::TraceReplaySource>(
            traceAppPath(app), *w.as, /*loop=*/true);
    } else if (workload::isSynonymApp(app)) {
        // Multi-mapping scenarios: mmapAlias/mmapCow need
        // small-mapped sources, so THP stays off for these
        // regardless of condition. Footprints are fixed (no
        // scaling): a few hundred KiB against gigabytes.
        w.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(spec, 0.0), seed + 1);
        w.source = std::make_unique<workload::SynonymWorkload>(
            workload::synonymSpec(app), *w.as, seed + 2, shared);
    } else {
        workload::AppProfile profile = workload::appProfile(app);
        profile.footprintBytes = static_cast<std::uint64_t>(
            static_cast<double>(profile.footprintBytes) *
            spec.footprintScale);
        w.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(spec, profile.thpAffinity),
            seed + 1);
        w.source = std::make_unique<workload::SyntheticWorkload>(
            profile, *w.as, seed + 2);
    }
    return w;
}

L1Params
l1ParamsFor(const SystemConfig &config, const check::Options &check)
{
    L1Params l1_params = l1Preset(config.l1Config, config.policy,
                                  config.wayPrediction);
    // Fuzzer geometry overrides (0 = keep the preset value).
    if (config.l1SizeBytes != 0)
        l1_params.geometry.sizeBytes = config.l1SizeBytes;
    if (config.l1Assoc != 0)
        l1_params.geometry.assoc = config.l1Assoc;
    if (config.l1HitLatency != 0)
        l1_params.hitLatency = config.l1HitLatency;
    if (config.xlatPredEntries != 0) {
        l1_params.hashedXlat.entries = config.xlatPredEntries;
        l1_params.pcXlat.entries = config.xlatPredEntries;
    }
    l1_params.check = check;
    return l1_params;
}

/** The LLC and DRAM of one config, shared by its cores. The LLC
 *  and DRAM's rows belong to the memory stage, DRAM's queues to the
 *  timing stage (dram::Dram keeps the two halves apart). */
struct Uncore
{
    dram::Dram dram;
    cache::TimingCache llc;

    Uncore(bool out_of_order, std::uint32_t cores)
        : llc(llcPreset(out_of_order, cores))
    {
    }
};

/**
 * One simulated core: everything a SystemConfig adds to a Stream
 * — TLB latencies and walker, L1, below-L1 hierarchy and the core
 * model — over its config's LLC and DRAM. The TLBs are the
 * stream's. Its batch::MachineStages run predict + memory + timing
 * over the stream's resolved batches.
 */
class Machine
{
  public:
    /** The core that runs @p stream with @p seed (coreSeed()),
     *  over its config's @p uncore. */
    Machine(const SystemConfig &config, const Stream &stream,
            Uncore &uncore, std::uint64_t seed)
        : check_(check::Options::fromEnv(config.check)),
          timing_(mmuPreset()),
          below_([&] {
              const cache::TimingCacheParams l2 = l2Preset();
              return cache::BelowL1(config.outOfOrder ? &l2 : nullptr,
                                    uncore.llc, uncore.dram, check_);
          }()),
          l1_(l1ParamsFor(config, check_), below_),
          core_([&] {
              cpu::CoreParams p = config.outOfOrder
                                      ? cpu::outOfOrderCoreParams()
                                      : cpu::inOrderCoreParams();
              p.seed = seed + 3;
              return p;
          }()),
          stages_(timing_, stream.addressSpace().pageTable(), l1_,
                  core_)
    {
        if (config.radixWalker) {
            walkPort_ = std::make_unique<WalkThroughCaches>(below_);
            walker_ = std::make_unique<vm::PageWalker>(
                vm::WalkerParams{}, *walkPort_);
            timing_.setWalker(walker_.get());
        }
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    batch::MachineStages &stages() { return stages_; }

    /** End of warmup: zero every counter of this machine's
     *  function half, on the memory stage's thread (the uncore and
     *  the streams are reset by the group). */
    void
    resetMemoryStats()
    {
        l1_.resetArrayStats();
        below_.resetStats();
    }

    /** End of warmup: zero the timing half's counters, on the
     *  caller. */
    void resetTimingStats() { l1_.resetTimingStats(); }

    /** The run's metrics, over the measured episodes' sum
     *  @p measured, with @p llc_dyn_share / @p llc_static_share_mw
     *  of the LLC's energy and a run of @p seconds. */
    RunResult collect(const std::string &app, const Stream &stream,
                      const cpu::CoreResult &measured,
                      double llc_dyn_share,
                      double llc_static_share_mw,
                      double seconds) const;

  private:
    /** The checker switches every layer is armed with. */
    check::Options check_;
    vm::MmuTiming timing_;
    cache::BelowL1 below_;
    SiptL1Cache l1_;
    cpu::TraceCore core_;
    std::unique_ptr<WalkThroughCaches> walkPort_;
    std::unique_ptr<vm::PageWalker> walker_;
    batch::MachineStages stages_;
};

RunResult
Machine::collect(const std::string &app, const Stream &stream,
                 const cpu::CoreResult &measured,
                 double llc_dyn_share, double llc_static_share_mw,
                 double seconds) const
{
    RunResult r;
    r.app = app;
    r.cycles = measured.cycles;
    r.instructions = measured.instructions;
    r.ipc = measured.ipc();
    r.l1 = l1_.stats();
    r.l1HitRate = l1_.hitRate();
    r.fastFraction = l1_.fastFraction();
    r.hugeCoverage = stream.addressSpace().hugeCoverage();
    r.energy = energy::computeEnergy(l1_, below_, llc_dyn_share,
                                     llc_static_share_mw, seconds);
    if (const auto *wp = l1_.wayPredictor())
        r.wayPredAccuracy = wp->accuracy();
    r.dtlbHitRate = stream.tlbs().l1HitRate();
    r.pageWalks = stream.tlbs().walks();
    r.l1Mpki = r.instructions
                   ? 1000.0 *
                         static_cast<double>(r.l1.misses) /
                         static_cast<double>(r.instructions)
                   : 0.0;
    r.checkDigest = l1_.checkDigest();
    r.checkEvents = l1_.checkEventCount();
    // The first failure wins, whichever layer saw it.
    r.checkFailure = l1_.checkFailure();
    if (r.checkFailure.empty() && below_.fillTracker())
        r.checkFailure = below_.fillTracker()->failure();
    if (r.checkFailure.empty())
        r.checkFailure = stages_.checkFailure();
    if (const auto *checker = l1_.checker()) {
        const auto &vivt = checker->vivt().stats();
        r.vivtReverseProbes = vivt.reverseMapProbes;
        r.vivtInvalidations = vivt.synonymInvalidations;
        r.vivtDirtyForwards = vivt.dirtyForwards;
    }
    return r;
}


/**
 * A mix's shared-mode synonym segments, allocated in mix order into
 * @p owned: one per profile, attached by every core naming it, so
 * its synonyms cross cores over the shared LLC. Returns each core's
 * segment, or null.
 */
std::vector<const os::SharedSegment *>
sharedSegments(
    const std::vector<std::string> &mix, os::BuddyAllocator &buddy,
    std::map<std::string, std::unique_ptr<os::SharedSegment>> &owned)
{
    std::vector<const os::SharedSegment *> per_core(mix.size());
    for (std::size_t c = 0; c < mix.size(); ++c) {
        if (!workload::isSynonymApp(mix[c]))
            continue;
        const workload::SynonymSpec synonym =
            workload::synonymSpec(mix[c]);
        if (synonym.mode != workload::SynonymSpec::Mode::Shared)
            continue;
        auto &segment = owned[workload::synonymAppName(synonym)];
        if (!segment) {
            segment = std::make_unique<os::SharedSegment>(
                buddy, workload::synonymMappingBytes(synonym),
                synonym.hugePages);
        }
        per_core[c] = segment.get();
    }
    return per_core;
}

/** One config of a group: its uncore, one machine per stream, and
 *  each machine's episodes summed over the current phase. */
struct GroupMember
{
    std::unique_ptr<Uncore> uncore;
    std::vector<std::unique_ptr<Machine>> machines;
    std::vector<cpu::CoreResult> measured;
};

/**
 * A group's batch schedule, walked in the same order by both halves
 * of the run: the warmup phase, then the measure phase; each phase
 * in episodes — one per stream for a single job, slices of mixSlice
 * references taken by the streams in turn for a mix. @p half gets
 * episode(c, len) for each of stream c's episodes, which it walks
 * in batches through batch::forEachBatch(), and endWarmup() between
 * the phases. Both halves see the same episode lengths, so they
 * agree on every batch.
 */
template <typename Half>
void
walkSchedule(JobKind kind, const StreamSpec &spec, std::size_t n,
             Half &half)
{
    for (const bool warmup : {true, false}) {
        const std::uint64_t refs =
            warmup ? spec.warmupRefs : spec.measureRefs;
        const std::uint64_t episode =
            kind == JobKind::Single ? refs : mixSlice;
        std::uint64_t done = 0;
        do {
            const std::uint64_t len = std::min(episode, refs - done);
            for (std::size_t c = 0; c < n; ++c)
                half.episode(c, len);
            done += len;
        } while (done < refs);
        if (warmup)
            half.endWarmup();
    }
}

/** The stream half of a threaded group run, on the stream thread:
 *  generates and resolves every batch into the ring. */
struct StreamHalf
{
    std::span<Stream *const> streams;
    StreamThread &ring;

    void
    episode(std::size_t c, std::uint64_t len)
    {
        batch::forEachBatch(len, [&](std::size_t want) {
            cpu::RefBatch &slot = ring.claim();
            streams[c]->stages().fill(slot, want);
            const std::size_t got = slot.size;
            ring.publish();
            return got;
        });
    }

    /** The TLB counters are the stream's, so this thread resets
     *  them. */
    void
    endWarmup()
    {
        for (Stream *stream : streams)
            stream->resetStats();
    }
};

/** Zero the function half's counters of every live config at the
 *  end of warmup: its machines', LLC's and DRAM rows'. */
void
resetMemoryStats(std::vector<GroupMember> &members,
                 const std::vector<std::size_t> &live)
{
    for (const std::size_t i : live) {
        for (const auto &machine : members[i].machines)
            machine->resetMemoryStats();
        members[i].uncore->llc.resetStats();
        members[i].uncore->dram.resetStats();
    }
}

/** The memory half of a three-thread group run, on the memory
 *  thread: runs every live config's memory stage for stream c over
 *  each of its batches. */
struct MemoryHalf
{
    const std::vector<std::vector<batch::MachineStages *>> &stepping;
    std::vector<GroupMember> &members;
    const std::vector<std::size_t> &live;
    StreamThread &ring;

    void
    episode(std::size_t c, std::uint64_t len)
    {
        batch::forEachBatch(len, [&](std::size_t) {
            return ring.memoryNext(stepping[c]);
        });
    }

    /** The function half's counters belong to this thread. */
    void endWarmup() { resetMemoryStats(members, live); }
};

/**
 * The machine half of a group run, on the caller: runs every live
 * config's machine for stream c over each of its episodes and sums
 * them. Its batches come from @c ring, or, when that is null, from
 * the streams' stages on this thread (and then it also does the
 * stream half's endWarmup()). Without a memory thread it runs the
 * memory stage too, and resets its counters.
 */
struct MachineHalf
{
    std::span<Stream *const> streams;
    std::vector<std::vector<batch::MachineStages *>> &stepping;
    std::vector<GroupMember> &members;
    const std::vector<std::size_t> &live;
    StreamThread *ring = nullptr;
    bool memoryThread = false;

    void
    episode(std::size_t c, std::uint64_t len)
    {
        std::vector<cpu::CoreResult> ran;
        if (ring) {
            StreamThread::Batches batches(*ring);
            ran = batch::runPhase(stepping[c], len, batches);
        } else {
            batch::StreamBatches batches(streams[c]->stages());
            ran = batch::runPhase(stepping[c], len, batches);
        }
        for (std::size_t j = 0; j < live.size(); ++j) {
            cpu::CoreResult &sum = members[live[j]].measured[c];
            sum.cycles += ran[j].cycles;
            sum.instructions += ran[j].instructions;
            sum.memRefs += ran[j].memRefs;
        }
    }

    void
    endWarmup()
    {
        if (!ring) {
            for (Stream *stream : streams)
                stream->resetStats();
        }
        if (!memoryThread)
            resetMemoryStats(members, live);
        for (const std::size_t i : live) {
            for (const auto &machine : members[i].machines)
                machine->resetTimingStats();
            members[i].measured.assign(streams.size(),
                                       cpu::CoreResult{});
        }
    }
};

} // namespace

StreamSpec
streamSpec(const SystemConfig &config)
{
    // One binding per field: a new SystemConfig field fails to
    // compile here until it goes to the stream below or is left,
    // like the others, to the machine. The stream owns the TLB
    // hierarchy (mmuPreset() for every config), so a future TLB
    // parameter would have to join StreamSpec.
    const auto &[outOfOrder, l1Config, l1SizeBytes, l1Assoc,
                 l1HitLatency, policy, xlatPredEntries, wayPrediction,
                 radixWalker, condition, physMemBytes, warmupRefs,
                 measureRefs, seed, footprintScale, check] = config;
    return {.condition = condition,
            .physMemBytes = physMemBytes,
            .warmupRefs = warmupRefs,
            .measureRefs = measureRefs,
            .seed = seed,
            .footprintScale = footprintScale};
}

cache::CacheGeometry
l1Geometry(const SystemConfig &config)
{
    return l1ParamsFor(config, {}).geometry;
}

ConditionedMemory::ConditionedMemory(const StreamSpec &spec)
    : buddy(spec.physMemBytes / pageSize), ager(buddy),
      fragmenter(buddy), rng(spec.seed)
{
    ager.age(os::SystemAger::uptimeChurnOps,
             os::SystemAger::uptimeResidentFraction, rng);
    if (spec.condition == MemCondition::Fragmented)
        fragmenter.fragmentTo(0.95, 9, rng, 0.30);
}

std::uint64_t
coreSeed(JobKind kind, std::uint64_t seed, std::size_t core)
{
    return kind == JobKind::Single ? seed + 10 : seed + 100 * (core + 1);
}

Stream::Stream(const std::string &app, const StreamSpec &spec,
               os::BuddyAllocator &buddy, std::uint64_t seed,
               const os::SharedSegment *shared)
    : Stream(buildWorkload(spec, app, buddy, seed, shared))
{
}

Stream::Stream(Workload workload)
    : workload_(std::move(workload)), tlbs_(mmuPreset()),
      stages_(*workload_.source, workload_.as->pageTable(), tlbs_)
{
}

const char *
conditionName(MemCondition condition)
{
    switch (condition) {
      case MemCondition::Normal:
        return "Normal";
      case MemCondition::Fragmented:
        return "Fragmented";
      case MemCondition::ThpOff:
        return "THP-off";
      case MemCondition::NoContiguity:
        return "No->4KiB-contig";
    }
    return "?";
}

std::optional<MemCondition>
conditionFromName(std::string_view name)
{
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "normal")
        return MemCondition::Normal;
    if (lower == "fragmented")
        return MemCondition::Fragmented;
    if (lower == "thp-off")
        return MemCondition::ThpOff;
    if (lower == "no-contig")
        return MemCondition::NoContiguity;
    return std::nullopt;
}

bool
isTraceApp(const std::string &app)
{
    return app.rfind("trace:", 0) == 0;
}

std::string
traceAppPath(const std::string &app)
{
    SIPT_ASSERT(isTraceApp(app), "not a trace app: ", app);
    return app.substr(6);
}

void
recordTrace(const std::string &app, const SystemConfig &config,
            const std::string &path)
{
    if (isTraceApp(app))
        fatal("recordTrace: cannot re-record a trace app (", app,
              ")");

    // The workload a single job's Stream would build: the recorded
    // layout and references are exactly what the live run sees.
    // Snapshot the layout after the allocation phase (for synonym
    // apps it is many-to-one), then record the references a core
    // would consume. The recording needs no resolved addresses, so
    // it reads the source directly.
    const StreamSpec spec = streamSpec(config);
    ConditionedMemory memory(spec);
    const Workload w =
        buildWorkload(spec, app, memory.buddy,
                      coreSeed(JobKind::Single, spec.seed, 0), nullptr);
    workload::TraceWriter writer(path, app, config.seed,
                                 workload::captureRegions(*w.as),
                                 workload::captureMappings(*w.as));
    const std::uint64_t total =
        config.warmupRefs + config.measureRefs;
    MemRef ref;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (!w.source->next(ref))
            break;
        writer.append(ref);
    }
    writer.finish();
}

std::uint64_t
defaultMeasureRefs()
{
    // Strict parse: "2000x" or a negative must not silently run a
    // different experiment than the user asked for.
    return envU64("SIPT_REFS", 400'000, 1, maxRefs);
}

std::uint64_t
defaultWarmupRefs()
{
    return envU64("SIPT_WARMUP", 150'000, 1, maxRefs);
}

bool
defaultCheck()
{
    return envU64("SIPT_CHECK", 0, 0, 1) == 1;
}

std::vector<MulticoreResult>
runGroup(JobKind kind, const std::vector<std::string> &apps,
         const std::vector<SystemConfig> &configs,
         std::vector<std::exception_ptr> *errors, Overlap overlap)
{
    if (apps.empty())
        fatal("runGroup: no apps");
    SIPT_ASSERT(!configs.empty(), "runGroup: no configs");
    const StreamSpec spec = streamSpec(configs.front());
    const std::size_t n = apps.size();

    // The stream side, declared first so that it outlives every
    // machine: the memory, a mix's shared segments, one Stream per
    // app drawing from the memory in app order.
    ConditionedMemory memory(spec);
    std::map<std::string, std::unique_ptr<os::SharedSegment>> owned;
    const std::vector<const os::SharedSegment *> shared =
        kind == JobKind::Mix
            ? sharedSegments(apps, memory.buddy, owned)
            : std::vector<const os::SharedSegment *>(n);
    std::vector<std::unique_ptr<Stream>> streams;
    std::vector<Stream *> stream_ptrs;
    for (std::size_t c = 0; c < n; ++c) {
        streams.push_back(std::make_unique<Stream>(
            apps[c], spec, memory.buddy, coreSeed(kind, spec.seed, c),
            shared[c]));
        stream_ptrs.push_back(streams.back().get());
    }
    return runOnStreams(kind, stream_ptrs, apps, configs, errors,
                        overlap);
}

std::vector<MulticoreResult>
runOnStreams(JobKind kind, std::span<Stream *const> streams,
             const std::vector<std::string> &apps,
             const std::vector<SystemConfig> &configs,
             std::vector<std::exception_ptr> *errors, Overlap overlap)
{
    SIPT_ASSERT(kind == JobKind::Mix || apps.size() == 1,
                "runGroup: a single job runs one app");
    SIPT_ASSERT(streams.size() == apps.size(),
                "runGroup: one stream per app");
    SIPT_ASSERT(!configs.empty(), "runGroup: no configs");
    const StreamSpec spec = streamSpec(configs.front());
    for (const SystemConfig &config : configs) {
        if (streamSpec(config) != spec)
            panic("runGroup: the configs for ", apps.front(),
                  " do not share one stream key");
    }
    const std::size_t n = apps.size();
    const std::size_t k = configs.size();

    // The machine side: per config, its uncore and one machine per
    // stream. A config that fails to build drops out of the run;
    // stepping[c] holds every live config's machine for stream c.
    std::vector<std::exception_ptr> failed(k);
    std::vector<GroupMember> members(k);
    std::vector<std::size_t> live;
    std::vector<std::vector<batch::MachineStages *>> stepping(n);
    for (std::size_t i = 0; i < k; ++i) {
        GroupMember &member = members[i];
        try {
            member.uncore = std::make_unique<Uncore>(
                configs[i].outOfOrder, static_cast<std::uint32_t>(n));
            for (std::size_t c = 0; c < n; ++c) {
                member.machines.push_back(std::make_unique<Machine>(
                    configs[i], *streams[c], *member.uncore,
                    coreSeed(kind, spec.seed, c)));
            }
        } catch (...) {
            failed[i] = std::current_exception();
            continue;
        }
        live.push_back(i);
        member.measured.resize(n);
        for (std::size_t c = 0; c < n; ++c)
            stepping[c].push_back(&member.machines[c]->stages());
    }

    // The machines' half of the batch loop, on this thread. Its
    // batches come from the stream thread's ring, recorded or not,
    // or, inline, from the streams' stages directly.
    MachineHalf machines{streams, stepping, members, live};
    const unsigned cpus = overlap == Overlap::Auto ? usableCpus() : 0;
    const bool recording = overlap == Overlap::Pipelined ||
                           (overlap == Overlap::Auto && cpus >= 3);
    const bool threaded = recording || overlap == Overlap::Threaded ||
                          (overlap == Overlap::Auto && cpus >= 2);
    std::optional<StreamThread> thread;
    if (threaded) {
        std::function<void(StreamThread &)> memory;
        if (recording) {
            memory = [&](StreamThread &ring) {
                MemoryHalf half{stepping, members, live, ring};
                walkSchedule(kind, spec, n, half);
            };
        }
        try {
            thread.emplace(
                [&](StreamThread &ring) {
                    StreamHalf half{streams, ring};
                    walkSchedule(kind, spec, n, half);
                },
                std::move(memory), live.size());
        } catch (const std::system_error &) {
            // No thread to be had: the same loop, inline.
        }
    }
    machines.ring = thread ? &*thread : nullptr;
    machines.memoryThread = thread && recording;
    walkSchedule(kind, spec, n, machines);
    // Join before reading anything the other threads wrote (the
    // TLB counters, the arrays and their counters).
    thread.reset();

    std::vector<MulticoreResult> results(k);
    for (const std::size_t i : live) {
        const GroupMember &member = members[i];
        for (const auto &machine : member.machines) {
            if (machine->stages().error() && !failed[i])
                failed[i] = machine->stages().error();
        }
        if (failed[i])
            continue;
        double max_seconds = 0.0;
        for (const cpu::CoreResult &core : member.measured)
            max_seconds = std::max(max_seconds, core.seconds(3.0));
        // The LLC is shared: core 0 carries all of its energy.
        const cache::TimingCache &llc = member.uncore->llc;
        for (std::size_t c = 0; c < n; ++c) {
            RunResult r = member.machines[c]->collect(
                apps[c], *streams[c], member.measured[c],
                c == 0 ? llc.dynamicEnergyNj() : 0.0,
                c == 0 ? llc.params().staticPowerMw : 0.0,
                max_seconds);
            results[i].sumIpc += r.ipc;
            results[i].energy += r.energy;
            results[i].perCore.push_back(std::move(r));
        }
    }

    if (errors) {
        *errors = std::move(failed);
    } else {
        for (const std::exception_ptr &error : failed) {
            if (error)
                std::rethrow_exception(error);
        }
    }
    return results;
}

RunResult
runSingleCore(const std::string &app, const SystemConfig &config)
{
    return runGroup(JobKind::Single, {app}, {config})[0].perCore[0];
}

MulticoreResult
runMulticore(const std::vector<std::string> &mix,
             const SystemConfig &config)
{
    return runGroup(JobKind::Mix, mix, {config})[0];
}

} // namespace sipt::sim
