#include "sim/system.hh"

#include <cctype>
#include <map>
#include <memory>
#include <string_view>

#include "batch/pipeline.hh"
#include "check/options.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "dram/dram.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "os/shared_segment.hh"
#include "workload/profile.hh"
#include "workload/synonym.hh"
#include "workload/synthetic.hh"
#include "workload/trace_record.hh"
#include "workload/trace_replay.hh"

namespace sipt::sim
{

namespace
{

/** A single-core run's workload seed base (address space +1,
 *  workload +2, core model +3). */
constexpr std::uint64_t singleCoreSeedOffset = 10;

/** PTE reads of the radix walker go through the hierarchy. */
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

/** The LLC and DRAM behind one machine, or shared by the cores of
 *  a multicore mix. */
struct Uncore
{
    dram::Dram dram;
    cache::TimingCache llc;

    Uncore(bool out_of_order, std::uint32_t cores)
        : llc(llcPreset(out_of_order, cores))
    {
    }

    void
    resetStats()
    {
        llc.resetStats();
        dram.resetStats();
    }
};

/**
 * One simulated machine: everything a SystemConfig adds to a
 * Stream — MMU and walker, L1, below-L1 hierarchy, LLC and DRAM
 * (its own, or a mix's shared ones) and the core. Its
 * batch::MachineStages run predict + account over the stream's
 * resolved batches.
 */
class Machine
{
  public:
    /** A single-core machine with its own LLC and DRAM. */
    Machine(const SystemConfig &config, const Stream &stream)
        : Machine(config, stream,
                  std::make_unique<Uncore>(config.outOfOrder, 1),
                  nullptr, config.seed + singleCoreSeedOffset)
    {
    }

    /** One core of a mix over the shared @p uncore. */
    Machine(const SystemConfig &config, const Stream &stream,
            Uncore &uncore, std::uint64_t seed)
        : Machine(config, stream, nullptr, &uncore, seed)
    {
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    batch::MachineStages &stages() { return stages_; }

    /** End of warmup: zero every counter this machine owns
     *  (a shared uncore is reset by its owner). */
    void
    resetStats()
    {
        l1_.resetStats();
        below_.resetStats();
        mmu_.resetStats();
        if (ownUncore_)
            ownUncore_->resetStats();
    }

    /** The run's metrics, over the measured episode @p measured,
     *  with @p llc_dyn_share / @p llc_static_share_mw of the LLC's
     *  energy and a run of @p seconds. */
    RunResult collect(const std::string &app, const Stream &stream,
                      const cpu::CoreResult &measured,
                      double llc_dyn_share,
                      double llc_static_share_mw,
                      double seconds) const;

    /** collect() for a single-core machine: all of its own LLC,
     *  over the measured episode's duration. */
    RunResult
    collect(const std::string &app, const Stream &stream,
            const cpu::CoreResult &measured) const
    {
        return collect(app, stream, measured,
                       uncore_.llc.dynamicEnergyNj(),
                       uncore_.llc.params().staticPowerMw,
                       measured.seconds(3.0));
    }

  private:
    Machine(const SystemConfig &config, const Stream &stream,
            std::unique_ptr<Uncore> own, Uncore *shared,
            std::uint64_t seed)
        : ownUncore_(std::move(own)),
          uncore_(ownUncore_ ? *ownUncore_ : *shared),
          check_(check::Options::fromEnv(config.check)),
          mmu_(mmuPreset()),
          below_([&] {
              const cache::TimingCacheParams l2 = l2Preset();
              return cache::BelowL1(config.outOfOrder ? &l2 : nullptr,
                                    uncore_.llc, uncore_.dram, check_);
          }()),
          l1_(l1ParamsFor(config, check_), below_),
          core_([&] {
              cpu::CoreParams p = config.outOfOrder
                                      ? cpu::outOfOrderCoreParams()
                                      : cpu::inOrderCoreParams();
              p.seed = seed + 3;
              return p;
          }()),
          stages_(mmu_, stream.addressSpace().pageTable(), l1_,
                  core_)
    {
        if (config.radixWalker) {
            walkPort_ = std::make_unique<WalkThroughCaches>(below_);
            walker_ = std::make_unique<vm::PageWalker>(
                vm::WalkerParams{}, *walkPort_);
            mmu_.setWalker(walker_.get());
        }
    }

    std::unique_ptr<Uncore> ownUncore_;
    Uncore &uncore_;
    /** The checker switches every layer is armed with. */
    check::Options check_;
    vm::Mmu mmu_;
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
    const auto &small = mmu_.l1Small();
    const auto &huge = mmu_.l1Huge();
    const std::uint64_t tlb_lookups = small.hits() +
                                      small.misses() +
                                      huge.hits() + huge.misses();
    r.dtlbHitRate =
        tlb_lookups ? static_cast<double>(small.hits() +
                                          huge.hits()) /
                          static_cast<double>(tlb_lookups)
                    : 0.0;
    r.pageWalks = mmu_.walks();
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

} // namespace

StreamSpec
streamSpec(const SystemConfig &config)
{
    // One binding per field: a new SystemConfig field fails to
    // compile here until it goes to the stream below or is left,
    // like the others, to the machine.
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

ConditionedMemory::ConditionedMemory(const StreamSpec &spec)
    : buddy(spec.physMemBytes / pageSize), ager(buddy),
      fragmenter(buddy)
{
    Rng rng(spec.seed);
    ager.age(os::SystemAger::uptimeChurnOps,
             os::SystemAger::uptimeResidentFraction, rng);
    if (spec.condition == MemCondition::Fragmented)
        fragmenter.fragmentTo(0.95, 9, rng, 0.30);
}

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

Stream::Stream(const std::string &app, const StreamSpec &spec)
    : memory_(std::make_unique<ConditionedMemory>(spec)),
      workload_(buildWorkload(spec, app, memory_->buddy,
                              spec.seed + singleCoreSeedOffset,
                              nullptr)),
      stages_(*workload_.source, workload_.as->pageTable())
{
}

Stream::Stream(const std::string &app, const StreamSpec &spec,
               os::BuddyAllocator &buddy, std::uint64_t seed,
               const os::SharedSegment *shared)
    : workload_(buildWorkload(spec, app, buddy, seed, shared)),
      stages_(*workload_.source, workload_.as->pageTable())
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

    // The Stream runSingleCore() would build: the recorded layout
    // and references are exactly what the live run sees. Snapshot
    // the layout after the allocation phase (for synonym apps it is
    // many-to-one), then record the stream a core would consume.
    // The recording needs no resolved addresses, so it reads the
    // source directly.
    Stream stream(app, streamSpec(config));
    workload::TraceRecorder recorder(path, app, config.seed,
                                     stream.addressSpace());
    const std::uint64_t total =
        config.warmupRefs + config.measureRefs;
    MemRef ref;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (!stream.source().next(ref))
            break;
        recorder.record(ref);
    }
    recorder.finish();
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

RunResult
runSingleCore(const std::string &app, const SystemConfig &config)
{
    return runSameStream(app, {config})[0];
}

std::vector<RunResult>
runSameStream(const std::string &app,
              const std::vector<SystemConfig> &configs,
              std::vector<std::exception_ptr> *errors)
{
    SIPT_ASSERT(!configs.empty(), "runSameStream: no configs");
    const StreamSpec spec = streamSpec(configs.front());
    for (const SystemConfig &config : configs) {
        if (streamSpec(config) != spec)
            panic("runSameStream: the configs for ", app,
                  " do not share one stream key");
    }
    Stream stream(app, spec);

    const std::size_t k = configs.size();
    std::vector<std::exception_ptr> failed(k);
    std::vector<std::unique_ptr<Machine>> machines(k);
    std::vector<batch::MachineStages *> stages;
    for (std::size_t i = 0; i < k; ++i) {
        try {
            machines[i] = std::make_unique<Machine>(configs[i], stream);
            stages.push_back(&machines[i]->stages());
        } catch (...) {
            failed[i] = std::current_exception();
        }
    }

    batch::runPhase(stream.stages(), stages, spec.warmupRefs);
    for (const auto &machine : machines) {
        if (machine)
            machine->resetStats();
    }
    const std::vector<cpu::CoreResult> measured =
        batch::runPhase(stream.stages(), stages, spec.measureRefs);

    std::vector<RunResult> results(k);
    std::size_t phase = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (!machines[i])
            continue;
        const cpu::CoreResult &episode = measured[phase++];
        if (machines[i]->stages().error())
            failed[i] = machines[i]->stages().error();
        else
            results[i] = machines[i]->collect(app, stream, episode);
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

MulticoreResult
runMulticore(const std::vector<std::string> &mix,
             const SystemConfig &config)
{
    if (mix.empty())
        fatal("runMulticore: empty mix");
    const auto cores = static_cast<std::uint32_t>(mix.size());

    const StreamSpec spec = streamSpec(config);
    ConditionedMemory memory(spec);
    Uncore uncore(config.outOfOrder, cores);

    // Shared-mode synonym apps naming the same profile attach the
    // same physical segment from every core — cross-core synonyms
    // over the shared LLC, not per-core private copies. Declared
    // before the cores so the frames outlive every address space
    // mapping them.
    std::map<std::string, std::unique_ptr<os::SharedSegment>>
        segments;
    for (const std::string &app : mix) {
        if (!workload::isSynonymApp(app))
            continue;
        const workload::SynonymSpec synonym =
            workload::synonymSpec(app);
        if (synonym.mode != workload::SynonymSpec::Mode::Shared)
            continue;
        const std::string key = workload::synonymAppName(synonym);
        if (segments.count(key) == 0) {
            segments.emplace(
                key,
                std::make_unique<os::SharedSegment>(
                    memory.buddy,
                    workload::synonymMappingBytes(synonym),
                    synonym.hugePages));
        }
    }

    // Each core is one Stream and one Machine; the streams draw
    // from the shared memory in core order.
    std::vector<std::unique_ptr<Stream>> streams;
    std::vector<std::unique_ptr<Machine>> machines;
    for (std::uint32_t c = 0; c < cores; ++c) {
        const os::SharedSegment *shared = nullptr;
        if (workload::isSynonymApp(mix[c])) {
            const auto it = segments.find(workload::synonymAppName(
                workload::synonymSpec(mix[c])));
            if (it != segments.end())
                shared = it->second.get();
        }
        const std::uint64_t seed = config.seed + 100 * (c + 1);
        streams.push_back(std::make_unique<Stream>(
            mix[c], spec, memory.buddy, seed, shared));
        machines.push_back(std::make_unique<Machine>(
            config, *streams.back(), uncore, seed));
    }

    // Interleave cores in slices so LLC/DRAM contention mixes.
    constexpr std::uint64_t slice = 5'000;
    std::vector<cpu::CoreResult> measured(cores);
    auto run_phase = [&](std::uint64_t refs_per_core) {
        std::vector<std::uint64_t> done(cores, 0);
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::uint32_t c = 0; c < cores; ++c) {
                if (done[c] >= refs_per_core)
                    continue;
                const std::uint64_t n = std::min(
                    slice, refs_per_core - done[c]);
                batch::MachineStages *const core =
                    &machines[c]->stages();
                const cpu::CoreResult res = batch::runPhase(
                    streams[c]->stages(), {&core, 1}, n)[0];
                if (core->error())
                    std::rethrow_exception(core->error());
                measured[c].cycles += res.cycles;
                measured[c].instructions += res.instructions;
                measured[c].memRefs += res.memRefs;
                done[c] += n;
                progress = true;
            }
        }
    };

    run_phase(config.warmupRefs);
    for (std::uint32_t c = 0; c < cores; ++c) {
        machines[c]->resetStats();
        measured[c] = cpu::CoreResult{};
    }
    uncore.resetStats();
    run_phase(config.measureRefs);

    MulticoreResult result;
    double max_seconds = 0.0;
    for (const cpu::CoreResult &core : measured)
        max_seconds = std::max(max_seconds, core.seconds(3.0));
    // LLC dynamic energy is shared; attribute it wholly to the
    // run (core share = 0 except the first, which carries it).
    for (std::uint32_t c = 0; c < cores; ++c) {
        const double llc_dyn =
            c == 0 ? uncore.llc.dynamicEnergyNj() : 0.0;
        const double llc_static =
            c == 0 ? uncore.llc.params().staticPowerMw : 0.0;
        RunResult r = machines[c]->collect(mix[c], *streams[c],
                                           measured[c], llc_dyn,
                                           llc_static, max_seconds);
        result.sumIpc += r.ipc;
        result.energy += r.energy;
        result.perCore.push_back(std::move(r));
    }
    return result;
}

} // namespace sipt::sim
