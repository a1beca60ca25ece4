#include "sim/system.hh"

#include <cctype>
#include <map>
#include <memory>
#include <string_view>

#include "batch/pipeline.hh"
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

/** Allocator churn applied for the "weeks of uptime" baseline. */
constexpr std::uint64_t agingChurnOps = 20'000;
constexpr double agingResidentFraction = 0.22;

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

/** Everything one core owns. */
struct CoreInstance
{
    Workload workload;
    std::unique_ptr<vm::Mmu> mmu;
    std::unique_ptr<cache::BelowL1> below;
    std::unique_ptr<SiptL1Cache> l1;
    std::unique_ptr<cpu::TraceCore> core;
    std::unique_ptr<WalkThroughCaches> walkPort;
    std::unique_ptr<vm::PageWalker> walker;
    std::unique_ptr<batch::BatchPipeline> pipeline;
    cpu::CoreResult measured;
};

os::PagingPolicy
policyFor(const SystemConfig &config, double thp_affinity)
{
    os::PagingPolicy pol;
    switch (config.condition) {
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

CoreInstance
buildCore(const SystemConfig &config, const std::string &app,
          os::BuddyAllocator &buddy, cache::TimingCache &llc,
          dram::Dram &dram, std::uint64_t seed,
          const os::SharedSegment *shared = nullptr)
{
    CoreInstance inst;
    inst.workload = buildWorkload(config, app, buddy, seed, shared);
    inst.mmu = std::make_unique<vm::Mmu>(mmuPreset());

    const cache::TimingCacheParams l2 = l2Preset();
    inst.below = std::make_unique<cache::BelowL1>(
        config.outOfOrder ? &l2 : nullptr, llc, dram);
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
    if (config.check)
        l1_params.check.enabled = true;
    inst.l1 = std::make_unique<SiptL1Cache>(l1_params,
                                            *inst.below);
    inst.core = std::make_unique<cpu::TraceCore>([&] {
        cpu::CoreParams p = config.outOfOrder
                                ? cpu::outOfOrderCoreParams()
                                : cpu::inOrderCoreParams();
        p.seed = seed + 3;
        return p;
    }());
    if (config.radixWalker) {
        inst.walkPort =
            std::make_unique<WalkThroughCaches>(*inst.below);
        inst.walker = std::make_unique<vm::PageWalker>(
            vm::WalkerParams{}, *inst.walkPort);
        inst.mmu->setWalker(inst.walker.get());
    }
    inst.pipeline = std::make_unique<batch::BatchPipeline>(
        *inst.workload.source, *inst.mmu,
        inst.workload.as->pageTable(), *inst.l1, *inst.core);
    return inst;
}

void
resetCoreStats(CoreInstance &inst)
{
    inst.l1->resetStats();
    inst.below->resetStats();
    inst.mmu->resetStats();
}

RunResult
collect(const std::string &app, const CoreInstance &inst,
        double llc_dyn_share, double llc_static_share_mw,
        double seconds)
{
    RunResult r;
    r.app = app;
    r.cycles = inst.measured.cycles;
    r.instructions = inst.measured.instructions;
    r.ipc = inst.measured.ipc();
    r.l1 = inst.l1->stats();
    r.l1HitRate = inst.l1->hitRate();
    r.fastFraction = inst.l1->fastFraction();
    r.hugeCoverage = inst.workload.as->hugeCoverage();
    r.energy = energy::computeEnergy(
        *inst.l1, *inst.below, llc_dyn_share,
        llc_static_share_mw, seconds);
    if (const auto *wp = inst.l1->wayPredictor())
        r.wayPredAccuracy = wp->accuracy();
    const auto &small = inst.mmu->l1Small();
    const auto &huge = inst.mmu->l1Huge();
    const std::uint64_t tlb_lookups = small.hits() +
                                      small.misses() +
                                      huge.hits() + huge.misses();
    r.dtlbHitRate =
        tlb_lookups ? static_cast<double>(small.hits() +
                                          huge.hits()) /
                          static_cast<double>(tlb_lookups)
                    : 0.0;
    r.pageWalks = inst.mmu->walks();
    r.l1Mpki = r.instructions
                   ? 1000.0 *
                         static_cast<double>(r.l1.misses) /
                         static_cast<double>(r.instructions)
                   : 0.0;
    r.checkDigest = inst.l1->checkDigest();
    r.checkEvents = inst.l1->checkEventCount();
    // The first failure wins, whichever layer saw it.
    r.checkFailure = inst.l1->checkFailure();
    if (r.checkFailure.empty() && inst.below->fillTracker())
        r.checkFailure = inst.below->fillTracker()->failure();
    if (r.checkFailure.empty())
        r.checkFailure = inst.pipeline->checkFailure();
    if (const auto *checker = inst.l1->checker()) {
        const auto &vivt = checker->vivt().stats();
        r.vivtReverseProbes = vivt.reverseMapProbes;
        r.vivtInvalidations = vivt.synonymInvalidations;
        r.vivtDirtyForwards = vivt.dirtyForwards;
    }
    return r;
}

} // namespace

ConditionedMemory::ConditionedMemory(const SystemConfig &config)
    : buddy(config.physMemBytes / pageSize), ager(buddy),
      fragmenter(buddy)
{
    Rng rng(config.seed);
    ager.age(agingChurnOps, agingResidentFraction, rng);
    if (config.condition == MemCondition::Fragmented)
        fragmenter.fragmentTo(0.95, 9, rng, 0.30);
}

Workload
buildWorkload(const SystemConfig &config, const std::string &app,
              os::BuddyAllocator &buddy, std::uint64_t seed,
              const os::SharedSegment *shared)
{
    Workload w;
    if (isTraceApp(app)) {
        // Replay: the trace supplies the layout and mapping, so
        // the paging policy and footprint scale are moot (no
        // demand fault ever fires).
        w.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(config, 0.0), seed + 1);
        w.source = std::make_unique<workload::TraceReplaySource>(
            traceAppPath(app), *w.as, /*loop=*/true);
    } else if (workload::isSynonymApp(app)) {
        // Multi-mapping scenarios: mmapAlias/mmapCow need
        // small-mapped sources, so THP stays off for these
        // regardless of condition. Footprints are fixed (no
        // scaling): a few hundred KiB against gigabytes.
        w.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(config, 0.0), seed + 1);
        w.source = std::make_unique<workload::SynonymWorkload>(
            workload::synonymSpec(app), *w.as, seed + 2, shared);
    } else {
        workload::AppProfile profile = workload::appProfile(app);
        profile.footprintBytes = static_cast<std::uint64_t>(
            static_cast<double>(profile.footprintBytes) *
            config.footprintScale);
        w.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(config, profile.thpAffinity),
            seed + 1);
        w.source = std::make_unique<workload::SyntheticWorkload>(
            profile, *w.as, seed + 2);
    }
    return w;
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

    // Same conditioning, seed derivation and workload build as
    // runSingleCore(): the recorded stream and layout are exactly
    // what the live run would have seen.
    ConditionedMemory memory(config);
    const Workload w = buildWorkload(config, app, memory.buddy,
                                     config.seed + 10, nullptr);

    // Allocation phase done: snapshot the layout (for synonym
    // apps that layout is many-to-one), then record the stream a
    // core would consume into the file.
    workload::TraceRecorder recorder(path, app, config.seed, *w.as);
    const std::uint64_t total =
        config.warmupRefs + config.measureRefs;
    MemRef ref;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (!w.source->next(ref))
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

RunResult
runSingleCore(const std::string &app, const SystemConfig &config)
{
    ConditionedMemory memory(config);
    dram::Dram dram;
    cache::TimingCache llc(llcPreset(config.outOfOrder, 1));

    CoreInstance inst = buildCore(config, app, memory.buddy, llc,
                                  dram, config.seed + 10);

    inst.pipeline->run(config.warmupRefs);
    resetCoreStats(inst);
    llc.resetStats();
    dram.resetStats();

    inst.measured = inst.pipeline->run(config.measureRefs);

    const double seconds = inst.measured.seconds(3.0);
    return collect(app, inst, llc.dynamicEnergyNj(),
                   llc.params().staticPowerMw, seconds);
}

MulticoreResult
runMulticore(const std::vector<std::string> &mix,
             const SystemConfig &config)
{
    if (mix.empty())
        fatal("runMulticore: empty mix");
    const auto cores = static_cast<std::uint32_t>(mix.size());

    ConditionedMemory memory(config);
    dram::Dram dram;
    cache::TimingCache llc(llcPreset(config.outOfOrder, cores));

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
        const workload::SynonymSpec spec =
            workload::synonymSpec(app);
        if (spec.mode != workload::SynonymSpec::Mode::Shared)
            continue;
        const std::string key = workload::synonymAppName(spec);
        if (segments.count(key) == 0) {
            segments.emplace(
                key,
                std::make_unique<os::SharedSegment>(
                    memory.buddy,
                    workload::synonymMappingBytes(spec),
                    spec.hugePages));
        }
    }

    std::vector<CoreInstance> insts;
    insts.reserve(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        const os::SharedSegment *shared = nullptr;
        if (workload::isSynonymApp(mix[c])) {
            const auto it = segments.find(workload::synonymAppName(
                workload::synonymSpec(mix[c])));
            if (it != segments.end())
                shared = it->second.get();
        }
        insts.push_back(buildCore(config, mix[c], memory.buddy,
                                  llc, dram,
                                  config.seed + 100 * (c + 1),
                                  shared));
    }

    // Interleave cores in slices so LLC/DRAM contention mixes.
    constexpr std::uint64_t slice = 5'000;
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
                const auto res = insts[c].pipeline->run(n);
                insts[c].measured.cycles += res.cycles;
                insts[c].measured.instructions +=
                    res.instructions;
                insts[c].measured.memRefs += res.memRefs;
                done[c] += n;
                progress = true;
            }
        }
    };

    run_phase(config.warmupRefs);
    for (auto &inst : insts) {
        resetCoreStats(inst);
        inst.measured = cpu::CoreResult{};
    }
    llc.resetStats();
    dram.resetStats();
    run_phase(config.measureRefs);

    MulticoreResult result;
    double max_seconds = 0.0;
    for (const auto &inst : insts) {
        max_seconds =
            std::max(max_seconds, inst.measured.seconds(3.0));
    }
    // LLC dynamic energy is shared; attribute it wholly to the
    // run (core share = 0 except the first, which carries it).
    for (std::uint32_t c = 0; c < cores; ++c) {
        const double llc_dyn =
            c == 0 ? llc.dynamicEnergyNj() : 0.0;
        const double llc_static =
            c == 0 ? llc.params().staticPowerMw : 0.0;
        RunResult r = collect(mix[c], insts[c], llc_dyn,
                              llc_static, max_seconds);
        result.sumIpc += r.ipc;
        result.energy += r.energy;
        result.perCore.push_back(std::move(r));
    }
    return result;
}

} // namespace sipt::sim
