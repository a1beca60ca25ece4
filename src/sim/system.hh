/**
 * @file
 * Full-system assembly and the one run function.
 *
 * The system splits in two along what each part depends on. A
 * Stream (an application's address space and workload over
 * conditioned memory, and its TLB hierarchy; generate + resolve)
 * depends only on StreamSpec. A machine (TLB latencies and walker,
 * L1, below-L1, core; predict + memory + timing) depends on the rest of
 * SystemConfig; the LLC and DRAM behind it belong to its config and
 * are shared by that config's cores.
 *
 * runGroup() runs several configs that share one stream over one
 * conditioned memory: one app alone (a single job) or a
 * multiprogrammed mix (Tab. III mixes, Fig. 15), one Stream per
 * app and, per config, one machine per Stream. runSingleCore() and
 * runMulticore() are its one-config cases, and the sweep engine
 * runs every job through it. With two usable CPUs, a group runs its
 * stream half on a second host thread, and a lone run with three
 * runs its memory stage on a third (Overlap).
 */

#ifndef SIPT_SIM_SYSTEM_HH
#define SIPT_SIM_SYSTEM_HH

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "batch/pipeline.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "cpu/trace_source.hh"
#include "energy/accounting.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "os/shared_segment.hh"
#include "sim/presets.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"

namespace sipt::sim
{

/** Physical-memory operating condition (Sec. VII-B / Fig. 18). */
enum class MemCondition : std::uint8_t
{
    Normal,       ///< aged machine, weeks of uptime
    Fragmented,   ///< unusable-free-space index Fu(9) > 0.95
    ThpOff,       ///< transparent huge pages disabled
    NoContiguity, ///< every 4 KiB page placed at random
};

/** Printable condition name. */
const char *conditionName(MemCondition condition);

/**
 * Parse a CLI condition token: "normal", "fragmented", "thp-off",
 * "no-contig" (case-insensitive). nullopt for anything else.
 */
std::optional<MemCondition>
conditionFromName(std::string_view name);

/** Largest warmup or measured reference count accepted from
 *  SIPT_REFS, SIPT_WARMUP or a tool's --refs/--warmup flag. */
constexpr std::uint64_t maxRefs = std::uint64_t{1} << 40;

/**
 * Default warmup references per run; reads the SIPT_WARMUP
 * environment variable so CI smoke runs can shrink warmup the
 * same way SIPT_REFS shrinks measurement.
 */
std::uint64_t defaultWarmupRefs();

/** Default of SystemConfig::check: the SIPT_CHECK environment
 *  variable (0 or 1; any other value warns and reads as 0). */
bool defaultCheck();

/**
 * One experiment's system description. Its run-cache key is
 * sim::configToJson() (sim/sweep.hh): every field that influences
 * simulation results MUST appear there. configToJson(),
 * streamSpec() and tests/test_config_key.cpp each destructure this
 * struct with one structured binding, so a new field fails to
 * compile until it is keyed, sent to the stream or left to the
 * machine, and given a run-key mutation.
 */
struct SystemConfig
{
    /** Core + hierarchy depth: true = OOO/3-level (Tab. II left),
     *  false = in-order/2-level. */
    bool outOfOrder = true;
    L1Config l1Config = L1Config::Baseline32K8;
    /** Override the preset's L1 capacity (0 = keep the preset).
     *  Used by the fuzzer to sample arbitrary geometries. */
    std::uint64_t l1SizeBytes = 0;
    /** Override the preset's L1 associativity (0 = keep). */
    std::uint32_t l1Assoc = 0;
    /** Override the preset's L1 hit latency (0 = keep). */
    Cycles l1HitLatency = 0;
    IndexingPolicy policy = IndexingPolicy::Vipt;
    /** Override the translation-value predictor table entries of
     *  the Revelator / Pcax policies (0 = keep the L1Params
     *  defaults). Power of two; used by the fuzzer and the
     *  sensitivity sweeps. */
    std::uint32_t xlatPredEntries = 0;
    bool wayPrediction = false;
    /**
     * Model page walks as dependent PTE reads through the cache
     * hierarchy (radix walker + page-walk caches) instead of the
     * default constant walk latency.
     */
    bool radixWalker = false;
    MemCondition condition = MemCondition::Normal;
    /** Simulated physical memory (scaled from the paper's 16 GiB
     *  to keep sweeps fast; page-granular behaviour unchanged). */
    std::uint64_t physMemBytes = 4ull << 30;
    /** References to run before statistics reset. */
    std::uint64_t warmupRefs = defaultWarmupRefs();
    /** References measured. */
    std::uint64_t measureRefs = 400'000;
    std::uint64_t seed = 42;
    /** Scale factor applied to application footprints (used by
     *  the multicore driver to co-fit four apps). */
    double footprintScale = 1.0;
    /**
     * Arm every checking layer for this run: the L1's golden model
     * and counter invariants, the below-L1 writeback shim, and the
     * pipeline's translation and latency checks. Part of the
     * run-cache key because it changes the result payload
     * (RunResult::checkDigest and the VIVT counters).
     */
    bool check = defaultCheck();
};

/**
 * The SystemConfig fields a reference stream depends on: the
 * conditioned physical layout, the workload instance and the phase
 * lengths. Together with the app name (and a trace app's content
 * hash) they form the stream key, streamKeyJson() in sim/sweep.hh.
 * Everything else in SystemConfig describes the machine the stream
 * runs on, and the stream-side code (ConditionedMemory,
 * buildWorkload, Stream) takes only this struct, so it cannot read
 * a machine field.
 */
struct StreamSpec
{
    MemCondition condition = MemCondition::Normal;
    std::uint64_t physMemBytes = 0;
    std::uint64_t warmupRefs = 0;
    std::uint64_t measureRefs = 0;
    std::uint64_t seed = 0;
    double footprintScale = 1.0;

    bool operator==(const StreamSpec &) const = default;
};

/** The stream half of @p config. */
StreamSpec streamSpec(const SystemConfig &config);

/** The L1 geometry @p config runs: its preset's, with the
 *  l1SizeBytes and l1Assoc overrides applied. */
cache::CacheGeometry l1Geometry(const SystemConfig &config);

/**
 * Physical memory conditioned before any application starts
 * (Sec. VII-B): weeks-of-uptime allocator churn seeded by
 * spec.seed, then, for the Fragmented condition, fragmentation
 * to Fu(9) > 0.95. The pinned frames stand for other resident
 * processes.
 *
 * This is the one owner of frame lifetime. No teardown frees a
 * frame: the address spaces, shared segments, ager and
 * fragmenter drawing from `buddy` leave their frames allocated
 * when destroyed, and all of them die together with it at the
 * end of a job, so nothing could reuse a frame given back. It
 * must still outlive every one of them, because faults and COW
 * breaks allocate while the job runs.
 */
struct ConditionedMemory
{
    os::BuddyAllocator buddy;
    os::SystemAger ager;
    os::MemoryFragmenter fragmenter;
    /** The conditioning draws' RNG, seeded by spec.seed, in its
     *  state after them. */
    Rng rng;

    explicit ConditionedMemory(const StreamSpec &spec);
};

/** An application's address space and reference source. */
struct Workload
{
    std::unique_ptr<os::AddressSpace> as;
    std::unique_ptr<cpu::TraceSource> source;
};

/**
 * The two job shapes of the run key ("single" and "multi"). The
 * kind, not the number of apps, fixes a run's seeds (coreSeed()),
 * whether shared synonym segments are allocated up front (a mix)
 * or by the workload (a single job), and its episodes: one per
 * phase for a single job, one per 5,000-reference slice per core
 * for a mix, so that LLC and DRAM contention interleaves.
 */
enum class JobKind : std::uint8_t
{
    Single,
    Mix,
};

/** The seed of core @p core of a @p kind job with config seed
 *  @p seed: seed + 10 for a single job, seed + 100 * (core + 1) for
 *  a mix (address space +1, workload +2, core model +3). */
std::uint64_t coreSeed(JobKind kind, std::uint64_t seed,
                       std::size_t core);

/**
 * One application's reference stream: its workload over
 * conditioned memory, its TLB hierarchy (mmuPreset(), Tab. II: one
 * for every design), and the generate + resolve stages that turn
 * it into resolved batches. Any number of machines can consume one
 * Stream (runGroup()); nothing in it depends on the machine.
 */
class Stream
{
  public:
    /**
     * Build @p app's workload with @p seed (coreSeed()) from
     * memory the caller conditioned and keeps alive. @p shared is
     * the segment a shared-mode synonym app attaches, or null.
     */
    Stream(const std::string &app, const StreamSpec &spec,
           os::BuddyAllocator &buddy, std::uint64_t seed,
           const os::SharedSegment *shared = nullptr);

    /** The stream of a workload the caller built. */
    explicit Stream(Workload workload);

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /** The generate + resolve stages over this stream. */
    batch::StreamStages &stages() { return stages_; }

    const os::AddressSpace &
    addressSpace() const
    {
        return *workload_.as;
    }

    /** The TLB hierarchy the resolve stage advances. */
    const vm::Mmu &tlbs() const { return tlbs_; }

    /** End of warmup: zero the TLB counters (entries kept). */
    void resetStats() { tlbs_.resetStats(); }

  private:
    Workload workload_;
    vm::Mmu tlbs_;
    batch::StreamStages stages_;
};

/** Metrics from one application run. */
struct RunResult
{
    std::string app;
    double ipc = 0.0;
    double cycles = 0.0;
    InstCount instructions = 0;
    L1Stats l1;
    double l1HitRate = 0.0;
    /** Fraction of accesses completing without waiting for the
     *  TLB (the paper's "fast accesses"). */
    double fastFraction = 0.0;
    energy::EnergyBreakdown energy;
    /** Fraction of the app's memory that is THP-backed. */
    double hugeCoverage = 0.0;
    /** MRU way-prediction accuracy (0 when disabled). */
    double wayPredAccuracy = 0.0;
    double dtlbHitRate = 0.0;
    std::uint64_t pageWalks = 0;
    /** L1 misses per kilo-instruction. */
    double l1Mpki = 0.0;
    /** Stable digest of the measured-phase functional event
     *  stream (0 unless the run was checked). Policy-invariant:
     *  every indexing policy must produce the same digest for the
     *  same (app, geometry, workload). */
    std::uint64_t checkDigest = 0;
    /** Events behind checkDigest (0 unless checked). */
    std::uint64_t checkEvents = 0;
    /** First golden-model divergence, invariant violation,
     *  translation mismatch, implausible latency, or writeback-shim
     *  failure; empty when clean. */
    std::string checkFailure;
    /** VIVT strawman bookkeeping over the measured phase (all 0
     *  unless the run was checked): reverse-map probes a virtually
     *  tagged L1 would have issued on virtual-tag misses... */
    std::uint64_t vivtReverseProbes = 0;
    /** ...the synonym invalidations those probes triggered (same
     *  physical line cached under another virtual name)... */
    std::uint64_t vivtInvalidations = 0;
    /** ...and how many displaced copies were dirty, forcing a
     *  data forward. SIPT's physical tags make all three zero-cost
     *  non-events; the counters quantify the avoided machinery and
     *  never affect digests or failures. */
    std::uint64_t vivtDirtyForwards = 0;
};

/**
 * Default measured references per run; reads the SIPT_REFS
 * environment variable so CI can shrink experiments.
 */
std::uint64_t defaultMeasureRefs();

/** The result of one job: one RunResult per core, in app order
 *  (one for a single job). */
struct MulticoreResult
{
    std::vector<RunResult> perCore;
    /** Sum of per-core IPCs (the paper's throughput metric). */
    double sumIpc = 0.0;
    /** Total cache-hierarchy energy across all cores + LLC. */
    energy::EnergyBreakdown energy;
};

/**
 * Where a group run's stages run. Threaded puts generate + resolve
 * on a second host thread (StreamThread, sim/sweep.hh) that works
 * ahead of the machines; Pipelined also puts every machine's
 * memory stage (the hierarchy's function) on a third, between the
 * two, and the caller predicts and times. The caller steps every
 * machine over the same batches in the same order, so results are
 * bit-identical to Inline. Auto, for a run that has the host to
 * itself, is Pipelined iff the process has at least three usable
 * CPUs (usableCpus()), else Threaded iff it has two. A SweepRunner
 * passes Threaded or Inline for its groups by the same two-CPU
 * rule; only tests force Pipelined.
 */
enum class Overlap : std::uint8_t
{
    Auto,
    Inline,
    Threaded,
    Pipelined,
};

/**
 * Run @p apps as one @p kind job under every config of @p configs,
 * which must share one stream (equal streamSpec(); panics
 * otherwise). One ConditionedMemory and one Stream per app serve
 * every config: each batch is generated and resolved once, and each
 * config's machine for that app steps it. Each config has its own
 * LLC and DRAM, so every result is bit-identical to a solo run.
 * Results are not compared with each other here: the sweep
 * engine's functional oracle (sim/sweep.hh) screens every checked
 * result, grouped or not.
 *
 * One config's exception does not stop the others. With @p errors
 * null the first is rethrown after the run; else (*errors)[i] holds
 * config i's exception or null, and result i is meaningful only
 * when it is null. A stream's exception propagates, from the
 * stream thread too. @p overlap says where the stream and memory
 * stages run.
 */
std::vector<MulticoreResult>
runGroup(JobKind kind, const std::vector<std::string> &apps,
         const std::vector<SystemConfig> &configs,
         std::vector<std::exception_ptr> *errors = nullptr,
         Overlap overlap = Overlap::Auto);

/**
 * runGroup() over streams the caller built (one per app, in
 * @p apps' order, with coreSeed() seeds) and keeps alive, with the
 * memory they draw from: builds every config's machines, runs the
 * warmup and measure phases and collects the results. runGroup()
 * conditions the memory and builds the streams, then calls this.
 */
std::vector<MulticoreResult>
runOnStreams(JobKind kind, std::span<Stream *const> streams,
             const std::vector<std::string> &apps,
             const std::vector<SystemConfig> &configs,
             std::vector<std::exception_ptr> *errors,
             Overlap overlap);

/** Run one application on one system: a one-config single job. */
RunResult runSingleCore(const std::string &app,
                        const SystemConfig &config);

/** Run a multiprogrammed mix, one application per core, over a
 *  shared LLC, DRAM and physical memory: a one-config mix. */
MulticoreResult runMulticore(const std::vector<std::string> &mix,
                             const SystemConfig &config);

/**
 * True when @p app names a recorded trace instead of a synthetic
 * profile: "trace:<path>". Trace apps are accepted everywhere an
 * app name is (runSingleCore, runMulticore mixes, the sweep
 * engine), replaying the file's recorded reference stream and
 * VA->PA layout through the full pipeline.
 */
bool isTraceApp(const std::string &app);

/** The file path behind a "trace:<path>" app name. */
std::string traceAppPath(const std::string &app);

/**
 * Record @p app's reference stream to a trace file at @p path:
 * the VA->PA layout after the allocation phase, then the
 * warmupRefs+measureRefs references of the workload
 * runSingleCore()'s Stream would build. Replaying the file under
 * the same SystemConfig is digest-identical to the live run. Fatal
 * when @p app is itself a trace app or the file cannot be written.
 */
void recordTrace(const std::string &app,
                 const SystemConfig &config,
                 const std::string &path);

} // namespace sipt::sim

#endif // SIPT_SIM_SYSTEM_HH
