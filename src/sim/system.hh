/**
 * @file
 * Full-system assembly and experiment drivers.
 *
 * runSingleCore() builds one complete simulated system — physical
 * memory with a conditioned buddy allocator, an address space under
 * the requested paging policy, TLBs, the L1 under a chosen indexing
 * policy, the lower hierarchy, DRAM, and a core model — runs one
 * named application on it, and returns the metrics every figure of
 * the paper is built from.
 *
 * The system splits in two along what each part depends on. A
 * Stream (conditioned memory, address space, workload; generate +
 * resolve) depends only on StreamSpec. A machine (MMU and walker,
 * L1, below-L1, LLC, DRAM, core; predict + account) depends on the
 * rest of SystemConfig. runSameStream() runs one Stream under
 * several machines at once, which is how the sweep engine runs
 * configs that share a stream.
 *
 * runMulticore() instantiates four such cores over a shared LLC,
 * DRAM, and physical allocator (Tab. III mixes, Fig. 15).
 */

#ifndef SIPT_SIM_SYSTEM_HH
#define SIPT_SIM_SYSTEM_HH

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "batch/pipeline.hh"
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
     * pipeline's golden-TLB and latency checks. Part of the
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

/**
 * Physical memory conditioned before any application starts
 * (Sec. VII-B): weeks-of-uptime allocator churn seeded by
 * spec.seed, then, for the Fragmented condition, fragmentation
 * to Fu(9) > 0.95. The pinned frames stand for other resident
 * processes, so this must outlive every address space allocated
 * from its buddy allocator.
 */
struct ConditionedMemory
{
    os::BuddyAllocator buddy;
    os::SystemAger ager;
    os::MemoryFragmenter fragmenter;

    explicit ConditionedMemory(const StreamSpec &spec);
};

/** An application's address space and reference source. */
struct Workload
{
    std::unique_ptr<os::AddressSpace> as;
    std::unique_ptr<cpu::TraceSource> source;
};

/**
 * Build @p app's address space and reference source under
 * spec's condition and footprint scale: the allocation phase
 * demand-faults every page in from @p buddy. Seeds derive from
 * @p seed (+1 address space, +2 workload). @p shared is the
 * physical segment a shared-mode synonym app attaches (else null).
 */
Workload buildWorkload(const StreamSpec &spec, const std::string &app,
                       os::BuddyAllocator &buddy, std::uint64_t seed,
                       const os::SharedSegment *shared);

/**
 * One application's reference stream: its workload over
 * conditioned memory, and the generate + resolve stages that turn
 * it into resolved batches. Any number of machines can consume one
 * Stream (runSameStream()); nothing in it depends on the machine.
 */
class Stream
{
  public:
    /**
     * A single-core stream: conditions its own memory and builds
     * @p app's workload with seed spec.seed + 10.
     */
    Stream(const std::string &app, const StreamSpec &spec);

    /**
     * One core of a multicore mix: builds @p app's workload with
     * @p seed from memory the caller conditioned and shares.
     */
    Stream(const std::string &app, const StreamSpec &spec,
           os::BuddyAllocator &buddy, std::uint64_t seed,
           const os::SharedSegment *shared);

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /** The generate + resolve stages over this stream. */
    batch::StreamStages &stages() { return stages_; }

    /** The unresolved reference source (trace recording reads it
     *  directly; a run goes through stages()). */
    cpu::TraceSource &source() { return *workload_.source; }

    const os::AddressSpace &
    addressSpace() const
    {
        return *workload_.as;
    }

  private:
    /** Null when the memory is shared (multicore). Declared first
     *  so it outlives the address space. */
    std::unique_ptr<ConditionedMemory> memory_;
    Workload workload_;
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
    /** First golden-model divergence, invariant violation, TLB
     *  mismatch, implausible latency, or writeback-shim failure;
     *  empty when clean. */
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

/** Run one application on one system: runSameStream(app,
 *  {config})[0]. */
RunResult runSingleCore(const std::string &app,
                        const SystemConfig &config);

/**
 * Run @p app on every system of @p configs, which must share one
 * stream (equal streamSpec(); panics otherwise): one Stream
 * conditions memory, generates and resolves each batch once, and
 * every config's machine steps that batch in turn. Each phase
 * (warmup, measure) is one episode per machine, so every result is
 * bit-identical to running that config alone.
 *
 * An exception from one machine does not stop the others. With
 * @p errors null the first one is rethrown after the run; else
 * (*errors)[i] holds config i's exception, or null, and result i is
 * meaningful only when it is null. An exception from the stream
 * itself propagates.
 */
std::vector<RunResult>
runSameStream(const std::string &app,
              const std::vector<SystemConfig> &configs,
              std::vector<std::exception_ptr> *errors = nullptr);

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
 * warmupRefs+measureRefs references of the same Stream
 * runSingleCore() would build. Replaying the file under the same
 * SystemConfig is digest-identical to the live run. Fatal when @p app is itself a
 * trace app or the file cannot be written.
 */
void recordTrace(const std::string &app,
                 const SystemConfig &config,
                 const std::string &path);

/** Result of a quad-core multiprogrammed run. */
struct MulticoreResult
{
    std::vector<RunResult> perCore;
    /** Sum of per-core IPCs (the paper's throughput metric). */
    double sumIpc = 0.0;
    /** Total cache-hierarchy energy across all cores + LLC. */
    energy::EnergyBreakdown energy;
};

/**
 * Run a multiprogrammed mix, one application per core, over a
 * shared LLC/DRAM/physical memory. Cores advance in small
 * time-slices so shared-resource contention is interleaved.
 */
MulticoreResult runMulticore(const std::vector<std::string> &mix,
                             const SystemConfig &config);

} // namespace sipt::sim

#endif // SIPT_SIM_SYSTEM_HH
