/**
 * @file
 * Full-system assembly and experiment drivers.
 *
 * runSingleCore() builds one complete simulated machine — physical
 * memory with a conditioned buddy allocator, an address space under
 * the requested paging policy, TLBs, the L1 under a chosen indexing
 * policy, the lower hierarchy, DRAM, and a core model — runs one
 * named application on it, and returns the metrics every figure of
 * the paper is built from.
 *
 * runMulticore() instantiates four such cores over a shared LLC,
 * DRAM, and physical allocator (Tab. III mixes, Fig. 15).
 */

#ifndef SIPT_SIM_SYSTEM_HH
#define SIPT_SIM_SYSTEM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/core.hh"
#include "energy/accounting.hh"
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

/**
 * Default warmup references per run; reads the SIPT_WARMUP
 * environment variable so CI smoke runs can shrink warmup the
 * same way SIPT_REFS shrinks measurement.
 */
std::uint64_t defaultWarmupRefs();

/** One experiment's system description. */
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
     * Force differential golden-model checking for this run, in
     * addition to the SIPT_CHECK environment gate (the fuzzer sets
     * this so RunResult::checkDigest is always populated). Part of
     * the run-cache key because it changes the result payload.
     */
    bool check = false;

    /**
     * Equality over every field; together with hashValue() this
     * makes a config usable as a run-cache key, so every field
     * that influences simulation results MUST participate here.
     * tests/test_config_key.cpp walks the fields and asserts it.
     */
    bool
    operator==(const SystemConfig &other) const
    {
        return outOfOrder == other.outOfOrder &&
               l1Config == other.l1Config &&
               l1SizeBytes == other.l1SizeBytes &&
               l1Assoc == other.l1Assoc &&
               l1HitLatency == other.l1HitLatency &&
               policy == other.policy &&
               xlatPredEntries == other.xlatPredEntries &&
               wayPrediction == other.wayPrediction &&
               radixWalker == other.radixWalker &&
               condition == other.condition &&
               physMemBytes == other.physMemBytes &&
               warmupRefs == other.warmupRefs &&
               measureRefs == other.measureRefs &&
               seed == other.seed &&
               footprintScale == other.footprintScale &&
               check == other.check;
    }
};

/** Hash over every SystemConfig field (the run-cache key). */
std::size_t hashValue(const SystemConfig &config);

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
     *  stream (0 unless SIPT_CHECK was on). Policy-invariant:
     *  every indexing policy must produce the same digest for the
     *  same (app, geometry, workload). */
    std::uint64_t checkDigest = 0;
    /** Events behind checkDigest (0 unless SIPT_CHECK). */
    std::uint64_t checkEvents = 0;
    /** First golden-model divergence, invariant violation, TLB
     *  mismatch, or writeback-shim failure; empty when clean. */
    std::string checkFailure;
    /** VIVT strawman bookkeeping over the measured phase (all 0
     *  unless SIPT_CHECK was on): reverse-map probes a virtually
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

/** Run one application on one system. */
RunResult runSingleCore(const std::string &app,
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
 * condition memory and build the workload exactly as
 * runSingleCore() would (same seeds, same allocation phase), then
 * capture warmupRefs+measureRefs references plus the VA->PA
 * layout. Replaying the file under the same SystemConfig is
 * digest-identical to the live run. Fatal when @p app is itself a
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
