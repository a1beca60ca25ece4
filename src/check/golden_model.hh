/**
 * @file
 * Untimed golden reference model of the L1 and its differential
 * checker.
 *
 * SIPT's central correctness argument is that speculation only
 * affects *timing*: lines always live under their physical set and
 * full physical tags are compared on every lookup, so every
 * indexing policy must produce the identical functional stream of
 * hits, misses, dirty transitions, and writebacks. GoldenL1 is the
 * obviously-correct version of that functional behaviour — a
 * physically indexed map of sets to MRU-ordered line lists, with no
 * speculation, no way prediction, and no timing — and
 * DifferentialChecker runs it in lockstep with sipt::SiptL1Cache,
 * failing on the first access where the two disagree.
 *
 * The checker also folds every functional event into a stable
 * FNV-1a digest. Because the digest covers only functional facts
 * (never latency or energy), two runs of the same workload under
 * different indexing policies must produce byte-identical digests;
 * the fuzzer compares them across all policies per sample.
 *
 * This layer sits *below* the cache library (it depends only on
 * common/) so the hierarchy and L1 controller can embed checkers
 * without a dependency cycle.
 */

#ifndef SIPT_CHECK_GOLDEN_MODEL_HH
#define SIPT_CHECK_GOLDEN_MODEL_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/options.hh"
#include "check/vivt_model.hh"
#include "common/types.hh"

namespace sipt::check
{

/**
 * One entry of the policy-invariant functional event stream: what
 * an access *did*, stripped of every timing/energy detail.
 */
struct FunctionalEvent
{
    /** Zero-based access index since the last stream reset. */
    std::uint64_t index = 0;
    MemOp op = MemOp::Load;
    /** Physical line base address of the access. */
    Addr lineAddr = 0;
    bool hit = false;
    /** Dirty bit of the accessed line after the access. */
    bool dirtyAfter = false;
    bool writeback = false;
    /** Line base address written back (0 when !writeback). */
    Addr writebackLine = 0;
};

/**
 * What the real L1 controller observed for one access. The checker
 * diffs this against the golden model's own prediction.
 */
struct Observation
{
    Addr vaddr = 0;
    Addr paddr = 0;
    MemOp op = MemOp::Load;
    bool hit = false;
    /** Dirty bit of the accessed line after the access completed
     *  (hit way or freshly inserted line). */
    bool dirtyAfter = false;
    /** True when the fill evicted a valid line. */
    bool evicted = false;
    /** Line base address of the evicted line. */
    Addr evictedLine = 0;
    bool evictedDirty = false;
    /** True when the controller issued a writeback. */
    bool writeback = false;
};

/**
 * The untimed reference L1: physical indexing only. Replacement is
 * true LRU (MRU-front lists), the array's only policy, so every
 * observed victim must be a resident line, must be exactly the
 * golden LRU choice, and must carry a matching dirty bit.
 */
class GoldenL1
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes line size (power of two)
     * @param mutation deliberate corruption for harness self-test
     */
    GoldenL1(std::uint64_t size_bytes, std::uint32_t assoc,
             std::uint32_t line_bytes, Mutation mutation);

    /**
     * Run one access through the reference model and diff it
     * against @p obs.
     *
     * @return empty string on agreement, else a description of the
     *         first divergence
     */
    std::string access(const Observation &obs);

    /** Lines currently resident (inspection aid for tests). */
    std::uint64_t residentLines() const;

    /** True when the line holding @p paddr is resident. */
    bool contains(Addr paddr) const;

    /** Dirty bit of the line holding @p paddr (false when not
     *  resident). */
    bool isDirty(Addr paddr) const;

    /** log2 of the line size. */
    unsigned lineShift() const { return lineShift_; }

  private:
    struct Line
    {
        Addr lineAddr = 0;
        bool dirty = false;
    };

    /** MRU-front list of resident lines of one set. */
    using Set = std::vector<Line>;

    std::uint32_t setOf(Addr paddr) const;
    Addr lineBase(Addr paddr) const;

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    unsigned lineShift_;
    Mutation mutation_;
    std::unordered_map<std::uint32_t, Set> sets_;
};

/**
 * Lockstep differential checker owned by one SiptL1Cache. Verifies
 * each access against the golden model and accumulates the
 * functional event digest; the controller reports its own counter
 * invariant violations through failAccess(). The first failure is
 * sticky and reported through failure(); with
 * Options::abortOnDivergence the caller panics instead.
 */
class DifferentialChecker
{
  public:
    /**
     * @param options checker switches
     * @param size_bytes L1 capacity
     * @param assoc L1 associativity
     * @param line_bytes L1 line size
     */
    DifferentialChecker(const Options &options,
                        std::uint64_t size_bytes,
                        std::uint32_t assoc,
                        std::uint32_t line_bytes);

    /**
     * Check one completed access against the golden model.
     *
     * @return false when this access diverged (failure() set)
     */
    bool onAccess(const Observation &obs);

    /**
     * Record @p violation, found in the access last passed to
     * onAccess(), as "access #N: violation": the sticky first
     * failure, or a panic under Options::abortOnDivergence.
     *
     * @return false, for chaining
     */
    bool failAccess(const std::string &violation);

    /**
     * Warmup boundary: restart the event stream (digest, count,
     * recorded events) while keeping golden cache contents, mirror
     * of SiptL1Cache::resetStats(). Sticky failures survive.
     */
    void resetStream();

    /** Stable FNV-1a digest of the functional event stream. */
    std::uint64_t digest() const { return digest_; }

    /** Events folded into the digest since the last reset. */
    std::uint64_t eventCount() const { return eventCount_; }

    /** First divergence/invariant failure, or empty. */
    const std::string &failure() const { return failure_; }

    /** Recorded events (empty unless Options::recordEvents). */
    const std::vector<FunctionalEvent> &
    events() const
    {
        return events_;
    }

    const GoldenL1 &golden() const { return golden_; }

    /**
     * The VIVT strawman run in lockstep beside the golden model.
     * Pure bookkeeping: its reverse-map probe and synonym
     * invalidation counters quantify what SIPT's physical tags
     * avoid; it never contributes to the digest or to failures.
     */
    const VivtSynonymModel &vivt() const { return vivt_; }

  private:
    /** Fold one functional event into the stream digest. */
    void foldEvent(const FunctionalEvent &event);

    Options options_;
    GoldenL1 golden_;
    VivtSynonymModel vivt_;
    std::uint64_t digest_;
    std::uint64_t eventCount_ = 0;
    std::string failure_;
    std::vector<FunctionalEvent> events_;
};

/**
 * Below-L1 shim: remembers every line the hierarchy filled toward
 * the L1 and fails when the L1 writes back a line it never filled
 * (a fabricated or mis-shifted writeback address) or one that is
 * not line-aligned. Owned by cache::BelowL1 when checking is on.
 */
class FillTracker
{
  public:
    explicit FillTracker(std::uint32_t line_bytes);

    /** Record a fill of the line containing @p paddr. */
    void onFill(Addr paddr);

    /**
     * Validate a writeback of @p paddr.
     * @return empty string when legitimate, else a description
     */
    std::string onWriteback(Addr paddr);

    /** First failure seen, or empty. */
    const std::string &failure() const { return failure_; }

    std::uint64_t fills() const { return fills_; }

  private:
    unsigned lineShift_;
    std::uint64_t fills_ = 0;
    std::string failure_;
    std::unordered_set<Addr> filledLines_;
};

} // namespace sipt::check

#endif // SIPT_CHECK_GOLDEN_MODEL_HH
