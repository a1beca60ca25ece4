#include "sim/fuzz.hh"

#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/env.hh"
#include "common/rng.hh"
#include "workload/profile.hh"
#include "workload/synonym.hh"

namespace sipt::sim
{

namespace
{

/** Stable per-sample stream: decorrelate index from master seed
 *  with splitmix-style odd multipliers before seeding the Rng. */
std::uint64_t
sampleSeed(std::uint64_t master_seed, std::uint64_t index)
{
    return master_seed ^
           (index * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull);
}

/** Each feasible policy's run of one sample, in policiesFor()
 *  order. */
using SampleFutures = std::vector<
    std::pair<IndexingPolicy, std::shared_future<sim::RunResult>>>;

SampleFutures
enqueueSample(const FuzzSample &sample, sim::SweepRunner &runner)
{
    SampleFutures futures;
    for (const IndexingPolicy policy : policiesFor(sample.config)) {
        sim::SystemConfig config = sample.config;
        config.policy = policy;
        futures.emplace_back(policy, runner.enqueue(sample.app, config));
    }
    return futures;
}

/**
 * The first failure among one sample's @p runs, or empty. Whether
 * the policies agree is the sweep's functional oracle's to decide
 * (sim/sweep.hh): it screens every result, so a policy that
 * diverges carries a checkFailure. Besides those, two sample-level
 * sanity checks: the checker recorded events, and on a
 * multi-mapping workload (@p expect_synonyms) the VIVT strawman
 * needed synonym invalidations.
 */
std::string
firstFailure(
    const std::vector<std::pair<IndexingPolicy, sim::RunResult>> &runs,
    bool expect_synonyms)
{
    if (runs.empty())
        return "no runnable policy";
    for (const auto &[policy, result] : runs) {
        const std::string name = policyName(policy);
        if (!result.checkFailure.empty())
            return name + ": " + result.checkFailure;
        if (result.checkEvents == 0)
            return "checker recorded no events (checking off?)";
        if (expect_synonyms && result.vivtInvalidations == 0) {
            return name + ": synonym workload, but the VIVT strawman "
                          "saw no synonym invalidations";
        }
    }
    return {};
}

/** The one verdict on a sample, over its enqueued @p futures. */
SampleResult
judge(const FuzzSample &sample, const SampleFutures &futures)
{
    SampleResult verdict;
    for (const auto &[policy, future] : futures)
        verdict.runs.emplace_back(policy, future.get());
    verdict.failure =
        firstFailure(verdict.runs, workload::isSynonymApp(sample.app));
    if (!verdict.failure.empty()) {
        verdict.passed = false;
        verdict.repro = reproLine(sample);
    }
    return verdict;
}

} // namespace

FuzzSample
sampleAt(std::uint64_t master_seed, std::uint64_t index)
{
    Rng rng(sampleSeed(master_seed, index));

    FuzzSample sample;
    sample.masterSeed = master_seed;
    sample.index = index;

    sim::SystemConfig &c = sample.config;

    // Geometry: 8-64 KiB, 1-8 ways, 0-3 speculative bits. The one
    // (size, assoc) combination with 4 speculative bits (64 KiB
    // direct-mapped) is resampled away.
    c.l1SizeBytes = Addr{8 * 1024} << rng.below(4);
    c.l1Assoc = std::uint32_t{1} << rng.below(4);
    while (l1Geometry(c).speculativeBits() > 3)
        c.l1Assoc = std::uint32_t{2} << rng.below(3);
    c.l1HitLatency = 2 + rng.below(3);

    const auto &apps = workload::figureApps();
    sample.app = apps[rng.below(apps.size())];

    c.outOfOrder = rng.chance(0.5);
    c.wayPrediction = rng.chance(0.5);
    c.radixWalker = rng.chance(0.25);
    // Half the samples shrink the translation-value predictor
    // tables (Revelator/Pcax) so aliasing paths get exercised;
    // the other half keep the L1Params defaults (0 = preset).
    if (rng.chance(0.5)) {
        c.xlatPredEntries = std::uint32_t{16}
                            << rng.below(4);
    }
    c.condition =
        static_cast<sim::MemCondition>(rng.below(4));

    // A quarter of the samples swap the figure app for a
    // multi-mapping synonym scenario, sampling the profile knobs
    // (mode, alias count, index-bit skew, huge-page backing). The
    // canonical app name round-trips through the repro line's
    // "app" field, so a failing sample replays exactly.
    if (rng.chance(0.25)) {
        workload::SynonymSpec spec;
        spec.mode = static_cast<workload::SynonymSpec::Mode>(
            rng.below(3));
        spec.mappings =
            2 + static_cast<std::uint32_t>(rng.below(3));
        spec.skewPages =
            static_cast<std::uint32_t>(rng.below(8));
        // Fragmented memory starves the 2 MiB buddy order a huge
        // shared segment needs, so huge profiles only run on the
        // other conditions.
        if (spec.mode == workload::SynonymSpec::Mode::Shared &&
            c.condition != sim::MemCondition::Fragmented) {
            spec.hugePages = rng.chance(0.5);
        }
        sample.app = workload::synonymAppName(spec);
    }

    // Small machine + short phases keep one sample cheap; the
    // campaign gets its coverage from sample count, not from the
    // length of any single run.
    c.physMemBytes = 256ull << 20;
    c.footprintScale = 0.02 + 0.06 * rng.uniform();
    c.warmupRefs = 400 + rng.below(800);
    c.measureRefs = 1000 + rng.below(2000);
    c.seed = rng();
    c.check = true;
    return sample;
}

std::vector<IndexingPolicy>
policiesFor(const sim::SystemConfig &config)
{
    std::vector<IndexingPolicy> policies;
    if (l1Geometry(config).speculativeBits() == 0)
        policies.push_back(IndexingPolicy::Vipt);
    policies.push_back(IndexingPolicy::Ideal);
    policies.push_back(IndexingPolicy::SiptNaive);
    policies.push_back(IndexingPolicy::SiptBypass);
    policies.push_back(IndexingPolicy::SiptCombined);
    policies.push_back(IndexingPolicy::SiptVespa);
    policies.push_back(IndexingPolicy::SiptRevelator);
    policies.push_back(IndexingPolicy::SiptPcax);
    return policies;
}

std::string
reproLine(const FuzzSample &sample)
{
    std::ostringstream os;
    os << "SIPT-FUZZ-REPRO seed=" << sample.masterSeed
       << " index=" << sample.index << " app=" << sample.app
       << " config=" << configToJson(sample.config).dump();
    return os.str();
}

bool
parseRepro(const std::string &line, std::uint64_t &seed_out,
           std::uint64_t &index_out)
{
    // Space-delimited tokens: the optional leading marker, then
    // seed= and index= once each with a whole decimal value. app=
    // and config= only describe the sample; config= ends the line.
    std::optional<std::uint64_t> seed;
    std::optional<std::uint64_t> index;
    std::istringstream in(line);
    std::string token;
    for (bool first = true; in >> token; first = false) {
        std::optional<std::uint64_t> *field = nullptr;
        if (token.starts_with("seed="))
            field = &seed;
        else if (token.starts_with("index="))
            field = &index;
        else if (token.starts_with("config="))
            break;
        else if (token.starts_with("app=") ||
                 (first && token == "SIPT-FUZZ-REPRO"))
            continue;
        else
            return false;
        if (field->has_value())
            return false;
        *field = parseU64(token.c_str() + token.find('=') + 1, 0,
                          ~std::uint64_t{0});
        if (!field->has_value())
            return false;
    }
    if (!seed || !index)
        return false;
    seed_out = *seed;
    index_out = *index;
    return true;
}

SampleResult
runSample(const FuzzSample &sample, sim::SweepRunner &runner)
{
    return judge(sample, enqueueSample(sample, runner));
}

std::uint64_t
runCampaign(std::uint64_t master_seed, std::uint64_t count,
            sim::SweepRunner &runner, std::ostream &out)
{
    // Enqueue every (sample, policy) job up front so the pool
    // stays saturated, then judge samples in order.
    std::vector<FuzzSample> samples;
    std::vector<SampleFutures> futures;
    samples.reserve(count);
    futures.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        samples.push_back(sampleAt(master_seed, i));
        futures.push_back(enqueueSample(samples[i], runner));
    }

    std::uint64_t failures = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const SampleResult verdict = judge(samples[i], futures[i]);
        if (!verdict.passed) {
            ++failures;
            out << "FAIL sample " << i << " (app " << samples[i].app
                << "): " << verdict.failure << "\n"
                << verdict.repro << "\n";
        }
    }
    return failures;
}

} // namespace sipt::sim
