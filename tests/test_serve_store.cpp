/**
 * @file
 * The serve daemon's result store: the sweep engine's file-per-key
 * disk tier (sim/sweep.hh), driven through SweepRunner directly.
 *
 * Capacity: a byte budget evicts least-recently-used entries, a
 * lookup() refreshes recency, and a reopened runner keeps the order
 * because recency lives in each file's mtime.
 *
 * Crash safety: an entry is published by write-tmp + fsync +
 * rename, so a crash leaves at worst a stray `*.tmp.*` file, and
 * disk corruption leaves a damaged published file. For every byte
 * prefix of a real entry in both places, and for a seeded set of
 * byte mutants, lookup() must return the exact original result or
 * a miss — never a wrong result, never an abort — and a re-run must
 * heal the entry byte-identically.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "mutants.hh"
#include "sim/sweep.hh"

namespace sipt::sim
{
namespace
{

SystemConfig
tiny(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.l1Config = L1Config::Sipt32K2;
    cfg.policy = IndexingPolicy::SiptCombined;
    cfg.warmupRefs = 500;
    cfg.measureRefs = 1'000;
    cfg.seed = seed;
    return cfg;
}

struct TempDir
{
    std::filesystem::path root;
    explicit TempDir(const std::string &name)
        : root(std::filesystem::temp_directory_path() /
               ("sipt_serve_store_" + name))
    {
        std::filesystem::remove_all(root);
        std::filesystem::create_directories(root);
    }
    ~TempDir() { std::filesystem::remove_all(root); }
    std::string dir() const { return root.string(); }
};

/** The published entry file for a single-core run. */
std::filesystem::path
entryFile(const TempDir &tmp, const std::string &app,
          const SystemConfig &cfg)
{
    char name[64];
    std::snprintf(name, sizeof(name), "run-%016llx.json",
                  static_cast<unsigned long long>(
                      fnv1a64(runKeyJson(app, cfg))));
    return tmp.root / name;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::filesystem::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

std::string
canonical(const RunResult &r)
{
    return runResultToJson(r).dump();
}

SweepRunner
openStore(const TempDir &tmp, std::uint64_t budget = 0)
{
    return SweepRunner(SweepOptions{1, tmp.dir(), budget});
}

TEST(ServeStore, EvictionHonorsByteBudgetLru)
{
    TempDir tmp("lru");
    const std::string app = "mcf";
    auto has = [&](std::uint64_t seed) {
        return std::filesystem::exists(
            entryFile(tmp, app, tiny(seed)));
    };

    // Size the budget from one real entry: three fit, four do not
    // (entries differ from each other by a few bytes at most).
    std::uint64_t entry_bytes = 0;
    {
        TempDir probe("lru_probe");
        auto runner = openStore(probe);
        runner.enqueue(app, tiny(100)).get();
        entry_bytes = runner.stats().diskBytes;
    }
    ASSERT_GT(entry_bytes, 0u);
    const std::uint64_t budget = 3 * entry_bytes + entry_bytes / 2;

    {
        auto runner = openStore(tmp, budget);
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            runner.enqueue(app, tiny(seed)).get();
        EXPECT_EQ(runner.stats().diskEntries, 3u);
        EXPECT_EQ(runner.stats().evictions, 0u);

        // A fourth put evicts the least recently used entry (1).
        runner.enqueue(app, tiny(4)).get();
        EXPECT_EQ(runner.stats().diskEntries, 3u);
        EXPECT_EQ(runner.stats().evictions, 1u);
        EXPECT_LE(runner.stats().diskBytes, budget);
        EXPECT_FALSE(has(1));
        // The memo still serves it: a finished job's result does
        // not depend on its file surviving eviction.
        EXPECT_TRUE(runner.lookup(app, tiny(1)).valid());

        // A lookup refreshes recency: 2 survives the next put, 3
        // does not.
        ASSERT_TRUE(runner.lookup(app, tiny(2)).valid());
        runner.enqueue(app, tiny(5)).get();
        EXPECT_TRUE(has(2));
        EXPECT_FALSE(has(3));
        EXPECT_EQ(runner.stats().evictions, 2u);
    }

    // Recency order now, oldest first: 4, 2, 5. A reopened runner
    // reads it back from the mtimes, so it evicts 4 — not 2, which
    // was created earlier but used later.
    auto runner = openStore(tmp, budget);
    EXPECT_EQ(runner.stats().diskEntries, 3u);
    runner.enqueue(app, tiny(6)).get();
    EXPECT_FALSE(has(4));
    EXPECT_TRUE(has(2));
    EXPECT_TRUE(has(5));
    EXPECT_TRUE(has(6));

    // A disk hit through lookup() refreshes recency too: 2
    // outlives 5.
    ASSERT_TRUE(runner.lookup(app, tiny(2)).valid());
    EXPECT_EQ(runner.stats().diskHits, 1u);
    runner.enqueue(app, tiny(7)).get();
    EXPECT_TRUE(has(2));
    EXPECT_FALSE(has(5));
    EXPECT_EQ(runner.stats().diskEntries, 3u);
    EXPECT_LE(runner.stats().diskBytes, budget);
}

TEST(ServeCrash, CrashDuringEvictionNeverCorruptsSurvivors)
{
    TempDir tmp("evict_crash");
    const std::string app = "mcf";

    // A crash after a publish but before its evictions leaves the
    // directory over budget: four whole entries where three fit.
    std::vector<std::string> results;
    std::uint64_t entry_bytes = 0;
    {
        auto runner = openStore(tmp);
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            results.push_back(
                canonical(runner.enqueue(app, tiny(seed)).get()));
        entry_bytes = runner.stats().diskBytes / 4;
    }
    const std::uint64_t budget = 3 * entry_bytes + entry_bytes / 2;

    // Reopening loses nothing, and every entry decodes exactly.
    {
        auto runner = openStore(tmp, budget);
        EXPECT_EQ(runner.stats().diskEntries, 4u);
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto found = runner.lookup(app, tiny(seed));
            ASSERT_TRUE(found.valid()) << seed;
            EXPECT_EQ(canonical(found.get()), results[seed - 1]);
        }
        // The next publish evicts back within budget.
        runner.enqueue(app, tiny(5)).get();
        EXPECT_LE(runner.stats().diskBytes, budget);
        EXPECT_EQ(runner.stats().diskEntries, 3u);
    }

    // Survivors still decode to their exact results.
    auto runner = openStore(tmp, budget);
    std::size_t survivors = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto found = runner.lookup(app, tiny(seed));
        if (!found.valid())
            continue;
        ++survivors;
        EXPECT_EQ(canonical(found.get()), results[seed - 1]);
    }
    EXPECT_EQ(survivors, 2u);
    EXPECT_EQ(runner.stats().executed, 0u);
}

TEST(ServeStore, LookupNeverExecutes)
{
    TempDir tmp("lookup");
    {
        auto runner = openStore(tmp);
        EXPECT_FALSE(runner.lookup("mcf", tiny(1)).valid());
        EXPECT_EQ(runner.stats().executed, 0u);
        runner.enqueue("mcf", tiny(1)).get();
    }
    auto runner = openStore(tmp);
    const auto hit = runner.lookup("mcf", tiny(1));
    ASSERT_TRUE(hit.valid());
    // The disk hit landed in the memo: enqueue() now memo-hits.
    runner.enqueue("mcf", tiny(1)).get();
    const SweepStats s = runner.stats();
    EXPECT_EQ(s.executed, 0u);
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.memoHits, 1u);
}

/** One real published entry and the result it encodes. */
struct PublishedEntry
{
    std::filesystem::path path;
    std::string bytes;
    std::string result;
};

PublishedEntry
publishOne(const TempDir &tmp)
{
    auto runner = openStore(tmp);
    const RunResult r = runner.enqueue("mcf", tiny(9)).get();
    const auto path = entryFile(tmp, "mcf", tiny(9));
    return PublishedEntry{path, readFile(path), canonical(r)};
}

/** lookup() on a freshly opened runner: "" on a miss, else the
 *  canonical result JSON. */
std::string
freshLookup(const TempDir &tmp)
{
    auto runner = openStore(tmp);
    const auto found = runner.lookup("mcf", tiny(9));
    EXPECT_EQ(runner.stats().executed, 0u);
    return found.valid() ? canonical(found.get()) : "";
}

TEST(ServeCrash, EveryBytePrefixIsAMissOrTheOriginal)
{
    TempDir tmp("prefix");
    const PublishedEntry entry = publishOne(tmp);
    const std::filesystem::path stray =
        entry.path.string() + ".tmp.12345";

    std::size_t hits = 0;
    for (std::size_t k = 0; k <= entry.bytes.size(); ++k) {
        const std::string prefix = entry.bytes.substr(0, k);

        // A crash before the rename: the good entry plus a torn
        // temp file, which is never served or counted.
        writeFile(entry.path, entry.bytes);
        writeFile(stray, prefix);
        {
            auto runner = openStore(tmp);
            EXPECT_EQ(runner.stats().diskEntries, 1u) << k;
            EXPECT_EQ(runner.stats().diskBytes, entry.bytes.size())
                << k;
        }
        EXPECT_EQ(freshLookup(tmp), entry.result) << "prefix " << k;
        std::filesystem::remove(stray);

        // Disk corruption: the published file itself is torn.
        writeFile(entry.path, prefix);
        const std::string found = freshLookup(tmp);
        EXPECT_TRUE(found.empty() || found == entry.result)
            << "prefix " << k << " served a wrong result";
        hits += found.empty() ? 0 : 1;
    }
    // Only the whole entry, with or without its trailing newline,
    // decodes.
    EXPECT_EQ(hits, 2u);
}

using testfix::mutantAt;

TEST(ServeCrash, SeededMutantsNeverYieldAWrongResult)
{
    TempDir tmp("mutants");
    const PublishedEntry entry = publishOne(tmp);
    constexpr std::uint64_t seed = 1;
    constexpr std::uint64_t count = 2'000;

    std::size_t misses = 0;
    for (std::uint64_t index = 0; index < count; ++index) {
        const std::string mutant = mutantAt(entry.bytes, seed, index);
        writeFile(entry.path, mutant);
        const std::string found = freshLookup(tmp);
        ASSERT_TRUE(found.empty() || found == entry.result)
            << "wrong result from mutant seed=" << seed
            << " index=" << index;
        misses += found.empty() ? 1 : 0;
    }
    // Nearly every mutant damages the entry; the few that survive
    // (an edit to the trailing newline) decode to the original.
    EXPECT_GT(misses, count * 9 / 10);
}

TEST(ServeCrash, ReRunHealsACorruptEntryByteIdentically)
{
    TempDir tmp("heal");
    const PublishedEntry entry = publishOne(tmp);
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, entry.bytes.size() / 2,
          entry.bytes.size() - 2}) {
        writeFile(entry.path, entry.bytes.substr(0, k));
        auto runner = openStore(tmp);
        const RunResult rerun = runner.enqueue("mcf", tiny(9)).get();
        EXPECT_EQ(runner.stats().executed, 1u) << k;
        EXPECT_EQ(canonical(rerun), entry.result) << k;
        EXPECT_EQ(readFile(entry.path), entry.bytes) << k;
    }
}

} // namespace
} // namespace sipt::sim
