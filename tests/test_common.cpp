/**
 * @file
 * Unit tests for the RNG, statistics helpers, and text tables.
 */

#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace sipt
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(11);
    std::vector<int> buckets(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.below(8)];
    for (int b : buckets) {
        EXPECT_GT(b, n / 8 - 600);
        EXPECT_LT(b, n / 8 + 600);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(19);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    d.sample(1.0);
    d.sample(2.0);
    d.sample(3.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_NEAR(d.variance(), 2.0 / 3.0, 1e-12);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Distribution, EmptyMomentsAreZeroNotNan)
{
    // mean()/variance()/stddev() on an empty distribution must be
    // well-defined zeros, not 0/0 NaNs that poison downstream
    // aggregation.
    Distribution d;
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_FALSE(std::isnan(d.mean()));
    EXPECT_FALSE(std::isnan(d.variance()));
    EXPECT_FALSE(std::isnan(d.stddev()));
    d.sample(1.0);
    d.reset();
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Distribution, ConstantSamplesHaveZeroStddev)
{
    // The sum-of-squares variance can go fractionally negative
    // from rounding when every sample is equal; unclamped, sqrt of
    // that is NaN.
    Distribution d;
    for (int i = 0; i < 1000; ++i)
        d.sample(0.1); // 0.1 is not exactly representable
    EXPECT_GE(d.variance(), 0.0);
    EXPECT_FALSE(std::isnan(d.stddev()));
    EXPECT_NEAR(d.stddev(), 0.0, 1e-6);
}

TEST(Distribution, StddevMatchesVariance)
{
    Distribution d;
    d.sample(1.0);
    d.sample(2.0);
    d.sample(3.0);
    EXPECT_NEAR(d.stddev(), std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(Means, Harmonic)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 1.0}), 1.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 0.0}), 0.0);
}

TEST(Means, ArithmeticAndGeometric)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({2.0, 4.0}), 3.0);
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(Means, HarmonicLeArithmetic)
{
    const std::vector<double> v = {0.5, 1.3, 2.2, 0.9};
    EXPECT_LE(harmonicMean(v), geometricMean(v) + 1e-12);
    EXPECT_LE(geometricMean(v), arithmeticMean(v) + 1e-12);
}

TEST(TextTable, AlignsAndPrints)
{
    TextTable t({"a", "bb"});
    t.beginRow();
    t.add("x");
    t.add(1.5, 1);
    t.beginRow();
    t.add("longer");
    t.add(std::uint64_t{42});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(StatGroup, DumpsBoundValues)
{
    StatGroup g("grp");
    std::uint64_t c = 5;
    double s = 2.5;
    g.addStat("counter", &c);
    g.addStat("scalar", &s);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("grp.counter 5"), std::string::npos);
    EXPECT_NE(os.str().find("grp.scalar 2.5"), std::string::npos);
}

// ---------------------------------------------------------------
// Strict environment parsing: garbage must warn and fall back,
// never silently truncate (strtoull("8x") == 8) or wrap
// (strtoull("-1") == ULLONG_MAX).
// ---------------------------------------------------------------

/** RAII environment variable for the env parsing tests. The name
 *  deliberately lacks the SIPT_ prefix so the env-registry pass
 *  does not demand a registration for a test-only knob. */
struct ScopedEnv
{
    const char *name;
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        setenv(name, value, 1);
    }
    ~ScopedEnv() { unsetenv(name); }
};

TEST(Env, U64UnsetReturnsFallback)
{
    unsetenv("ENVTEST_U64");
    EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
}

TEST(Env, U64ParsesWholeNumbers)
{
    const ScopedEnv e("ENVTEST_U64", "17");
    EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 17u);
}

TEST(Env, U64RejectsTrailingGarbage)
{
    // The historical threadsFromEnv bug: atoi-style parsing read
    // "8x" as 8. Strict parsing must fall back instead.
    const ScopedEnv e("ENVTEST_U64", "8x");
    EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
}

TEST(Env, U64RejectsNegativeAndSigned)
{
    {
        const ScopedEnv e("ENVTEST_U64", "-1");
        EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u)
            << "-1 must not wrap to ULLONG_MAX";
    }
    {
        const ScopedEnv e("ENVTEST_U64", "+7");
        EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
    }
}

TEST(Env, U64RejectsEmptyAndNonNumeric)
{
    {
        const ScopedEnv e("ENVTEST_U64", "");
        EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
    }
    {
        const ScopedEnv e("ENVTEST_U64", "lots");
        EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
    }
}

TEST(Env, U64EnforcesAcceptedRange)
{
    {
        const ScopedEnv e("ENVTEST_U64", "0");
        EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
    }
    {
        const ScopedEnv e("ENVTEST_U64", "101");
        EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
    }
    {
        const ScopedEnv e("ENVTEST_U64",
                          "99999999999999999999999999");
        EXPECT_EQ(envU64("ENVTEST_U64", 42, 1, 100), 42u);
    }
}

TEST(Env, DoubleParsesAndFallsBack)
{
    {
        const ScopedEnv e("ENVTEST_DBL", "0.35");
        EXPECT_DOUBLE_EQ(
            envDouble("ENVTEST_DBL", 0.2, 0.0, 1.0), 0.35);
    }
    {
        const ScopedEnv e("ENVTEST_DBL", "0.35%");
        EXPECT_DOUBLE_EQ(
            envDouble("ENVTEST_DBL", 0.2, 0.0, 1.0), 0.2);
    }
    {
        const ScopedEnv e("ENVTEST_DBL", "nan");
        EXPECT_DOUBLE_EQ(
            envDouble("ENVTEST_DBL", 0.2, 0.0, 1.0), 0.2)
            << "NaN fails the range check by comparison";
    }
    {
        const ScopedEnv e("ENVTEST_DBL", "2.5");
        EXPECT_DOUBLE_EQ(
            envDouble("ENVTEST_DBL", 0.2, 0.0, 1.0), 0.2);
    }
    unsetenv("ENVTEST_DBL");
    EXPECT_DOUBLE_EQ(envDouble("ENVTEST_DBL", 0.2, 0.0, 1.0),
                     0.2);
}

TEST(Env, ParseU64Table)
{
    // The command-line front doors reject everything a bare
    // strtoull would have bent into a different number.
    struct Case
    {
        const char *text;
        std::optional<std::uint64_t> want;
    };
    const Case cases[] = {
        {"4000000", 4'000'000},
        {"1", 1},
        {"1099511627776", std::uint64_t{1} << 40},
        {"4e6", std::nullopt},  // bare strtoull: 4
        {"-1", std::nullopt},   // bare strtoull: 2^64-1
        {"+5", std::nullopt},
        {"12x", std::nullopt},
        {"", std::nullopt},
        {" 7", std::nullopt},
        {" -1", std::nullopt},  // blank, then a wrapped negative
        {"0", std::nullopt},    // below min
        {"1099511627777", std::nullopt}, // above max
        {"99999999999999999999999", std::nullopt},
    };
    for (const Case &c : cases) {
        const char *why = nullptr;
        const auto got =
            parseU64(c.text, 1, std::uint64_t{1} << 40, &why);
        EXPECT_EQ(got, c.want) << "'" << c.text << "'";
        EXPECT_EQ(why == nullptr, c.want.has_value())
            << "'" << c.text << "'";
    }
}

TEST(Env, ParseDoubleTable)
{
    struct Case
    {
        const char *text;
        std::optional<double> want;
    };
    const Case cases[] = {
        {"0.25", 0.25},
        {"1e-2", 0.01},
        {"2", 2.0},
        {"abc", std::nullopt}, // bare strtod: 0
        {"0.5x", std::nullopt},
        {"", std::nullopt},
        {"nan", std::nullopt},
        {" 0.5", std::nullopt},
        {"0", std::nullopt},   // below min
        {"1e400", std::nullopt},
    };
    for (const Case &c : cases) {
        const char *why = nullptr;
        const auto got = parseDouble(c.text, 1e-6, 1e3, &why);
        EXPECT_EQ(got, c.want) << "'" << c.text << "'";
        EXPECT_EQ(why == nullptr, c.want.has_value())
            << "'" << c.text << "'";
    }
}

} // namespace
} // namespace sipt
