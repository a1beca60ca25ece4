/**
 * @file
 * Unit tests for the RNG, the figure means, text tables, the
 * strict environment/flag parsers, the strict JSON parser and the
 * mapped per-job arrays.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/json.hh"
#include "common/mapped_array.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace sipt
{
namespace
{

/** Whether every byte of [@p p, @p p + @p bytes) is zero. */
bool
allZero(const void *p, std::size_t bytes)
{
    const auto *b = static_cast<const unsigned char *>(p);
    return std::all_of(b, b + bytes, [](unsigned char c) { return c == 0; });
}

TEST(MappedArray, CreationZeroFills)
{
    const MappedArray<std::uint64_t> a(10'000);
    ASSERT_EQ(a.size(), 10'000u);
    EXPECT_TRUE(allZero(a.data(), a.size() * sizeof(std::uint64_t)));
    EXPECT_TRUE(MappedArray<int>().empty());
}

TEST(MappedArray, ResizeKeepsContentsAndZeroFillsTheTail)
{
    // The plain array grows by remapping; the dense one crosses the
    // huge-page size, so it grows by map + copy + unmap.
    for (const bool dense : {false, true}) {
        auto a = dense ? MappedArray<std::uint32_t>::dense(100)
                       : MappedArray<std::uint32_t>(100);
        for (std::uint32_t i = 0; i < 100; ++i)
            a[i] = i + 1;
        a.resize(1'000'000);
        ASSERT_EQ(a.size(), 1'000'000u) << "dense=" << dense;
        for (std::uint32_t i = 0; i < 100; ++i)
            ASSERT_EQ(a[i], i + 1) << "dense=" << dense;
        EXPECT_TRUE(allZero(&a[100], (a.size() - 100) * sizeof(a[0])))
            << "dense=" << dense;
    }
}

TEST(MappedArray, MoveLeavesTheSourceEmpty)
{
    MappedArray<int> a(5);
    a[4] = 7;
    MappedArray<int> b(std::move(a));
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.data(), nullptr);
    ASSERT_EQ(b.size(), 5u);
    EXPECT_EQ(b[4], 7);

    MappedArray<int> c;
    c = std::move(b);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.data(), nullptr);
    EXPECT_EQ(c[4], 7);
}

TEST(MappedArray, DenseIsHugePageAlignedAndUnmappedWhole)
{
    // 3 MiB and a bit: the array aligns its mapping itself, so this
    // holds under any THP mode.
    constexpr std::size_t huge = MappedArray<std::uint32_t>::hugePageBytes;
    constexpr std::size_t n = (3u << 20) / 4 + 5;
    auto a = MappedArray<std::uint32_t>::dense(n);
    ASSERT_EQ(a.size(), n);
    auto *const base = reinterpret_cast<unsigned char *>(a.data());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base) % huge, 0u);
    EXPECT_TRUE(allZero(base, n * sizeof(std::uint32_t)));

    // mincore() fails with ENOMEM on any unmapped page: every page
    // the array spans is mapped while it lives and none after.
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t bytes =
        (n * sizeof(std::uint32_t) + page - 1) / page * page;
    std::vector<unsigned char> vec(bytes / page);
    ASSERT_EQ(::mincore(base, bytes, vec.data()), 0);
    std::fill(a.begin(), a.end(), 1u);
    a = MappedArray<std::uint32_t>();
    for (std::size_t off = 0; off < bytes; off += page) {
        errno = 0;
        ASSERT_EQ(::mincore(base + off, page, vec.data()), -1)
            << "page at +" << off << " still mapped";
        ASSERT_EQ(errno, ENOMEM);
    }
}

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
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    // For two values the geometric mean squared is the product of
    // the arithmetic and harmonic means: sqrt(2 * 8) = 4.
    EXPECT_NEAR(arithmeticMean({2.0, 8.0}) * harmonicMean({2.0, 8.0}),
                4.0 * 4.0, 1e-12);
}

TEST(Means, HarmonicLeArithmetic)
{
    const std::vector<double> v = {0.5, 1.3, 2.2, 0.9};
    EXPECT_LE(harmonicMean(v), arithmeticMean(v) + 1e-12);
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

int
testUsage()
{
    return 7;
}

TEST(Env, FlagParserReadsValuesAndExitsOnBadOnes)
{
    const FlagParser flags{"tool", testUsage};
    char prog[] = "tool", refs[] = "--refs", good[] = "4000000",
         bad[] = "4e6", scale[] = "--scale", half[] = "0.5";
    char *argv[] = {prog, refs, good, scale, half, refs, bad, refs};
    int i = 1;
    EXPECT_STREQ(flags.value(8, argv, i), "4000000");
    EXPECT_EQ(i, 2);
    i = 1;
    EXPECT_EQ(flags.u64(8, argv, i, 1, 1u << 30), 4'000'000u);
    EXPECT_EQ(i, 2);
    i = 3;
    EXPECT_EQ(flags.number(8, argv, i, 0.0, 1.0), 0.5);
    EXPECT_EQ(i, 4);
    i = 5;
    EXPECT_EXIT(flags.u64(8, argv, i, 1, 1u << 30),
                testing::ExitedWithCode(7), "tool: --refs '4e6'");
    i = 7;
    EXPECT_EXIT(flags.u64(8, argv, i, 1, 1u << 30),
                testing::ExitedWithCode(7), "missing value");
    EXPECT_EXIT(flags.value(8, argv, i), testing::ExitedWithCode(7),
                "tool: --refs '': missing value");
}


/** @p n nested arrays: "[[...]]". */
std::string
nestedArrays(std::size_t n)
{
    return std::string(n, '[') + std::string(n, ']');
}

TEST(Json, RejectsGarbageInsteadOfGuessing)
{
    // Every wire frame and cache entry goes through Json::parse:
    // each of these used to crash, or to decode to a value the
    // text did not say.
    struct Case
    {
        const char *what;
        std::string text;
    };
    const Case cases[] = {
        {"unbounded nesting", std::string(100'000, '[')},
        {"65 levels", nestedArrays(65)},
        {"uint64 overflow", "18446744073709551616"},
        {"overflow in a member", "{\"seed\":99999999999999999999}"},
        {"double overflow", "1e999"},
        {"non-hex \\u", "\"\\uzzzz\""},
        {"short \\u", "\"\\u00e\""},
        {"lone low surrogate", "\"\\udc00\""},
        {"unpaired high surrogate", "\"\\ud800x\""},
        {"high + non-low surrogate", "\"\\ud800\\u0041\""},
        {"unknown escape", "\"\\q\""},
        {"raw control char", std::string("\"a\x01z\"")},
        {"raw newline", "\"a\nz\""},
        {"number then garbage", "1-2"},
        {"leading zero", "01"},
        {"bare minus", "-"},
        {"double minus", "--1"},
        {"plus sign", "+1"},
        {"empty fraction", "1."},
        {"missing integer part", ".5"},
        {"empty exponent", "1e"},
        {"signed empty exponent", "1e+"},
        {"hex literal", "0x10"},
        {"NaN", "NaN"},
        {"Infinity", "Infinity"},
        {"duplicate member", "{\"op\":\"poll\",\"op\":\"stats\"}"},
        {"nested duplicate", "{\"a\":{\"b\":1,\"b\":1}}"},
        {"trailing comma (array)", "[1,]"},
        {"trailing comma (object)", "{\"a\":1,}"},
        {"trailing garbage", "{} x"},
        {"two documents", "1 2"},
        {"empty", ""},
        {"whitespace only", " \n\t"},
        {"vertical tab", "\v1"},
        {"truncated literal", "tru"},
        {"unterminated string", "\"abc"},
        {"unterminated object", "{\"a\":1"},
        {"bare key", "{a:1}"},
    };
    for (const Case &c : cases) {
        EXPECT_FALSE(Json::parse(c.text).has_value())
            << c.what << ": '" << c.text.substr(0, 40) << "'";
    }
}

TEST(Json, AcceptsTheRfc8259Grammar)
{
    struct Case
    {
        std::string text;
        std::string dump;
    };
    const Case cases[] = {
        {"0", "0"},
        {"18446744073709551615", "18446744073709551615"},
        {"-0", "-0.0"},
        {"-12", "-12.0"},
        {"1.5e3", "1500.0"},
        {"2E-1", "0.20000000000000001"},
        {"0.5", "0.5"},
        {"4.9406564584124654e-324", "4.9406564584124654e-324"},
        {"\"\\u0041\\u00e9\"", "\"A\xc3\xa9\""},
        {"\"\\ud83d\\ude00\"", "\"\xf0\x9f\x98\x80\""},
        {"\"\\b\\f\\/\"", "\"\\u0008\\u000c/\""},
        {" { \"a\" : [ 1 , true , null ] }\r\n",
         "{\"a\":[1,true,null]}"},
        {"{\"a\":{\"a\":1}}", "{\"a\":{\"a\":1}}"},
        {nestedArrays(64), nestedArrays(64)},
    };
    for (const Case &c : cases) {
        const auto j = Json::parse(c.text);
        ASSERT_TRUE(j.has_value()) << "'" << c.text << "'";
        EXPECT_EQ(j->dump(), c.dump) << "'" << c.text << "'";
    }
}

TEST(Json, EmittedDocumentsRoundTrip)
{
    // Everything dump() can emit parses back to the same value and
    // the same bytes: every scalar kind at its extremes, escaped
    // strings and nested containers.
    Json doc = Json::object();
    doc.set("max", std::numeric_limits<std::uint64_t>::max());
    doc.set("zero", std::uint64_t{0});
    doc.set("pi", 3.141592653589793);
    doc.set("tiny", std::numeric_limits<double>::denorm_min());
    doc.set("huge", std::numeric_limits<double>::max());
    doc.set("negative", -2.5);
    doc.set("whole", 4.0);
    doc.set("text", std::string("q\"b\\s\n\t\r\x01\x1f\x7f\xc3\xa9"));
    doc.set("flag", false);
    doc.set("nothing", Json());
    Json list = Json::array();
    list.push(Json::object());
    list.push(Json::array());
    list.push(doc);
    doc.set("list", std::move(list));

    const std::string bytes = doc.dump();
    const auto back = Json::parse(bytes);
    ASSERT_TRUE(back.has_value()) << bytes;
    EXPECT_TRUE(*back == doc);
    EXPECT_EQ(back->dump(), bytes);
}

} // namespace
} // namespace sipt
