/**
 * @file
 * Unit tests for src/common: units, logging, RNG, statistics, strict
 * flag parsing, the flag table, the golden helper and JSON escaping.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/cli.hh"
#include "common/golden.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"

using namespace terp;

// ------------------------------------------------------------- units

TEST(Units, CycleConversionsRoundTrip)
{
    EXPECT_EQ(usToCycles(1.0), cyclesPerUs);
    EXPECT_EQ(usToCycles(40.0), 40 * cyclesPerUs);
    EXPECT_DOUBLE_EQ(cyclesToUs(2200), 1.0);
    EXPECT_NEAR(cyclesToNs(22), 10.0, 1e-9);
}

TEST(Units, TableTwoLatenciesMatchThePaper)
{
    EXPECT_EQ(latency::dram, 120u);
    EXPECT_EQ(latency::nvm, 360u);
    EXPECT_EQ(latency::attachSyscall, 4422u);
    EXPECT_EQ(latency::detachSyscall, 3058u);
    EXPECT_EQ(latency::randomize, 3718u);
    EXPECT_EQ(latency::tlbInvalidate, 550u);
    EXPECT_EQ(latency::silentCond, 27u);
    EXPECT_EQ(latency::permMatrix, 1u);
    EXPECT_EQ(latency::tlbMiss, 30u);
}

TEST(Units, DefaultProtectionTargets)
{
    EXPECT_EQ(target::defaultEw, usToCycles(40.0));
    EXPECT_EQ(target::defaultTew, usToCycles(2.0));
}

// ----------------------------------------------------------- logging

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(TERP_PANIC("boom"), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(TERP_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(TERP_ASSERT(1 + 1 == 2));
    EXPECT_THROW(TERP_ASSERT(1 + 1 == 3, "math broke"),
                 std::logic_error);
}

// --------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.nextRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values hit
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (r.nextBool(0.3))
            ++hits;
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Rng, JitterBounds)
{
    Rng r(15);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.jitter(1000, 0.25);
        EXPECT_GE(v, 750u);
        EXPECT_LE(v, 1250u);
    }
}

TEST(Rng, JitterZeroSpreadIsIdentity)
{
    Rng r(17);
    EXPECT_EQ(r.jitter(123, 0.0), 123u);
    EXPECT_EQ(r.jitter(0, 0.5), 0u);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng a(21);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Zipf, StaysInRangeAndSkews)
{
    ZipfGenerator z(1000, 0.99, 3);
    std::uint64_t low = 0, total = 30000;
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t v = z.next();
        EXPECT_LT(v, 1000u);
        if (v < 10)
            ++low;
    }
    // With theta=0.99 the 1% hottest items draw far more than 1%.
    EXPECT_GT(low, total / 10);
}

TEST(Zipf, ZeroThetaIsNearUniform)
{
    ZipfGenerator z(100, 0.0, 5);
    std::uint64_t low = 0, total = 50000;
    for (std::uint64_t i = 0; i < total; ++i)
        if (z.next() < 10)
            ++low;
    EXPECT_NEAR(low / double(total), 0.10, 0.02);
}

// ------------------------------------------------------------- stats

TEST(Summary, TracksMinMaxMeanCount)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0u);
    s.add(10);
    s.add(30);
    s.add(20);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.min(), 10u);
    EXPECT_EQ(s.max(), 30u);
    EXPECT_DOUBLE_EQ(s.mean(), 20.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Histogram, BucketPlacement)
{
    Histogram h({1.0, 2.0, 4.0});
    h.add(0.5); // bucket 0 (<=1)
    h.add(1.0); // bucket 0 (inclusive upper bound)
    h.add(1.5); // bucket 1
    h.add(4.0); // bucket 2
    h.add(9.0); // overflow
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 1u); // overflow bucket
    EXPECT_EQ(h.totalCount(), 5u);
}

TEST(Histogram, FractionsAndPercentiles)
{
    Histogram h({10.0, 100.0});
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.10);
    EXPECT_NEAR(h.fractionAbove(50.0), 0.5, 1e-9);
    EXPECT_NEAR(h.percentile(50.0), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(95.0), 95.0, 1.0);
}

TEST(Histogram, Log2BucketsCoverRange)
{
    Histogram h = Histogram::log2Buckets(0.5, 1024.0);
    // 0.5, 1, 2, ..., 1024 -> 12 bounds.
    EXPECT_EQ(h.bounds().size(), 12u);
    EXPECT_DOUBLE_EQ(h.bounds().front(), 0.5);
    EXPECT_DOUBLE_EQ(h.bounds().back(), 1024.0);
}

TEST(Histogram, RejectsNonAscendingBounds)
{
    EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
}

TEST(CounterSet, IncrementAndQuery)
{
    CounterSet c;
    EXPECT_EQ(c.get("x"), 0u);
    c.inc("x");
    c.inc("x", 4);
    c.inc("y", 2);
    EXPECT_EQ(c.get("x"), 5u);
    EXPECT_EQ(c.get("y"), 2u);
    EXPECT_EQ(c.all().size(), 2u);
    c.reset();
    EXPECT_EQ(c.get("x"), 0u);
}

// --------------------------------------------------- flags and JSON

TEST(Cli, ParseUnsignedTakesOnlyWholeInRangeNumbers)
{
    EXPECT_EQ(parseUnsigned("12"), 12u);
    EXPECT_EQ(parseUnsigned("0x10"), 16u);
    EXPECT_EQ(parseUnsigned("7", 7, 7), 7u);
    for (const char *bad : {"", "-1", "+1", " 5", "5x", "abc",
                            "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(bad)) << bad;
    EXPECT_FALSE(parseUnsigned("0", 1));
    EXPECT_FALSE(parseUnsigned("4294967296", 0, 4294967295u));
}

TEST(Cli, ParsePositiveRejectsZeroNegativeAndNonFinite)
{
    EXPECT_EQ(parsePositive("2.5"), 2.5);
    for (const char *bad : {"", "0", "-1", "nan", "inf", "1e", "5us"})
        EXPECT_FALSE(parsePositive(bad)) << bad;
}

TEST(Cli, ParseFractionTakesTheClosedUnitInterval)
{
    EXPECT_EQ(parseFraction("0"), 0.0);
    EXPECT_EQ(parseFraction("1"), 1.0);
    EXPECT_EQ(parsePositive("1", 1.0), 1.0);
    for (const char *bad : {"", "-0.1", "1.01", "2", "nan"})
        EXPECT_FALSE(parseFraction(bad)) << bad;
    EXPECT_FALSE(parsePositive("1.01", 1.0));
}

namespace {

/** parse() over @p words, as if they followed the program name. */
void
parseWords(FlagTable &flags, std::vector<std::string> words)
{
    words.insert(words.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    argv.push_back(nullptr);
    flags.parse(static_cast<int>(words.size()), argv.data());
}

/** The test flag table: every kind, bound to @p v. */
struct Bound
{
    unsigned n = 3;
    std::uint64_t big = 0;
    double x = 1.5, f = 0.25;
    std::string path, scheme = "tt", first;
    bool on = false;

    FlagTable
    table()
    {
        FlagTable t("prog", "test table");
        t.count("first-n", n, 1, "a positional count", 10)
            .count("--big", big, 0, "a count")
            .positive("--x", x, "a positive number", 2.0)
            .fraction("--f", f, "a fraction")
            .text("--path", path, "FILE", "a path")
            .choice("--scheme", scheme, {"mm", "tt"}, "a choice")
            .toggle("--on", on, "a toggle");
        return t;
    }
};

} // namespace

TEST(Cli, FlagTableTakesBothSpellings)
{
    Bound b;
    FlagTable t = b.table();
    parseWords(t, {"--big=7", "--path", "a b", "--scheme", "mm", "--x=2",
                   "--f", "1", "--on"});
    EXPECT_EQ(b.big, 7u);
    EXPECT_EQ(b.path, "a b");
    EXPECT_EQ(b.scheme, "mm");
    EXPECT_EQ(b.x, 2.0);
    EXPECT_EQ(b.f, 1.0);
    EXPECT_TRUE(b.on);
    EXPECT_EQ(b.n, 3u); // untouched positional keeps its default
}

TEST(Cli, FlagTableRangeEdgesAndHex)
{
    for (const char *edge : {"1", "10", "0xa"}) {
        Bound b;
        FlagTable t = b.table();
        parseWords(t, {edge});
        EXPECT_EQ(b.n, std::stoul(edge, nullptr, 0)) << edge;
    }
    Bound b;
    FlagTable t = b.table();
    parseWords(t, {"--big=0x10"});
    EXPECT_EQ(b.big, 16u);
}

TEST(Cli, FlagTableRejectsBadInputWithExitTwo)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"0"}, "first-n needs an integer in \\[1, 10\\], got '0'"},
            {{"11"}, "first-n needs an integer in \\[1, 10\\], got '11'"},
            {{"-1"}, "first-n needs an integer in \\[1, 10\\], got '-1'"},
            {{"--big"}, "--big needs a value"},
            {{"--big=-1"}, "--big needs an integer"},
            {{"--x=2.5"}, "--x needs a number in \\(0, 2\\]"},
            {{"--f=1.5"}, "--f needs a number in \\[0, 1\\]"},
            {{"--scheme=tm"}, "--scheme needs one of mm\\|tt, got 'tm'"},
            {{"--on=1"}, "--on takes no value"},
            {{"--bogus"}, "unknown option '--bogus'"},
            {{"1", "2"}, "unexpected argument '2'"},
        };
    for (const auto &[words, message] : cases) {
        Bound b;
        FlagTable t = b.table();
        EXPECT_EXIT(parseWords(t, words), testing::ExitedWithCode(2),
                    "^prog: " + message)
            << words[0];
    }
}

TEST(Cli, FlagTableHelpNamesEveryFlagAndExitsZero)
{
    for (const char *name : {"first-n", "--big=N", "--x=X", "--f=F",
                             "--path=FILE", "--scheme=NAME", "--on",
                             "--help"}) {
        Bound b;
        FlagTable t = b.table();
        EXPECT_EXIT(
            {
                // --help prints to stdout; the matcher reads stderr.
                dup2(STDERR_FILENO, STDOUT_FILENO);
                parseWords(t, {"--help"});
            },
            testing::ExitedWithCode(0), name);
    }
}

TEST(Cli, FlagTableAppliesInDeclarationOrder)
{
    // A reset declared first never overwrites a value given before
    // it on the command line.
    unsigned shards = 2;
    std::vector<std::string> rest;
    FlagTable t("prog", "order");
    t.toggle("--reset", [&] { shards = 1; }, "reset")
        .count("--shards", shards, 1, "shards")
        .rest(rest, "ARG", "the rest");
    parseWords(t, {"--shards=8", "a", "--reset", "b"});
    EXPECT_EQ(shards, 8u);
    EXPECT_EQ(rest, (std::vector<std::string>{"a", "b"}));
}

// ------------------------------------------------------------ golden

namespace {

const std::string kQuickGolden =
    std::string(TERP_SOURCE_DIR) + "/bench/golden/quick.txt";

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

} // namespace

TEST(Golden, MatchingTextPassesAndWriteRoundTrips)
{
    std::optional<std::string> text = readFile(kQuickGolden);
    ASSERT_TRUE(text);
    EXPECT_EQ(golden("t", *text, kQuickGolden, ""), 0);
    const std::string copy = tempPath("golden_copy.txt");
    EXPECT_EQ(golden("t", *text, copy, copy), 0);
    EXPECT_EQ(readFile(copy), text);
    std::remove(copy.c_str());
}

TEST(Golden, OneNumberEditIsDriftNamingTheLine)
{
    std::optional<std::string> text = readFile(kQuickGolden);
    ASSERT_TRUE(text);
    std::string edited = *text;
    const std::string::size_type at = edited.find("fig10 30 ");
    ASSERT_NE(at, std::string::npos);
    edited[at + 6] = '4'; // fig10 sims 30 -> 40
    const std::string copy = tempPath("golden_edited.txt");
    std::ofstream(copy) << edited;

    testing::internal::CaptureStderr();
    EXPECT_EQ(golden("t", *text, copy, ""), 1);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DRIFT"), std::string::npos) << err;
    EXPECT_NE(err.find("golden: fig10 40 283037002"), std::string::npos)
        << err;
    EXPECT_NE(err.find("actual: fig10 30 283037002"), std::string::npos)
        << err;
    std::remove(copy.c_str());
}

TEST(Golden, UnreadableOrUnwritableFileIsExitTwo)
{
    testing::internal::CaptureStderr();
    EXPECT_EQ(golden("t", "x\n", tempPath("no/such/golden.txt"), ""), 2);
    EXPECT_EQ(golden("t", "x\n", "", tempPath("no/such/out.txt")), 2);
    testing::internal::GetCapturedStderr();
}

TEST(Json, EscapeLeavesNoRawControlByte)
{
    EXPECT_EQ(jsonEscape("a\"b\\\n\r\t\x01\x1f~"),
              "a\\\"b\\\\\\n\\r\\t\\u0001\\u001f~");
}
