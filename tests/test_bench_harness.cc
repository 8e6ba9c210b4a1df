/**
 * @file
 * Tests for the parallel benchmark harness (bench/harness.*):
 *
 *  - the golden invariant behind every figure harness: running the
 *    reduced Fig 11 matrix at --jobs=8 produces byte-identical
 *    stdout (and therefore identical simulated-cycle results) to
 *    --jobs=1, where --jobs=1 is the original serial code path;
 *  - the simulation tally and the git revision BENCH_terp.json
 *    records;
 *  - ParallelRunner ordering, exception propagation, and a seeded
 *    differential-fuzz pass so the runtime structures the optimized
 *    benches exercise stay pinned to the Section-IV oracle.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "check/fuzzer.hh"
#include "harness.hh"

using namespace terp;

namespace {

/** Run @p fn with stdout captured to a string (fd-level, so C stdio
 *  from the figure harnesses is included). */
template <typename Fn>
std::string
captureStdout(Fn &&fn)
{
    std::fflush(stdout);
    char path[] = "/tmp/terp_bench_capture_XXXXXX";
    int tmp = mkstemp(path);
    EXPECT_GE(tmp, 0);
    int saved = dup(STDOUT_FILENO);
    EXPECT_GE(saved, 0);
    dup2(tmp, STDOUT_FILENO);
    close(tmp);
    fn();
    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    close(saved);

    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    std::remove(path);
    return body.str();
}

std::string
runFig11(const char *jobsFlag)
{
    return captureStdout([&] {
        // Reduced matrix: tiny scale, 2 simulated threads.
        std::vector<std::string> args = {"fig11", "0.05", "2",
                                         jobsFlag};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        bench::run_fig11(static_cast<int>(args.size()), argv.data());
    });
}

TEST(BenchHarness, Fig11ParallelMatchesSerialByteForByte)
{
    const std::string serial = runFig11("--jobs=1");
    const std::string parallel = runFig11("--jobs=8");
    // Sanity: the run actually produced the figure.
    EXPECT_NE(serial.find("=== Fig 11"), std::string::npos);
    EXPECT_NE(serial.find("avg total overhead"), std::string::npos);
    EXPECT_EQ(serial, parallel);
}

TEST(BenchHarness, TallyCountsSimulations)
{
    const bench::SimTally before = bench::tallySnapshot();
    bench::noteSim(123);
    bench::noteSim(77);
    const bench::SimTally after = bench::tallySnapshot();
    EXPECT_EQ(after.sims - before.sims, 2u);
    EXPECT_EQ(after.simCycles - before.simCycles, 200u);
}

TEST(BenchHarness, GitRevIsSane)
{
    // "unknown" outside a checkout, else a short hex revision: never
    // empty and never raw popen noise with trailing newlines.
    const std::string rev = bench::gitRev();
    EXPECT_FALSE(rev.empty());
    EXPECT_EQ(rev.find('\n'), std::string::npos);
    if (rev != "unknown") {
        for (char c : rev)
            EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)))
                << rev;
    }
}

TEST(BenchHarness, RunnerExecutesEveryTaskIntoItsSlot)
{
    const std::size_t n = 100;
    std::vector<int> out(n, 0);
    bench::ParallelRunner pool(8);
    for (std::size_t i = 0; i < n; ++i)
        pool.add([&out, i] { out[i] = static_cast<int>(i) + 1; });
    pool.run();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

TEST(BenchHarness, RunnerSerialRunsInOrder)
{
    std::vector<int> order;
    bench::ParallelRunner pool(1);
    for (int i = 0; i < 5; ++i)
        pool.add([&order, i] { order.push_back(i); });
    pool.run();
    ASSERT_EQ(order.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(BenchHarness, RunnerRethrowsTaskException)
{
    bench::ParallelRunner pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.add([&ran] { ran.fetch_add(1); });
    pool.add([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.run(), std::runtime_error);
}

// Enabling metrics must not perturb the simulation: recording never
// charges simulated cycles and never prints, so every number the
// fig11/table4 print phases consume — cycle totals, per-charge
// breakdowns, exposure statistics, silent fractions — is identical
// with the registry on or off. Byte-identical figure output follows,
// since the tables are pure functions of these results.
TEST(BenchHarness, MetricsOnOffLeavesSpecRunIdentical)
{
    workloads::SpecParams p;
    p.threads = 2;
    p.scale = 0.05;
    const core::RuntimeConfig on = core::RuntimeConfig::tt();
    const workloads::RunResult a =
        workloads::runSpec("mcf", on, p);
    const workloads::RunResult b =
        workloads::runSpec("mcf", on.withoutMetrics(), p);
    ASSERT_EQ(b.metrics, nullptr);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.report.total, b.report.total);
    EXPECT_EQ(a.report.work, b.report.work);
    EXPECT_EQ(a.report.attach, b.report.attach);
    EXPECT_EQ(a.report.detach, b.report.detach);
    EXPECT_EQ(a.report.rand, b.report.rand);
    EXPECT_EQ(a.report.cond, b.report.cond);
    EXPECT_EQ(a.report.other, b.report.other);
    EXPECT_EQ(a.report.silentFraction, b.report.silentFraction);
    EXPECT_EQ(a.exposure.ewCount, b.exposure.ewCount);
    EXPECT_EQ(a.exposure.ewMaxUs, b.exposure.ewMaxUs);
    EXPECT_EQ(a.exposure.er, b.exposure.er);
    EXPECT_EQ(a.exposure.ter, b.exposure.ter);
}

TEST(BenchHarness, MetricsOnOffLeavesWhisperRunIdentical)
{
    workloads::WhisperParams p;
    p.sections = 30;
    for (const core::RuntimeConfig &cfg :
         {core::RuntimeConfig::mm(), core::RuntimeConfig::tt()}) {
        const workloads::RunResult a =
            workloads::runWhisper("hashmap", cfg, p);
        const workloads::RunResult b = workloads::runWhisper(
            "hashmap", cfg.withoutMetrics(), p);
        EXPECT_EQ(a.totalCycles, b.totalCycles);
        EXPECT_EQ(a.report.total, b.report.total);
        EXPECT_EQ(a.report.silentFraction, b.report.silentFraction);
        EXPECT_EQ(a.exposure.ewAvgUs, b.exposure.ewAvgUs);
        EXPECT_EQ(a.exposure.tewAvgUs, b.exposure.tewAvgUs);
    }
}

// The hot-path work behind the benches (interpreter dispatch, cache
// indexing, runtime counters) must not change protection semantics:
// replay a seeded schedule matrix against the Section-IV oracle.
TEST(BenchHarness, SeededFuzzAgainstOptimizedRuntime)
{
    check::FuzzOptions opt;
    opt.seeds = 6;
    opt.firstSeed = 20260805;
    opt.gen.events = 40;
    opt.gen.threads = 3;
    opt.gen.pmos = 2;
    opt.gen.ewTarget = usToCycles(5.0);
    check::FuzzResult res = check::fuzz(opt);
    EXPECT_GT(res.executed, 0u);
    for (const check::Divergence &d : res.divergences)
        ADD_FAILURE() << "divergence: scheme=" << d.scheme
                      << " seed=" << d.seed;
    EXPECT_TRUE(res.ok());
}

} // namespace
