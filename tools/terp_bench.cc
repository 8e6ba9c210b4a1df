/**
 * @file
 * terp-bench — runs the whole table/figure suite in-process and
 * emits a machine-readable performance summary (BENCH_terp.json):
 * per-figure wall-clock, simulation counts, simulated cycles and
 * sims/sec, plus host thread count and the git revision.
 *
 * The figure harnesses print their tables to stdout; terp-bench
 * redirects stdout to /dev/null while each figure runs (progress
 * goes to stderr, the JSON to a file), so the tool measures the
 * simulation work, not terminal I/O.
 *
 * Simulated-cycle totals are deterministic per figure, so they
 * double as a regression oracle: --golden compares them against a
 * checked-in summary and fails on any drift, catching accidental
 * semantic changes from performance work.
 *
 * Usage:
 *   terp-bench [--quick] [--jobs=N] [--repeat=N] [--out=FILE]
 *              [--golden=FILE] [--write-golden=FILE]
 *              [--metrics-prom=FILE]
 *
 * Options:
 *   --quick            reduced workload sizes (CI smoke run)
 *   --jobs=N           worker threads per figure (default 1)
 *   --repeat=N         run the suite N times and report best-of-N
 *                      wall clock (one JSON record);
 *                      simulated work must be identical across
 *                      passes — a mismatch is reported as drift;
 *                      the exported metrics are the first pass's
 *   --out=FILE         JSON output path (default BENCH_terp.json)
 *   --golden=FILE      fail (exit 1) if per-figure sims or simulated
 *                      cycles differ from FILE
 *   --write-golden=FILE  write the per-figure summary to FILE
 *   --metrics-prom=FILE  also export the aggregated metrics registry
 *                      in Prometheus text format
 *
 * The JSON summary ends with a "metrics" section: the process-wide
 * registry every run of the first pass merged into
 * (bench::globalMetrics()), giving
 * the suite's security-posture aggregate — exposure-window
 * percentiles, silent-operation fractions, sweeper activity — next
 * to the performance numbers. tools/terp-stats reads it back.
 *
 * Exit status: 0 on success, 1 on golden drift, 2 on usage errors.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/cli.hh"
#include "common/golden.hh"
#include "harness.hh"
#include "metrics/export.hh"

using namespace terp;

namespace {

struct FigResult
{
    std::string name;
    double wallS = 0;
    std::uint64_t sims = 0;
    std::uint64_t simCycles = 0;
};

/** Run @p fn with stdout pointed at /dev/null, restoring it after. */
int
runSilenced(int (*fn)(int, char **), int argc, char **argv)
{
    std::fflush(stdout);
    int saved = dup(STDOUT_FILENO);
    int devnull = open("/dev/null", O_WRONLY);
    if (saved < 0 || devnull < 0) {
        // Can't redirect; run loudly rather than not at all.
        if (saved >= 0)
            close(saved);
        if (devnull >= 0)
            close(devnull);
        return fn(argc, argv);
    }
    dup2(devnull, STDOUT_FILENO);
    close(devnull);
    int rc = fn(argc, argv);
    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    close(saved);
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned jobs = 1;
    unsigned repeat = 1;
    std::string outPath = "BENCH_terp.json";
    std::string goldenPath;
    std::string writeGoldenPath;
    std::string promPath;

    FlagTable("terp-bench",
              "Run the whole figure/table suite in-process and write a "
              "performance summary")
        .toggle("--quick", quick, "reduced workload sizes (CI smoke run)")
        .jobs("--jobs", jobs)
        .count("--repeat", repeat, 1,
               "passes; wall clock is the best of them")
        .text("--out", outPath, "FILE", "JSON summary")
        .text("--golden", goldenPath, "FILE",
              "fail (exit 1) if per-figure sims or simulated cycles "
              "differ from FILE")
        .text("--write-golden", writeGoldenPath, "FILE",
              "write the per-figure summary to FILE")
        .text("--metrics-prom", promPath, "FILE",
              "also export the aggregated metrics (Prometheus text)")
        .parse(argc, argv);

    const std::string jobsFlag = "--jobs=" + std::to_string(jobs);
    std::vector<FigResult> results;
    // Best-of-N: wall-clock fields are the minimum over passes,
    // simulated work the (identical) per-pass amount, so one record
    // summarizes N passes without inflating throughput by host noise
    // in either direction.
    double bestPassS = 0;
    std::uint64_t passSims = 0;
    bool repeatDrift = false;
    // The first pass's metrics: later passes merge the same samples
    // into bench::globalMetrics() again, which would multiply every
    // count by the pass count.
    metrics::Registry passMetrics;

    for (unsigned pass = 0; pass < repeat; ++pass) {
        const auto passStart = std::chrono::steady_clock::now();
        const bench::SimTally passBefore = bench::tallySnapshot();
        if (repeat > 1)
            std::fprintf(stderr, "terp-bench: pass %u/%u\n", pass + 1,
                         repeat);

        for (std::size_t fi = 0; fi < bench::figures().size(); ++fi) {
            const bench::Figure &fig = bench::figures()[fi];
            // Rebuild a mutable argv per figure: name, positionals,
            // jobs.
            std::vector<std::string> args;
            args.push_back(fig.name);
            if (quick)
                for (const std::string &a : fig.quickArgs)
                    args.push_back(a);
            args.push_back(jobsFlag);
            std::vector<char *> cargv;
            for (std::string &a : args)
                cargv.push_back(a.data());
            cargv.push_back(nullptr);

            std::fprintf(stderr, "terp-bench: %-8s ...", fig.name);
            const bench::SimTally before = bench::tallySnapshot();
            const auto t0 = std::chrono::steady_clock::now();
            runSilenced(fig.run, static_cast<int>(args.size()),
                        cargv.data());
            const auto t1 = std::chrono::steady_clock::now();
            const bench::SimTally after = bench::tallySnapshot();

            FigResult r;
            r.name = fig.name;
            r.wallS = std::chrono::duration<double>(t1 - t0).count();
            r.sims = after.sims - before.sims;
            r.simCycles = after.simCycles - before.simCycles;
            if (pass == 0) {
                results.push_back(r);
            } else {
                FigResult &best = results[fi];
                if (r.sims != best.sims ||
                    r.simCycles != best.simCycles) {
                    std::fprintf(stderr,
                                 "terp-bench: DRIFT across passes in "
                                 "%s\n",
                                 fig.name);
                    repeatDrift = true;
                }
                if (r.wallS < best.wallS)
                    best.wallS = r.wallS;
            }
            std::fprintf(stderr, " %6.2fs  %3llu sims  %llu cycles\n",
                         r.wallS, (unsigned long long)r.sims,
                         (unsigned long long)r.simCycles);
        }

        const double passS =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - passStart)
                .count();
        const bench::SimTally passAfter = bench::tallySnapshot();
        if (pass == 0) {
            bestPassS = passS;
            passSims = passAfter.sims - passBefore.sims;
            passMetrics.merge(bench::globalMetrics());
        } else if (passS < bestPassS) {
            bestPassS = passS;
        }
    }
    const double totalS = bestPassS;
    bench::SimTally total = bench::tallySnapshot();
    total.sims = passSims;
    if (repeatDrift)
        std::fprintf(stderr,
                     "terp-bench: WARNING: simulated work drifted "
                     "across repeat passes; results suspect\n");

    // ---- JSON summary --------------------------------------------
    if (FILE *f = std::fopen(outPath.c_str(), "w")) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"git_rev\": \"%s\",\n",
                     bench::gitRev().c_str());
        std::fprintf(f, "  \"host_threads\": %u,\n",
                     std::thread::hardware_concurrency());
        std::fprintf(f, "  \"jobs\": %u,\n", jobs);
        std::fprintf(f, "  \"quick\": %s,\n",
                     quick ? "true" : "false");
        std::fprintf(f, "  \"repeat\": %u,\n", repeat);
        std::fprintf(f, "  \"total_wall_s\": %.3f,\n", totalS);
        std::fprintf(f, "  \"total_sims\": %llu,\n",
                     (unsigned long long)total.sims);
        std::fprintf(f, "  \"total_sims_per_s\": %.2f,\n",
                     totalS > 0 ? total.sims / totalS : 0.0);
        std::fprintf(f, "  \"figures\": [\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const FigResult &r = results[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"wall_s\": %.3f, "
                         "\"sims\": %llu, \"sim_cycles\": %llu, "
                         "\"sims_per_s\": %.2f}%s\n",
                         r.name.c_str(), r.wallS,
                         (unsigned long long)r.sims,
                         (unsigned long long)r.simCycles,
                         r.wallS > 0 ? r.sims / r.wallS : 0.0,
                         i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"metrics\": %s\n",
                     metrics::toJson(passMetrics, "  ")
                         .c_str());
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::fprintf(stderr, "terp-bench: wrote %s (%.2fs total)\n",
                     outPath.c_str(), totalS);
    } else {
        std::fprintf(stderr, "terp-bench: cannot write %s\n",
                     outPath.c_str());
        return 2;
    }

    if (!promPath.empty()) {
        FILE *f = std::fopen(promPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "terp-bench: cannot write %s\n",
                         promPath.c_str());
            return 2;
        }
        std::string prom =
            metrics::toPrometheus(passMetrics);
        std::fwrite(prom.data(), 1, prom.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "terp-bench: wrote %s\n",
                     promPath.c_str());
    }

    // ---- golden summary (simulated work only; no wall-clock) ------
    std::string summary =
        "# terp-bench golden summary: <figure> <sims> <sim_cycles>\n";
    for (const FigResult &r : results)
        summary += r.name + " " + std::to_string(r.sims) + " " +
                  std::to_string(r.simCycles) + "\n";
    return golden("terp-bench", summary, goldenPath, writeGoldenPath);
}
