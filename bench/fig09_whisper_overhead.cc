/**
 * @file
 * Fig 9 — WHISPER execution-time overheads over unprotected runs:
 * MM(40us), TM(40us) and TT at 40/80/160us EW targets (TEW 2us),
 * broken into Attach / Detach / Rand / Cond / Other components.
 *
 * Usage: fig09_whisper_overhead [sections] [--trace=DIR] [--jobs=N]
 *        (--help lists each flag and its range)
 *
 * With --trace=DIR, every protected run also records an event trace
 * and drops DIR/<prog>-<scheme>.json for Perfetto. Tracing charges
 * no cycles, so the printed numbers are identical either way.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "common/cli.hh"
#include "harness.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::workloads;
using namespace terp::bench;

int
terp::bench::run_fig09(int argc, char **argv)
{
    unsigned jobs = 1;
    std::string traceDir;
    WhisperParams p;
    FlagTable("fig09_whisper_overhead",
              "Fig 9: WHISPER overheads vs unprotected runs")
        .jobs("--jobs", jobs)
        .count("sections", p.sections, 1, "WHISPER transactions per run")
        .text("--trace", traceDir, "DIR",
              "write one Chrome trace per protected run into DIR")
        .parse(argc, argv);

    std::printf("=== Fig 9: WHISPER overheads vs unprotected "
                "(TEW 2us) ===\n\n");
    printBreakdownHeader("prog");

    struct SchemeDef
    {
        const char *name;
        const char *slug; // filesystem-friendly, for --trace output
        core::RuntimeConfig cfg;
    };
    const SchemeDef schemes[] = {
        {"MM(40us)", "mm40", core::RuntimeConfig::mm(usToCycles(40))},
        {"TM(40us)", "tm40", core::RuntimeConfig::tm(usToCycles(40))},
        {"TT(40us)", "tt40", core::RuntimeConfig::tt(usToCycles(40))},
        {"TT(80us)", "tt80", core::RuntimeConfig::tt(usToCycles(80))},
        {"TT(160us)", "tt160",
         core::RuntimeConfig::tt(usToCycles(160))},
    };
    const std::size_t ns = std::size(schemes);
    const std::vector<std::string> &names = whisperNames();

    std::vector<RunResult> base(names.size());
    std::vector<RunResult> cells(names.size() * ns);
    ParallelRunner pool(jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.add([&, i] {
            base[i] = runWhisperCounted(
                names[i], core::RuntimeConfig::unprotected(), p);
        });
        for (std::size_t j = 0; j < ns; ++j) {
            pool.add([&, i, j] {
                core::RuntimeConfig cfg = traceDir.empty()
                                              ? schemes[j].cfg
                                              : schemes[j].cfg.withTrace();
                cells[i * ns + j] = runWhisperCounted(names[i], cfg, p);
            });
        }
    }
    pool.run();

    std::vector<double> avg_total(ns, 0.0);
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = 0; j < ns; ++j) {
            const RunResult &r = cells[i * ns + j];
            dumpTrace(r, traceDir,
                      names[i] + "-" + schemes[j].slug);
            Breakdown d = breakdown(r, base[i]);
            printBreakdownRow(names[i], schemes[j].name, d);
            avg_total[j] += d.total;
        }
        std::printf("\n");
    }

    std::printf("--- averages over the six workloads ---\n");
    for (std::size_t j = 0; j < ns; ++j) {
        std::printf("%-10s avg total overhead: %5.1f%%\n",
                    schemes[j].name,
                    100.0 * avg_total[j] /
                        static_cast<double>(names.size()));
    }
    std::printf("\npaper: MM(40us) ~20%%, TM(40us) ~30%% (1.5x MM), "
                "TT(40us) ~6%%, decreasing with larger EW targets.\n");
    return 0;
}
