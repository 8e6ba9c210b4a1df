/**
 * @file
 * Parallel work-queue runner for the table/figure regeneration
 * harnesses.
 *
 * Every cell of a figure (one workload under one scheme) is an
 * independent Machine + Runtime simulation with no shared mutable
 * state, so the harnesses split into two phases:
 *
 *  1. compute — every simulation is enqueued on a ParallelRunner and
 *     writes its RunResult into a pre-indexed slot; a --jobs=N pool
 *     of std::threads drains the queue in arbitrary order;
 *  2. print — the original serial loops run unchanged, reading the
 *     slots.
 *
 * Because each simulation is internally seeded and deterministic and
 * the print phase is untouched, stdout is byte-identical to the old
 * serial harnesses for every value of N (the golden test in
 * tests/test_bench_harness.cc holds this invariant down).
 *
 * The counted wrappers additionally feed a process-wide tally of
 * simulations and simulated cycles, which tools/terp-bench reads to
 * compute sims/sec and to detect simulated-cycle drift against the
 * checked-in golden summaries.
 */

#ifndef TERP_BENCH_HARNESS_HH
#define TERP_BENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/registry.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

namespace terp {
namespace bench {

// Entry points of the figure/table harnesses. Each parses its own
// flags (bench/figure_main.cc is the main() of every figure
// executable; tools/terp-bench calls them in-process).
int run_fig08(int argc, char **argv);
int run_fig09(int argc, char **argv);
int run_fig10(int argc, char **argv);
int run_fig11(int argc, char **argv);
int run_table3(int argc, char **argv);
int run_table4(int argc, char **argv);
int run_table5(int argc, char **argv);
int run_table6(int argc, char **argv);
int run_ablation(int argc, char **argv);

/** One figure/table of the suite. */
struct Figure
{
    const char *name;
    int (*run)(int, char **);
    /** Positionals of a --quick run; full runs use the defaults. */
    std::vector<std::string> quickArgs;
};

/** The whole suite, in the order terp-bench runs it. */
const std::vector<Figure> &figures();

/** Short git revision of the working tree, or "unknown". */
std::string gitRev();

/** Snapshot of the process-wide simulation tally. */
struct SimTally
{
    std::uint64_t sims = 0;      //!< simulations completed
    std::uint64_t simCycles = 0; //!< simulated cycles, summed
};

/** Read the current tally (monotonic; never reset). */
SimTally tallySnapshot();

/** Record one completed simulation of @p cycles simulated cycles. */
void noteSim(std::uint64_t cycles);

/**
 * The process-wide metrics aggregate: every counted run's registry
 * is merged in (commutatively, under a lock) with the `scheme` label
 * baked into each name so runs of different schemes stay distinct.
 * Per-PMO exposure histograms are dropped at the merge — PMO ids are
 * only meaningful within one run — keeping the pmo="all" rollups.
 * Empty when metrics are disabled (TERP_METRICS=off).
 */
metrics::Registry &globalMetrics();

/** Merge one run's registry into globalMetrics(). */
void noteRunMetrics(const workloads::RunResult &r);

/** runWhisper, recorded in the tally. */
workloads::RunResult
runWhisperCounted(const std::string &name,
                  const core::RuntimeConfig &cfg,
                  const workloads::WhisperParams &params);

/** runSpec, recorded in the tally. */
workloads::RunResult
runSpecCounted(const std::string &name,
               const core::RuntimeConfig &cfg,
               const workloads::SpecParams &params);

/**
 * Queue of independent tasks drained by a fixed-size thread pool.
 *
 * Tasks must not touch shared mutable state except their own result
 * slot. run() blocks until every task finished; a task that throws
 * stops the queue and run() rethrows the first exception after the
 * pool joined.
 */
class ParallelRunner
{
  public:
    /** @param jobs Worker threads; 1 (or 0) runs inline, in order. */
    explicit ParallelRunner(unsigned jobs) : nJobs(jobs) {}

    /** Enqueue one task. Only valid before run(). */
    void add(std::function<void()> fn);

    /** Execute every queued task; returns when all completed. */
    void run();

  private:
    unsigned nJobs;
    std::vector<std::function<void()>> tasks;
};

} // namespace bench
} // namespace terp

#endif // TERP_BENCH_HARNESS_HH
