/**
 * @file
 * Shared pieces of terp-perfbench: run options, host
 * clocks, the pass/cell records every workload fills in, the small
 * statistics the report needs, and a fixed-size host thread pool.
 */

#ifndef TERP_PERFBENCH_COMMON_HH
#define TERP_PERFBENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/** Input size: `full` is the benchmark, `tiny` is for self-tests. */
enum class Size { Full, Tiny };

/** The seed whose fingerprints are kept in the reference file. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    Size size = Size::Full;
    std::string reference;      //!< fingerprint reference file
    std::string writeReference; //!< write this run's fingerprints
    std::string traceOut;       //!< Chrome-trace JSON (trace mode)
};

/**
 * The seed a workload's generator receives. The default seed maps to
 * the figure binaries' own seeds, so the default-seed run simulates
 * exactly what fig09 / fig11 / terp-serve / terp-harvest simulate;
 * every other seed is mixed (splitmix64) into an unrelated one.
 */
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t figureSeed);

/** Monotonic host time in seconds. */
double nowS();
/** User + system CPU of this process, in seconds (getrusage). */
double cpuS();
/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** One independent simulation of a pass (a fleet run for serve). */
struct Cell
{
    std::string id;          //!< stable name, e.g. "mcf/tt40"
    std::string fingerprint; //!< canonical text of its simulated output
    double hostMs = 0;       //!< host wall time of the call
    std::string error;       //!< non-empty: threw or broke an oracle
};

/** One fixed-work batch of a workload. */
struct Pass
{
    std::vector<Cell> cells;
    double wallS = 0;
    double cpuS = 0;
    /** Work units for the throughput metrics (see README.md). */
    double sims = 0;
    double requests = 0;
    double powerCycles = 0;
};

/** Run fn(i) for i in [0, n) on `jobs` host threads. */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/** Host threads of an end-to-end pass: min(4, cores). */
unsigned passJobs();

double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> v, double q);
/**
 * Harrell-Davis quantile, q in (0, 1): a Beta(q(n+1), (1-q)(n+1))
 * weighted mean of every order statistic. Unlike quantile() it does
 * not jump when the samples around q sit on either side of a gap.
 */
double hdQuantile(std::vector<double> v, double q);

} // namespace perfbench

#endif // TERP_PERFBENCH_COMMON_HH
