/**
 * @file
 * The four benchmark workloads behind one interface. Each is a
 * fixed-work batch ("pass") of independent simulations, built from
 * the seed and size in Options; main.cc times passes,
 * checks fingerprints and prints the metrics.
 */

#ifndef TERP_PERFBENCH_WORKLOADS_HH
#define TERP_PERFBENCH_WORKLOADS_HH

#include <map>
#include <memory>
#include <string>

#include "common.hh"
#include "spans.hh"

namespace terp::metrics {
class Registry;
}

namespace perfbench {

/** Layer metric name -> value, for the traced run. */
using Layers = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Host seconds of one set-up measurement (README: setup_s). */
    virtual double setupOnce() = 0;

    /** One end-to-end pass on @p jobs host threads, untraced. */
    virtual Pass runPass(unsigned jobs) = 0;

    /**
     * The same pass rebuilt from the layers' public calls, one span
     * around each, on the calling thread. Its cells must carry the
     * fingerprints runPass() gives. Adds the pass's layer counts
     * (simulated cycles, operations, windows...) to @p counts.
     */
    virtual Pass tracedPass(Tracer &t, Layers &counts) = 0;

    /**
     * Differential probes, run once in trace mode before the passes:
     * each cell is run once per variant, the variants back to back so
     * host noise hits them alike. Adds layer metrics to @p out.
     */
    virtual void probes(Tracer &t, Layers &out) = 0;

    /** The pass's own throughput: "sims", "requests" or "power_cycles". */
    virtual const char *primaryUnit() const = 0;
};

std::unique_ptr<Workload> makeSpecMt(const Options &o);
std::unique_ptr<Workload> makeWhisper(const Options &o);
std::unique_ptr<Workload> makeServe(const Options &o);
std::unique_ptr<Workload> makeHarvest(const Options &o);

/**
 * Add a run's registry-derived layer counts (the silent/full
 * operation split, sweeper ticks and sampled sweeper time) to
 * @p counts.
 */
void addRegistryCounts(const terp::metrics::Registry *reg,
                       Layers &counts);

} // namespace perfbench

#endif // TERP_PERFBENCH_WORKLOADS_HH
