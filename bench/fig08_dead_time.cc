/**
 * @file
 * Fig 8 — distribution of heap-object dead times (time from the last
 * write to an object until its deallocation), pooled over the
 * SPEC-like and Heap-Layers-like allocation workloads.
 *
 * The paper uses this distribution to pick the 2 us TEW target: in
 * 95% of cases the dead time is 2 us or larger, so a 2 us TEW
 * removes ~95% of the data-only attack surface.
 *
 * Usage: fig08_dead_time [objects] [--jobs=N]
 *        (--help lists each flag and its range)
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "harness.hh"
#include "security/dead_time.hh"
#include "workloads/alloc.hh"

using namespace terp;

int
terp::bench::run_fig08(int argc, char **argv)
{
    // The dead-time figure is a single pooled computation; --jobs is
    // accepted for interface uniformity but there is nothing to fan
    // out.
    unsigned jobs = 1;
    std::uint64_t objects = 400;
    FlagTable("fig08_dead_time",
              "Fig 8: distribution of heap-object dead times")
        .jobs("--jobs", jobs)
        .count("objects", objects, 1, "objects per allocation profile")
        .parse(argc, argv);

    std::printf("=== Fig 8: distribution of heap-object dead times "
                "(last write -> free) ===\n");
    std::printf("workloads: %zu profiles x %llu objects\n\n",
                workloads::allocProfiles().size(),
                (unsigned long long)objects);

    auto pooled = workloads::runAllAllocWorkloads(objects, 1234);

    security::DeadTimeAnalysis analysis;
    analysis.addAll(pooled);
    const Histogram &h = analysis.histogram();

    std::printf("%-16s %10s %8s\n", "dead time (us)", "count",
                "percent");
    double lo = 0.0;
    for (std::size_t i = 0; i < h.bucketCount(); ++i) {
        char label[32];
        if (i < h.bounds().size()) {
            std::snprintf(label, sizeof(label), "%g - %g", lo,
                          h.bounds()[i]);
            lo = h.bounds()[i];
        } else {
            std::snprintf(label, sizeof(label), "> %g", lo);
        }
        std::printf("%-16s %10llu %7.1f%%\n", label,
                    (unsigned long long)h.bucket(i),
                    100.0 * h.fraction(i));
    }

    double above2 = analysis.surfaceReduction(2.0);
    std::printf("\nsamples           : %llu\n",
                (unsigned long long)analysis.sampleCount());
    std::printf("median dead time  : %.1f us\n", analysis.medianUs());
    std::printf("dead time >= 2 us : %.1f%%  (paper: ~95%%)\n",
                100.0 * above2);
    std::printf("=> a 2 us TEW target removes ~%.0f%% of the "
                "data-only attack surface\n",
                100.0 * above2);
    std::printf("recommended TEW for 95%% coverage: %.1f us "
                "(paper picks 2 us)\n",
                analysis.recommendTew(0.95));
    return 0;
}
