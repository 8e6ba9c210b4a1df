/**
 * @file
 * terp-crash — crash-point fault injection and recovery validation.
 *
 * For each selected workload x scheme cell the driver runs an
 * uninterrupted baseline to count persist-boundary events, then
 * re-runs the workload once per boundary with the controller's fault
 * plan armed to crash there, recovers, and asserts the atomicity /
 * liveness / exposure-hygiene oracle (see src/check/crash.hh).
 *
 * Usage:
 *   terp-crash [options]
 *
 * Options:
 *   --scheme S      all (default) or one of: mm tm tt ttnc basic
 *   --workload W    all (default) or one of: bank hashmap txmix
 *                   txpair schedule
 *   --seed N        first seed (default 0)
 *   --seeds N       seeds per cell (default 1; schedule workloads
 *                   generate a fresh schedule per seed)
 *   --txns N        transactions per run (default 12; bank runs its
 *                   init first); hashmap's heap holds at most 895
 *   --events N      schedule length in ops (default 40)
 *   --ew US         EW target in microseconds (default 5)
 *   --json          one JSON summary object per cell on stdout
 *
 * A cell whose run reaches no persist boundary enumerates nothing and
 * proves nothing; its line says so, and the run ends with a count of
 * such cells.
 *
 * Exit status: 0 when every crash point recovered cleanly, 1 on any
 * violation, 2 on usage errors.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/crash.hh"
#include "check/fuzzer.hh"
#include "check/recovery_engine.hh"
#include "common/cli.hh"

using namespace terp;

int
main(int argc, char **argv)
{
    check::CrashOptions opt;
    std::string scheme = "all";
    std::string workload = "all";
    unsigned seeds = 1;
    double ewUs = 5.0;
    bool json = false;

    std::vector<std::string> workloadNames = {"all"};
    for (const check::RecoveryWorkload &wl : check::recoveryWorkloads())
        workloadNames.push_back(wl.name);
    std::vector<std::string> schemeNames = check::allSchemes();
    schemeNames.insert(schemeNames.begin(), "all");
    FlagTable("terp-crash",
              "Crash-point fault injection and recovery validation")
        .choice("--scheme", scheme, schemeNames, "scheme to run")
        .choice("--workload", workload, workloadNames,
                "recovery workload to run")
        .count("--seed", opt.seed, 0, "first seed")
        .count("--seeds", seeds, 1, "seeds per cell")
        .count("--txns", opt.txns, 0,
               "transactions per run (hashmap's heap holds at most 895)")
        .count("--events", opt.events, 1, "schedule length in ops")
        .positive("--ew", ewUs, "EW target in microseconds")
        .toggle("--json", json, "one JSON summary object per cell")
        .parse(argc, argv);

    opt.ewTarget = usToCycles(ewUs);
    std::vector<std::string> schemes =
        scheme == "all" ? check::allSchemes()
                        : std::vector<std::string>{scheme};
    std::vector<std::string> workloads = {workload};
    if (workload == "all") {
        workloads.clear();
        for (const check::RecoveryWorkload &wl :
             check::recoveryWorkloads())
            workloads.push_back(wl.name);
    }
    // Reject every bad cell before the first one runs.
    for (const std::string &wl : workloads) {
        for (const std::string &sc : schemes) {
            check::CrashOptions cell = opt;
            cell.scheme = sc;
            cell.workload = wl;
            try {
                check::validateCrashOptions(cell);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "terp-crash: %s\n", e.what());
                return 2;
            }
        }
    }

    std::uint64_t firstSeed = opt.seed;
    bool anyViolation = false;
    unsigned cells = 0, vacuous = 0;
    for (const std::string &wl : workloads) {
        for (const std::string &sc : schemes) {
            for (unsigned s = 0; s < seeds; ++s) {
                check::CrashOptions cell = opt;
                cell.scheme = sc;
                cell.workload = wl;
                cell.seed = firstSeed + s;
                check::CrashResult res;
                try {
                    res = check::enumerateCrashPoints(cell);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "terp-crash: %s\n",
                                 e.what());
                    return 2;
                }
                // No boundary, no crash point: a pass that checked
                // nothing.
                const bool empty = res.ok() && res.boundaries == 0;
                ++cells;
                vacuous += empty;
                if (json) {
                    std::printf(
                        "%s\n",
                        check::crashResultJson(cell, res).c_str());
                } else {
                    std::printf(
                        "terp-crash: %-8s %-8s seed=%llu  "
                        "%llu crash points, %zu violation(s)%s\n",
                        wl.c_str(), sc.c_str(),
                        static_cast<unsigned long long>(cell.seed),
                        static_cast<unsigned long long>(
                            res.pointsRun),
                        res.violations.size(),
                        empty ? "  [vacuous: no persist boundary]"
                              : "");
                }
                if (!res.ok()) {
                    anyViolation = true;
                    std::size_t cap = 8;
                    for (const check::CrashViolation &cv :
                         res.violations) {
                        if (cap-- == 0) {
                            std::fprintf(stderr, "  ...\n");
                            break;
                        }
                        std::fprintf(
                            stderr,
                            "  point %llu (before %s): %s\n",
                            static_cast<unsigned long long>(
                                cv.point),
                            pm::persistBoundaryName(cv.kind),
                            cv.detail.c_str());
                    }
                }
            }
        }
    }
    if (!json)
        std::printf("terp-crash: %u of %u cells reached no persist "
                    "boundary\n",
                    vacuous, cells);
    return anyViolation ? 1 : 0;
}
