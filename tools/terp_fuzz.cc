/**
 * @file
 * terp-fuzz — differential fuzzing of the protection runtime
 * against the Section-IV specification semantics.
 *
 * Generates seed-deterministic multi-threaded schedules of
 * region/manual begin-end pairs, accesses and sweeper ticks, replays
 * each against core::Runtime and the spec oracle in lockstep, and
 * reports any divergence with a shrunken schedule plus a paste-ready
 * C++ reproducer.
 *
 * Usage:
 *   terp-fuzz [options]
 *
 * Options:
 *   --scheme S      all (default) or one of: mm tm tt ttnc basic
 *   --seeds N       seeds per scheme (default 64)
 *   --first-seed N  first seed (default 0; replay a report with
 *                   --first-seed <seed> --seeds 1)
 *   --events N      events per schedule (default 40)
 *   --threads N     threads per schedule (default 3)
 *   --pmos N        PMOs per schedule (default 2)
 *   --ew US         EW target in microseconds (default 5; floor 5)
 *   --crash         mix undo-log transactions and crash/recover
 *                   steps into the schedules
 *   --txn           mix TxManager transactions into the schedules:
 *                   nested begin/commit, aborts, cross-thread lock
 *                   conflicts, undo and redo variants, checked in
 *                   lockstep against the transaction spec oracle
 *   --shrink        minimize divergent schedules (greedy deletion)
 *   --no-shrink     report the raw divergent schedule
 *
 * Exit status: 0 when every schedule is divergence-free, 1 on any
 * divergence, 2 on usage errors.
 */

#include <cstdio>
#include <string>

#include "check/fuzzer.hh"
#include "common/cli.hh"

using namespace terp;

int
main(int argc, char **argv)
{
    check::FuzzOptions opt;
    opt.shrink = true;
    std::string scheme = "all";
    double ewUs = 5.0;

    std::vector<std::string> schemeNames = check::allSchemes();
    schemeNames.insert(schemeNames.begin(), "all");
    FlagTable("terp-fuzz",
              "Differential fuzzing of the runtime against the "
              "specification semantics")
        .choice("--scheme", scheme, schemeNames, "scheme to fuzz")
        .count("--seeds", opt.seeds, 1, "seeds per scheme")
        .count("--first-seed", opt.firstSeed, 0,
               "first seed (replay a report with --seeds 1)")
        .count("--events", opt.gen.events, 1, "events per schedule")
        .count("--threads", opt.gen.threads, 1, "threads per schedule")
        .count("--pmos", opt.gen.pmos, 1, "PMOs per schedule")
        .positive("--ew", ewUs,
                  "EW target in microseconds (the generator's floor is 5)")
        .toggle("--crash", opt.gen.persistOps,
                "mix undo-log transactions and crash/recover steps in")
        .toggle("--txn", opt.gen.txnOps,
                "mix TxManager transactions in, checked against the "
                "transaction spec oracle")
        .toggle("--shrink", [&] { opt.shrink = true; },
                "minimize divergent schedules (the default)")
        .toggle("--no-shrink", [&] { opt.shrink = false; },
                "report the raw divergent schedule")
        .parse(argc, argv);

    opt.gen.ewTarget = usToCycles(ewUs);
    if (scheme != "all")
        opt.schemes.push_back(scheme);

    check::FuzzResult res;
    try {
        res = check::fuzz(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "terp-fuzz: %s\n", e.what());
        return 2;
    }

    if (res.ok()) {
        std::printf("terp-fuzz: %u schedules replayed, no "
                    "divergence\n",
                    res.executed);
        return 0;
    }

    std::printf("terp-fuzz: %zu divergence(s) in %u schedules\n\n",
                res.divergences.size(), res.executed);
    for (const check::Divergence &d : res.divergences) {
        std::printf("== scheme=%s seed=%llu (%zu events after "
                    "shrinking) ==\n",
                    d.scheme.c_str(),
                    static_cast<unsigned long long>(d.seed),
                    d.shrunk.ops.size());
        for (const std::string &c : d.complaints)
            std::printf("  %s\n", c.c_str());
        std::printf("--- schedule ---\n");
        for (std::size_t i = 0; i < d.shrunk.ops.size(); ++i)
            std::printf("  %2zu: %s\n", i,
                        check::describeOp(d.shrunk.ops[i]).c_str());
        std::printf("--- reproducer ---\n%s\n",
                    d.reproducer.c_str());
    }
    return 1;
}
