/**
 * @file
 * terp-serve — a long-lived multi-tenant PMO server simulation.
 *
 * Owns a fleet of tenant PMOs partitioned into shards (one isolated
 * runtime domain each: circular buffer, sweeper, exposure tracker,
 * placement RNG) and serves an open-loop stream of
 * attach/access/detach transactions from simulated client sessions:
 * Zipfian tenant popularity, bursty on/off arrivals, a configurable
 * fraction of slow clients that hold their attach windows past the
 * sweeper horizon. Prints the fleet's exposure/latency posture —
 * EW/TEW tails, SLO violations, request latency percentiles, queue
 * depth and shed counts, per shard and fleet-wide.
 *
 * Determinism contract (held down by tests and the CI golden):
 * for a fixed --seed and --shards, the posture report is
 * byte-identical for any --workers=N — host threads only decide
 * when a shard's epoch executes, never what it computes.
 *
 * Usage:
 *   terp-serve [--quick] [--seed=S] [--shards=K] [--workers=N]
 *              [--sessions=C] [--requests=R] [--scheme=NAME]
 *              [--slow=FRAC] [--queue-cap=Q] [--out=FILE]
 *              [--golden=FILE] [--write-golden=FILE]
 *              [--metrics-prom=FILE] [--quiet]
 *
 * Options:
 *   --quick              small CI configuration (2 shards, 200
 *                        sessions) — the serve golden's config
 *   --seed=S             master seed (default 1)
 *   --shards=K           runtime domains (default 2)
 *   --workers=N          host worker threads (default 1)
 *   --sessions=C         client sessions (default 200)
 *   --requests=R         requests per session (default 16)
 *   --scheme=NAME        tt | tm | mm | ttnc | basic | unprotected
 *                        (default tt)
 *   --slow=FRAC          slow-client fraction (default 0.02)
 *   --ew-budget=F        per-tenant exposure budget (fraction of
 *                        wall-clock a tenant PMO may sit exposed)
 *                        for SLO burn-rate alerting; publishes
 *                        serve.slo_burn{tenant,win} gauges and the
 *                        serve.shed_advised advisory counter
 *                        (default 0 = off)
 *   --txn-writes=N       end every request with one durable
 *                        TxManager transaction of N writes on its
 *                        tenant PMO (enables persistence; default 0
 *                        = no transactions)
 *   --queue-cap=Q        bounded per-shard queue (default 64)
 *   --out=FILE           JSON results (default SERVE_terp.json)
 *   --golden=FILE        fail (exit 1) if the report differs
 *   --write-golden=FILE  write the report to FILE
 *   --metrics-prom=FILE  fleet metrics, Prometheus text format
 *   --quiet              suppress the report on stdout
 *
 * Exit status: 0 on success, 1 on golden drift, 2 on usage errors.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.hh"
#include "common/golden.hh"
#include "metrics/export.hh"
#include "serve/report.hh"
#include "serve/server.hh"

using namespace terp;

int
main(int argc, char **argv)
{
    serve::ServeConfig cfg;
    unsigned workers = 1;
    bool quiet = false;
    std::string outPath = "SERVE_terp.json";
    std::string goldenPath, writeGoldenPath, promPath;

    std::string scheme = "tt";
    // --quick is declared first: it picks the base configuration the
    // other flags then adjust, wherever it appears.
    FlagTable("terp-serve", "A long-lived multi-tenant PMO server "
                            "simulation")
        .toggle("--quick", [&] { cfg = serve::ServeConfig::quick(); },
                "small CI configuration (the serve golden's)")
        .count("--seed", cfg.seed, 0, "master seed")
        .count("--shards", cfg.shards, 1, "runtime domains")
        .jobs("--workers", workers)
        .count("--sessions", cfg.sessions, 1, "client sessions")
        .count("--requests", cfg.requestsPerSession, 1,
               "requests per session")
        .choice("--scheme", scheme, core::schemeTags(),
                "protection scheme of every shard")
        .fraction("--slow", cfg.slowFraction, "slow-client fraction")
        .fraction("--ew-budget", cfg.tenantEwBudget,
                  "per-tenant exposure budget for SLO burn-rate "
                  "alerting, as a fraction of wall clock (0 = off)")
        .count("--txn-writes", cfg.txnWrites, 0,
               "writes of one durable transaction ending every request "
               "(0 = none)")
        .count("--queue-cap", cfg.queueCapacity, 1,
               "bounded per-shard queue")
        .text("--out", outPath, "FILE", "JSON results")
        .text("--golden", goldenPath, "FILE",
              "fail (exit 1) if the report differs from FILE")
        .text("--write-golden", writeGoldenPath, "FILE",
              "write the report to FILE")
        .text("--metrics-prom", promPath, "FILE",
              "fleet metrics, Prometheus text format")
        .toggle("--quiet", quiet, "suppress the report on stdout")
        .parse(argc, argv);
    cfg.runtime = core::RuntimeConfig::named(scheme);
    cfg.persistence = cfg.txnWrites > 0;

    std::fprintf(stderr,
                 "terp-serve: %u shard(s), %u session(s), %u host "
                 "worker(s), seed %llu\n",
                 cfg.shards, cfg.sessions, workers,
                 static_cast<unsigned long long>(cfg.seed));

    serve::FleetResult res = serve::runFleet(cfg, workers);
    std::string report = serve::postureReport(res);
    if (!quiet)
        std::fputs(report.c_str(), stdout);
    std::fprintf(stderr, "terp-serve: done in %.2fs\n",
                 res.wallSeconds);

    if (!outPath.empty()) {
        std::ofstream f(outPath);
        if (!f) {
            std::fprintf(stderr, "terp-serve: cannot write %s\n",
                         outPath.c_str());
            return 2;
        }
        f << serve::toJson(res, workers);
        std::fprintf(stderr, "terp-serve: wrote %s\n",
                     outPath.c_str());
    }

    if (!promPath.empty()) {
        if (!res.fleet) {
            std::fprintf(stderr,
                         "terp-serve: metrics disabled, no %s\n",
                         promPath.c_str());
            return 2;
        }
        std::ofstream f(promPath);
        if (!f) {
            std::fprintf(stderr, "terp-serve: cannot write %s\n",
                         promPath.c_str());
            return 2;
        }
        f << metrics::toPrometheus(*res.fleet);
        std::fprintf(stderr, "terp-serve: wrote %s\n",
                     promPath.c_str());
    }

    return golden("terp-serve", report, goldenPath, writeGoldenPath);
}
