/**
 * @file
 * terp-perfbench — the simulator-throughput benchmark program.
 *
 * Usage:
 *   terp-perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--size full|tiny]
 *                  [--reference FILE] [--write-reference FILE]
 *                  [--trace-out FILE]
 *
 * Untraced (--trace 0): measures set-up time, then runs whole passes
 * of the workload on up to four host threads until --seconds is
 * spent, checks every simulation's fingerprint, and prints the
 * end-to-end metrics. Traced (--trace 1): alternates untraced and
 * span-traced passes on one host thread, runs the differential
 * probes, prints a per-layer self-time table and the per-layer
 * metrics, and writes the spans as Chrome-trace JSON.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. Exit status: 0 when every simulation matched, 1
 * when any failed, 2 on a usage error. See README.md.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

const char *const kWorkloads[] = {"spec_mt", "whisper", "serve",
                                  "harvest"};

/** Span name -> per-layer metric of its self time. */
const std::pair<const char *, const char *> kSpanMetrics[] = {
    {"compiler.pass", "compiler.pass_ms"},
    {"workloads.build", "workloads.build_ms"},
    {"workloads.setup", "workloads.setup_ms"},
    {"core.runtime_init", "core.runtime_init_ms"},
    {"sim.run", "sim.run_self_ms"},
    {"core.sweep", "core.sweep_ms"},
    {"core.finalize", "core.finalize_ms"},
    {"metrics.merge", "metrics.merge_ms"},
    {"serve.loadgen", "serve.loadgen_ms"},
    {"serve.shard_init", "serve.shard_init_ms"},
    {"serve.epoch", "serve.epoch_ms"},
    {"serve.finish", "serve.finish_ms"},
};

/** A named metric value with its unit, in report order. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** 64-bit FNV-1a, the fingerprint hash. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

const char *
sizeName(Size s)
{
    return s == Size::Full ? "full" : "tiny";
}

/** Fingerprint reference: "workload size seed cell hash" lines. */
using Reference = std::map<std::string, std::string>;

std::string
referenceKey(const Options &o, const std::string &cell)
{
    return o.workload + " " + sizeName(o.size) + " " +
           std::to_string(o.seed) + " " + cell;
}

/** Reads @p path; false if it cannot be opened or parsed. */
bool
loadReference(const std::string &path, Reference &out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream in(line);
        std::string wl, size, seed, cell, hash;
        if (!(in >> wl >> size >> seed >> cell >> hash))
            return false;
        out[wl + " " + size + " " + seed + " " + cell] = hash;
    }
    return true;
}

/** Every per-layer metric of the traced run, in report order. */
const Metric kLayerMetrics[] = {
    {"compiler.pass_ms", 0, "ms"},
    {"workloads.build_ms", 0, "ms"},
    {"workloads.setup_ms", 0, "ms"},
    {"core.runtime_init_ms", 0, "ms"},
    {"sim.run_self_ms", 0, "ms"},
    {"interp.instructions", 0, "count"},
    {"interp.ns_per_instr", 0, "ns"},
    {"core.sweep_ms", 0, "ms"},
    {"core.sweep_calls", 0, "count"},
    {"core.finalize_ms", 0, "ms"},
    {"metrics.cost_ms", 0, "ms"},
    {"metrics.merge_ms", 0, "ms"},
    {"serve.loadgen_ms", 0, "ms"},
    {"serve.shard_init_ms", 0, "ms"},
    {"serve.epoch_ms", 0, "ms"},
    {"serve.epoch_critical_ms", 0, "ms"},
    {"serve.epochs", 0, "count"},
    {"serve.finish_ms", 0, "ms"},
    {"energy.setup_ms", 0, "ms"},
    {"energy.first_cycle_ms", 0, "ms"},
    {"energy.cycle_us", 0, "us"},
    {"check.oracle_ms", 0, "ms"},
    {"trace.audit_ms", 0, "ms"},
    {"sim.cycles", 0, "cycles"},
    {"core.full_ops", 0, "count"},
    {"core.silent_ops", 0, "count"},
    {"core.silent_ratio", 0, "ratio"},
    {"semantics.ew_windows", 0, "count"},
    {"serve.requests", 0, "count"},
    {"serve.shed", 0, "count"},
    {"serve.shed_ratio", 0, "ratio"},
    {"energy.committed", 0, "count"},
    {"energy.interrupted", 0, "count"},
    {"energy.recovered_logs", 0, "count"},
    {"energy.sweeps_skipped", 0, "count"},
    {"bench.traced_wall_ms", 0, "ms"},
    {"bench.untimed_ms", 0, "ms"},
    {"bench.untraced_per_s", 0, "1/s"},
    {"bench.traced_per_s", 0, "1/s"},
    {"bench.trace_delta_per_s", 0, "1/s"},
    {"bench.trace_overhead_pct", 0, "%"},
};

int
usage(const char *why)
{
    if (why)
        std::fprintf(stderr, "terp-perfbench: %s\n", why);
    std::fprintf(stderr,
                 "usage: terp-perfbench --workload "
                 "spec_mt|whisper|serve|harvest [--seed N]\n"
                 "                      [--seconds S] [--trace 0|1] "
                 "[--size full|tiny]\n"
                 "                      [--reference FILE] "
                 "[--write-reference FILE] [--trace-out FILE]\n");
    return 2;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] < '0' || s[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno || *end)
        return false;
    out = v;
    return true;
}

/** 0 on success, -1 after --help, else the exit status (2). */
int
parseArgs(int argc, char **argv, Options &o)
{
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i], v;
        if (a == "--help" || a == "-h") {
            usage(nullptr);
            return -1;
        }
        std::size_t eq = a.find('=');
        if (eq != std::string::npos) {
            v = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (i + 1 < argc) {
            v = argv[++i];
        } else {
            return usage((a + " needs a value").c_str());
        }
        if (!seen.insert(a).second)
            return usage((a + " given twice").c_str());
        std::string bad = "bad value for " + a + ": '" + v + "'";
        if (a == "--workload") {
            if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                          v) == std::end(kWorkloads))
                return usage(("unknown workload '" + v + "'").c_str());
            o.workload = v;
        } else if (a == "--seed") {
            if (!parseU64(v, o.seed))
                return usage(bad.c_str());
        } else if (a == "--seconds") {
            char *end = nullptr;
            errno = 0;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || errno || *end || !(o.seconds > 0) ||
                o.seconds > 3600)
                return usage(bad.c_str());
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage(bad.c_str());
            o.trace = v == "1";
        } else if (a == "--size") {
            if (v != "full" && v != "tiny")
                return usage(bad.c_str());
            o.size = v == "full" ? Size::Full : Size::Tiny;
        } else if (a == "--reference") {
            o.reference = v;
        } else if (a == "--write-reference") {
            o.writeReference = v;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            return usage(("unknown option '" + a + "'").c_str());
        }
    }
    if (o.workload.empty())
        return usage("--workload is required");
    return 0;
}

/**
 * Fingerprint check: every pass must reproduce the run's first pass
 * cell for cell, and, where the reference file holds this
 * (workload, size, seed), the reference too.
 */
class Checker
{
  public:
    Checker(const Options &o, Reference ref) : opt(o), refs(std::move(ref))
    {
        std::string prefix = referenceKey(o, "");
        for (const auto &kv : refs)
            if (kv.first.rfind(prefix, 0) == 0)
                useRef = true;
    }

    void
    check(const Pass &p, const char *kind)
    {
        if (first.empty()) {
            for (const Cell &c : p.cells)
                first.push_back(c.error.empty() ? c.fingerprint : "");
        }
        for (std::size_t i = 0; i < p.cells.size(); ++i) {
            const Cell &c = p.cells[i];
            ++attempted;
            std::string why;
            if (!c.error.empty()) {
                why = c.error;
            } else if (c.fingerprint != first[i]) {
                why = "simulated output differs from the first pass";
            } else if (useRef) {
                auto it = refs.find(referenceKey(opt, c.id));
                if (it == refs.end())
                    why = "no reference fingerprint";
                else if (it->second != hex64(fnv1a(c.fingerprint)))
                    why = "fingerprint " + hex64(fnv1a(c.fingerprint)) +
                          " != reference " + it->second;
            }
            if (why.empty())
                continue;
            ++failed;
            if (failed <= 10)
                std::printf("FAIL %s pass, cell %s: %s\n", kind,
                            c.id.c_str(), why.c_str());
        }
    }

    bool
    writeReference(const std::string &path, const Pass &p) const
    {
        std::ofstream f(path, std::ios::app);
        for (const Cell &c : p.cells)
            f << referenceKey(opt, c.id) << " "
              << hex64(fnv1a(c.fingerprint)) << "\n";
        return static_cast<bool>(f);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    const Options &opt;
    Reference refs;
    bool useRef = false;
    std::vector<std::string> first;
};

double
rate(const Pass &p, const std::string &unit)
{
    double work = unit == "sims"       ? p.sims
                  : unit == "requests" ? p.requests
                                       : p.powerCycles;
    return p.wallS > 0 ? work / p.wallS : 0;
}

/** Time one pass and check it. */
template <typename Fn>
Pass
timedPass(Checker &chk, const char *kind, Fn fn)
{
    double c0 = cpuS(), t0 = nowS();
    Pass p = fn();
    p.wallS = nowS() - t0;
    p.cpuS = cpuS() - c0;
    chk.check(p, kind);
    return p;
}

/**
 * "p<q> <value> (n=<n>)" for the highest percentile with at least
 * ten samples beyond it, or a note when there are too few samples.
 */
std::string
tail(const std::vector<double> &v, const char *unit)
{
    char buf[128];
    if (v.size() < 11) {
        std::snprintf(buf, sizeof buf,
                      "no tail percentile (n=%zu < 11)", v.size());
        return buf;
    }
    double q = static_cast<double>(v.size() - 10) /
               static_cast<double>(v.size());
    std::snprintf(buf, sizeof buf, "p%.1f %.6g %s (n=%zu)", q * 100,
                  quantile(v, q), unit, v.size());
    return buf;
}

void
printResult(const Checker &chk, const std::vector<Metric> &ms)
{
    std::printf("failed_ratio %.6g fraction (%llu of %llu)\n",
                static_cast<double>(chk.failed) /
                    static_cast<double>(chk.attempted),
                static_cast<unsigned long long>(chk.failed),
                static_cast<unsigned long long>(chk.attempted));
    std::string json = "{\"correct\": ";
    json += chk.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(chk.attempted);
    json += ", \"failed\": " + std::to_string(chk.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char buf[256];
        double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(), v,
                      ms[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
runEndToEnd(const Options &o, Workload &w, Checker &chk)
{
    const double start = nowS();
    std::vector<double> setups;
    while (setups.size() < 5 ||
           (nowS() - start < 0.1 * o.seconds && setups.size() < 200))
        setups.push_back(w.setupOnce());

    const unsigned jobs = passJobs();
    std::vector<Pass> passes;
    for (;;) {
        passes.push_back(
            timedPass(chk, "end-to-end", [&] { return w.runPass(jobs); }));
        if (nowS() - start + passes.back().wallS > o.seconds)
            break;
    }

    std::vector<double> sims, reqs, cycles, cpu, wall, cellMs;
    std::vector<std::vector<double>> perCell(passes.front().cells.size());
    for (const Pass &p : passes) {
        sims.push_back(rate(p, "sims"));
        reqs.push_back(rate(p, "requests"));
        cycles.push_back(rate(p, "power_cycles"));
        cpu.push_back(p.cpuS);
        wall.push_back(p.wallS);
        for (std::size_t i = 0; i < p.cells.size(); ++i) {
            cellMs.push_back(p.cells[i].hostMs);
            perCell[i].push_back(p.cells[i].hostMs);
        }
    }
    // The cell quantiles are taken over each cell's median across the
    // passes. A quantile of the pooled times that falls between two
    // cells of different size would read one cell's noisiest pass.
    std::vector<double> cellMedMs;
    for (const std::vector<double> &v : perCell)
        cellMedMs.push_back(median(v));
    const double cellP50 = hdQuantile(cellMedMs, 0.5);
    std::vector<Metric> ms = {
        {"sims_per_s", median(sims), "sims/s"},
        {"requests_per_s", median(reqs), "req/s"},
        {"power_cycles_per_s", median(cycles), "cycles/s"},
        {"setup_s", median(setups), "s"},
        {"cpu_s", median(cpu), "s"},
        {"cell_ms_p90", hdQuantile(cellMedMs, 0.9), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::printf("# %s: %zu passes on %u host threads, %zu set-up "
                "measurements, seed %llu, size %s\n",
                o.workload.c_str(), passes.size(), jobs, setups.size(),
                static_cast<unsigned long long>(o.seed),
                sizeName(o.size));
    printMetrics(ms);
    // Printed, but not a result metric: too noisy to gate on (README).
    std::printf("%-28s %16.6f ms (not in the result)\n", "cell_ms_p50",
                cellP50);
    std::printf("pass_wall_s median %.6g s, %s\n", median(wall),
                tail(wall, "s").c_str());
    std::printf("setup_s %s\n", tail(setups, "s").c_str());
    std::printf("cell_ms %s\n", tail(cellMs, "ms").c_str());
    if (!o.writeReference.empty() &&
        !chk.writeReference(o.writeReference, passes.front()))
        std::fprintf(stderr, "terp-perfbench: cannot write %s\n",
                     o.writeReference.c_str());
    printResult(chk, ms);
    return chk.failed ? 1 : 0;
}

int
runTraced(const Options &o, Workload &w, Checker &chk)
{
    Tracer tr;
    Layers counts, probeOut;
    std::vector<Pass> plain, traced;
    const double start = nowS();
    // Probes first: they are fixed work, and the passes fill what is
    // left of the budget (at least one round).
    w.probes(tr, probeOut);
    for (;;) {
        double r0 = nowS();
        plain.push_back(
            timedPass(chk, "untraced", [&] { return w.runPass(1); }));
        traced.push_back(timedPass(chk, "traced", [&] {
            Tracer::Scope root(tr, "pass");
            return w.tracedPass(tr, counts);
        }));
        double round = nowS() - r0;
        if (nowS() - start + round > o.seconds)
            break;
    }

    std::vector<double> plainRate, tracedRate, tracedWall;
    for (const Pass &p : plain)
        plainRate.push_back(rate(p, w.primaryUnit()));
    for (const Pass &p : traced) {
        tracedRate.push_back(rate(p, w.primaryUnit()));
        tracedWall.push_back(p.wallS * 1e3);
    }

    const double n = static_cast<double>(traced.size());
    Layers v;
    std::map<std::string, Tracer::Layer> layers = tr.layers("pass");
    for (const auto &[span, metric] : kSpanMetrics)
        if (layers.count(span))
            v[metric] = layers[span].selfMs / n;
    if (layers.count("core.sweep")) {
        v["core.sweep_calls"] =
            static_cast<double>(layers["core.sweep"].calls) / n;
    } else {
        v["core.sweep_calls"] = counts["sweeper.ticks"] / n;
        v["core.sweep_ms"] = counts["sweeper.sampled_ms"] / n;
    }
    for (const auto &[name, value] : counts)
        if (!v.count(name))
            v[name] = value / n;
    for (const auto &[name, value] : probeOut)
        v[name] = value;
    if (v["interp.instructions"] > 0)
        v["interp.ns_per_instr"] =
            v["sim.run_self_ms"] * 1e6 / v["interp.instructions"];
    double ops = v["core.full_ops"] + v["core.silent_ops"];
    v["core.silent_ratio"] = ops > 0 ? v["core.silent_ops"] / ops : 0;
    v["serve.shed_ratio"] = v["serve.requests"] > 0
                                ? v["serve.shed"] / v["serve.requests"]
                                : 0;
    v["bench.untimed_ms"] = layers["untimed"].selfMs / n;
    double wallMs = 0;
    for (double x : tracedWall)
        wallMs += x;
    v["bench.traced_wall_ms"] = wallMs / n;
    double ru = median(plainRate), rt = median(tracedRate);
    v["bench.untraced_per_s"] = ru;
    v["bench.traced_per_s"] = rt;
    v["bench.trace_delta_per_s"] = rt - ru;
    v["bench.trace_overhead_pct"] = ru > 0 ? (ru - rt) / ru * 100 : 0;

    // Self-time table: the layers' self times plus `untimed` add up
    // to the traced passes' wall time.
    std::printf("# %s traced: %zu traced + %zu untraced passes on one "
                "host thread, seed %llu, size %s\n",
                o.workload.c_str(), traced.size(), plain.size(),
                static_cast<unsigned long long>(o.seed),
                sizeName(o.size));
    std::vector<std::pair<double, std::string>> rows;
    double sum = 0;
    for (const auto &[name, l] : layers) {
        rows.push_back({l.selfMs / n, name});
        sum += l.selfMs / n;
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("%-24s %12s %8s %14s\n", "layer (self time)",
                "ms/pass", "share", "calls/pass");
    for (const auto &[ms, name] : rows)
        std::printf("%-24s %12.3f %7.2f%% %14.0f\n", name.c_str(), ms,
                    100 * ms / v["bench.traced_wall_ms"],
                    static_cast<double>(layers[name].calls) / n);
    std::printf("%-24s %12.3f (traced pass wall %.3f ms)\n", "sum", sum,
                v["bench.traced_wall_ms"]);
    std::printf("tracing overhead: %s/s untraced %.6g, traced %.6g, "
                "delta %.6g (%.2f%%)\n",
                w.primaryUnit(), ru, rt, rt - ru,
                v["bench.trace_overhead_pct"]);

    std::vector<Metric> ms;
    for (Metric m : kLayerMetrics) {
        m.value = v.count(m.name) ? v[m.name] : 0.0;
        ms.push_back(m);
    }
    printMetrics(ms);
    if (!o.traceOut.empty()) {
        if (tr.writeChrome(o.traceOut, "terp-perfbench " + o.workload))
            std::printf("# wrote %zu spans to %s\n", tr.spans().size(),
                        o.traceOut.c_str());
        else
            std::fprintf(stderr, "terp-perfbench: cannot write %s\n",
                         o.traceOut.c_str());
    }
    printResult(chk, ms);
    return chk.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (int rc = parseArgs(argc, argv, o))
        return rc < 0 ? 0 : rc;
    Reference ref;
    if (!o.reference.empty() && !loadReference(o.reference, ref)) {
        return usage(
            ("cannot read reference file '" + o.reference + "'")
                .c_str());
    }

    std::unique_ptr<Workload> w;
    if (o.workload == "spec_mt")
        w = makeSpecMt(o);
    else if (o.workload == "whisper")
        w = makeWhisper(o);
    else if (o.workload == "serve")
        w = makeServe(o);
    else
        w = makeHarvest(o);

    Checker chk(o, std::move(ref));
    return o.trace ? runTraced(o, *w, chk) : runEndToEnd(o, *w, chk);
}
