/**
 * @file
 * terp-trace — dump an event trace for any workload/scheme
 * combination, audit it, and export it for Perfetto.
 *
 * Usage:
 *   terp-trace <workload> <scheme> [options]
 *   terp-trace list
 *
 * Workloads: the six WHISPER surrogates (echo ycsb tpcc ctree
 * hashmap redis) and the five SPEC surrogates (mcf lbm imagick nab
 * xz). Schemes: unprotected mm tm tt ttnc basic.
 *
 * Options:
 *   --out FILE      Chrome-trace JSON output (default terp-trace.json)
 *   --jsonl FILE    also write JSONL (one event per line)
 *   --threads N     SPEC thread count (default 1)
 *   --sections N    WHISPER transactions (default 200)
 *   --scale F       SPEC iteration scale (default 1.0)
 *   --ew US         EW target in microseconds (default 40)
 *   --tew US        TEW target in microseconds (default 2)
 *   --capacity N    per-thread ring capacity in events (default 64Ki)
 *
 * Exit status is nonzero if the timeline auditor finds any
 * divergence between the trace replay and the runtime's EwTracker.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/cli.hh"
#include "trace/export.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

using namespace terp;

namespace {

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    return std::find(v.begin(), v.end(), s) != v.end();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, scheme;
    std::string out = "terp-trace.json";
    std::string jsonl;
    unsigned threads = 1;
    std::uint64_t sections = 200;
    double scale = 1.0;
    double ewUs = 40.0, tewUs = 2.0;
    std::size_t capacity = trace::TraceSink::defaultCapacity;

    std::vector<std::string> workloadNames = {"list"};
    for (const auto *names :
         {&workloads::whisperNames(), &workloads::specNames()})
        workloadNames.insert(workloadNames.end(), names->begin(),
                             names->end());
    FlagTable flags("terp-trace", "Trace one workload under one scheme, "
                                  "audit the trace and export it");
    flags
        .choice("workload", workload, workloadNames,
                "WHISPER or SPEC workload, or list")
        .choice("scheme", scheme, core::schemeTags(), "scheme")
        .text("--out", out, "FILE", "Chrome-trace JSON output")
        .text("--jsonl", jsonl, "FILE",
              "also write JSONL (one event per line)")
        .count("--threads", threads, 1, "SPEC thread count")
        .count("--sections", sections, 1, "WHISPER transactions")
        .positive("--scale", scale, "SPEC iteration scale",
                  workloads::kMaxSpecScale)
        .positive("--ew", ewUs, "EW target in microseconds")
        .positive("--tew", tewUs, "TEW target in microseconds")
        .count("--capacity", capacity, 1,
               "per-thread ring capacity in events")
        .parse(argc, argv);

    if (workload == "list") {
        std::printf("WHISPER workloads:");
        for (const std::string &n : workloads::whisperNames())
            std::printf(" %s", n.c_str());
        std::printf("\nSPEC surrogates:  ");
        for (const std::string &n : workloads::specNames())
            std::printf(" %s", n.c_str());
        std::printf("\nschemes:           unprotected mm tm tt ttnc "
                    "basic\n");
        return 0;
    }
    if (scheme.empty())
        flags.fail("needs <workload> <scheme> or list (try --help)");

    core::RuntimeConfig cfg = core::RuntimeConfig::named(
        scheme, usToCycles(ewUs), usToCycles(tewUs));
    cfg.traceEnabled = true;
    cfg.traceCapacity = capacity;

    workloads::RunResult r;
    if (contains(workloads::whisperNames(), workload)) {
        workloads::WhisperParams p;
        p.sections = sections;
        r = workloads::runWhisper(workload, cfg, p);
    } else {
        workloads::SpecParams p;
        p.threads = threads;
        p.scale = scale;
        r = workloads::runSpec(workload, cfg, p);
    }

    std::printf("%s under %s: %llu cycles (%.1f us)\n",
                workload.c_str(), cfg.describe().c_str(),
                static_cast<unsigned long long>(r.totalCycles),
                cyclesToUs(r.totalCycles));
    std::printf("events: %llu emitted, %llu dropped (ring capacity "
                "%zu/thread)\n",
                static_cast<unsigned long long>(
                    r.trace->totalEmitted()),
                static_cast<unsigned long long>(
                    r.trace->totalDropped()),
                r.trace->perThreadCapacity());

    std::map<std::string, std::uint64_t> byKind;
    for (const trace::Event &e : r.trace->merged())
        ++byKind[trace::eventKindName(e.kind)];
    for (const auto &[kind, n] : byKind) {
        std::printf("  %-16s %llu\n", kind.c_str(),
                    static_cast<unsigned long long>(n));
    }

    if (!trace::writeChromeTraceFile(*r.trace, out,
                                     workload + " " + scheme)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s (open with https://ui.perfetto.dev)\n",
                out.c_str());
    if (!jsonl.empty()) {
        if (!trace::writeJsonlFile(*r.trace, jsonl)) {
            std::fprintf(stderr, "cannot write %s\n", jsonl.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonl.c_str());
    }

    std::printf("%s\n", r.traceAudit->summary().c_str());
    for (const std::string &m : r.traceAudit->mismatches)
        std::printf("  mismatch: %s\n", m.c_str());
    return r.traceAudit->ok ? 0 : 1;
}
