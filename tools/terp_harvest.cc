/**
 * @file
 * terp-harvest — race-to-expiry intermittent-power driver.
 *
 * Runs the energy-harvesting harness (src/energy/harvest.hh) over a
 * matrix of capacitor sizes x schemes: each cell executes thousands
 * of consecutive power-fail / recharge / recover cycles off a
 * capacitor charged per simulated cycle, with the crash-enumeration
 * oracle's invariants checked at every cycle. The table shows how
 * the exposure-window cost of intermittent power scales with storage
 * size — smaller capacitors mean more recovery re-attaches and more
 * sweeper ticks gated by the backup-energy reserve, so EW/TEW climb
 * as capacity shrinks. Overhead columns are relative to the largest
 * capacitor in the list (the closest cell to steady power).
 *
 * Usage:
 *   terp-harvest [options]    (flags also accept "--flag VALUE")
 *
 * Options:
 *   --scheme=S        all (default) or one of: mm tm tt ttnc basic
 *   --workload=W      bank (default), txmix or txpair
 *   --caps=LIST       comma-separated capacitor sizes in energy
 *                     units, each above the 100-unit fail threshold
 *                     (default 600,1000,2000,4000)
 *   --cycles=N        power cycles per cell (default 200)
 *   --seed=N          workload seed (default 0)
 *   --ew=US           EW target in microseconds (default 5)
 *   --audit=N         trace-audit stride in power cycles (default
 *                     25; 0 disables)
 *   --json            one JSON object per cell on stdout
 *   --golden=FILE     fail (exit 1) if the deterministic per-cell
 *                     summary differs from FILE
 *   --write-golden=FILE  write the per-cell summary to FILE
 *
 * Exit status: 0 when every cell passed its oracle, 1 on any
 * violation or golden drift, 2 on usage errors.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzzer.hh"
#include "check/recovery_engine.hh"
#include "common/cli.hh"
#include "common/golden.hh"
#include "energy/harvest.hh"

using namespace terp;

namespace {

struct CellResult
{
    std::string scheme;
    std::uint64_t capUnits = 0;
    energy::HarvestResult res;
};

/**
 * The --caps list, or an empty vector when an entry is not a whole
 * number above the capacitor's fail threshold (and small enough for
 * its fixed-point level).
 */
std::vector<std::uint64_t>
parseCaps(const std::string &list)
{
    const std::uint64_t floor =
        energy::CapacitorConfig{}.failThresholdUnits + 1;
    std::vector<std::uint64_t> caps;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::optional<std::uint64_t> cap = parseUnsigned(
            list.substr(pos, comma - pos), floor, 1'000'000'000'000ULL);
        if (!cap)
            return {};
        caps.push_back(*cap);
        pos = comma + 1;
    }
    return caps;
}

std::string
cellJson(const std::string &workload, const CellResult &c)
{
    const energy::HarvestResult &r = c.res;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"scheme\": \"%s\", \"workload\": \"%s\", "
        "\"cap_units\": %llu, \"power_cycles\": %u, "
        "\"committed\": %llu, \"interrupted\": %llu, "
        "\"aborted\": %llu, \"checkpoints\": %llu, "
        "\"sweeps_run\": %llu, \"sweeps_skipped\": %llu, "
        "\"recovered_logs\": %llu, \"sim_cycles\": %llu, "
        "\"off_cycles\": %llu, \"ew_avg_us\": %.3f, "
        "\"ew_max_us\": %.3f, \"tew_avg_us\": %.3f, "
        "\"violations\": %zu}",
        c.scheme.c_str(), workload.c_str(),
        (unsigned long long)c.capUnits, r.powerCycles,
        (unsigned long long)r.committed,
        (unsigned long long)r.interrupted,
        (unsigned long long)r.aborted,
        (unsigned long long)r.checkpoints,
        (unsigned long long)r.sweepsRun,
        (unsigned long long)r.sweepsSkipped,
        (unsigned long long)r.recoveredLogs,
        (unsigned long long)r.simCycles,
        (unsigned long long)r.offCycles, r.exposure.ewAvgUs,
        r.exposure.ewMaxUs, r.exposure.tewAvgUs,
        r.violations.size());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scheme = "all";
    std::string workload = "bank";
    std::string capsArg = "600,1000,2000,4000";
    unsigned cycles = 200;
    std::uint64_t seed = 0;
    double ewUs = 5.0;
    unsigned audit = 25;
    bool json = false;
    std::string goldenPath, writeGoldenPath;

    std::vector<std::string> workloadNames;
    for (const check::RecoveryWorkload &wl : check::recoveryWorkloads())
        workloadNames.push_back(wl.name);
    std::vector<std::string> schemeNames = check::allSchemes();
    schemeNames.insert(schemeNames.begin(), "all");
    FlagTable flags("terp-harvest",
                    "Race-to-expiry intermittent-power driver");
    flags.choice("--scheme", scheme, schemeNames, "scheme to run")
        .choice("--workload", workload, workloadNames,
                "recovery workload (bounded and finite ones are refused)")
        .text("--caps", capsArg, "LIST",
              "comma-separated capacitor sizes in energy units, each "
              "above the fail threshold")
        .count("--cycles", cycles, 1, "power cycles per cell")
        .count("--seed", seed, 0, "workload seed")
        .positive("--ew", ewUs, "EW target in microseconds")
        .count("--audit", audit, 0,
               "trace-audit stride in power cycles (0 disables)")
        .toggle("--json", json, "one JSON object per cell")
        .text("--golden", goldenPath, "FILE",
              "fail (exit 1) if the per-cell summary differs from FILE")
        .text("--write-golden", writeGoldenPath, "FILE",
              "write the per-cell summary to FILE")
        .parse(argc, argv);

    std::vector<std::uint64_t> caps = parseCaps(capsArg);
    if (caps.empty())
        flags.fail("--caps needs comma-separated integers above " +
                   std::to_string(energy::CapacitorConfig{}
                                      .failThresholdUnits) +
                   ", got '" + capsArg + "'");
    std::vector<std::string> schemes =
        scheme == "all" ? check::allSchemes()
                        : std::vector<std::string>{scheme};

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<CellResult> cells;
    bool anyViolation = false;
    std::uint64_t totalPowerCycles = 0;

    for (const std::string &sc : schemes) {
        for (std::uint64_t cap : caps) {
            energy::HarvestOptions opt;
            opt.scheme = sc;
            opt.workload = workload;
            opt.seed = seed;
            opt.powerCycles = cycles;
            opt.ewTarget = usToCycles(ewUs);
            opt.cap.capacityUnits = cap;
            opt.auditEvery = audit;
            CellResult cell;
            cell.scheme = sc;
            cell.capUnits = cap;
            try {
                cell.res = energy::runHarvest(opt);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "terp-harvest: %s\n", e.what());
                return 2;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "terp-harvest: %s %llu: %s\n",
                             sc.c_str(), (unsigned long long)cap,
                             e.what());
                return 2;
            }
            totalPowerCycles += cell.res.powerCycles;
            if (!cell.res.ok()) {
                anyViolation = true;
                for (const std::string &v : cell.res.violations)
                    std::fprintf(stderr,
                                 "terp-harvest: %s cap=%llu: %s\n",
                                 sc.c_str(), (unsigned long long)cap,
                                 v.c_str());
            }
            cells.push_back(std::move(cell));
        }
    }
    const double wallS = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    if (json) {
        for (const CellResult &c : cells)
            std::printf("%s\n", cellJson(workload, c).c_str());
    } else {
        std::printf("terp-harvest: %s workload, %u power cycles per "
                    "cell, EW target %.1fus\n",
                    workload.c_str(), cycles, ewUs);
        std::printf("%-6s %8s %9s %9s %6s %6s %8s %8s %9s %8s\n",
                    "scheme", "cap", "commit", "interrupt", "ckpt",
                    "swskip", "ew_avg", "ew_ovh", "tew_avg",
                    "ew_max");
        for (const std::string &sc : schemes) {
            // Baseline: the largest capacitor of this scheme's rows
            // (closest to steady power).
            double baseEw = 0;
            std::uint64_t baseCap = 0;
            for (const CellResult &c : cells) {
                if (c.scheme == sc && c.capUnits > baseCap) {
                    baseCap = c.capUnits;
                    baseEw = c.res.exposure.ewAvgUs;
                }
            }
            for (const CellResult &c : cells) {
                if (c.scheme != sc)
                    continue;
                double ovh =
                    baseEw > 0 ? (c.res.exposure.ewAvgUs / baseEw -
                                  1.0) * 100.0
                               : 0.0;
                std::printf("%-6s %8llu %9llu %9llu %6llu %6llu "
                            "%7.2fu %+7.1f%% %8.2fu %7.2fu\n",
                            c.scheme.c_str(),
                            (unsigned long long)c.capUnits,
                            (unsigned long long)c.res.committed,
                            (unsigned long long)c.res.interrupted,
                            (unsigned long long)c.res.checkpoints,
                            (unsigned long long)c.res.sweepsSkipped,
                            c.res.exposure.ewAvgUs, ovh,
                            c.res.exposure.tewAvgUs,
                            c.res.exposure.ewMaxUs);
            }
        }
        std::printf("terp-harvest: %llu power cycles total, %.2fs "
                    "wall (%.0f cycles/s)\n",
                    (unsigned long long)totalPowerCycles, wallS,
                    wallS > 0 ? totalPowerCycles / wallS : 0.0);
    }

    // ---- golden summary (simulated work only; no wall clock) ------
    std::string summary = "# terp-harvest golden summary: <scheme> "
                          "<workload> <cap> <power_cycles> <committed> "
                          "<interrupted> <sim_cycles>\n";
    for (const CellResult &c : cells)
        summary += c.scheme + " " + workload + " " +
                   std::to_string(c.capUnits) + " " +
                   std::to_string(c.res.powerCycles) + " " +
                   std::to_string(c.res.committed) + " " +
                   std::to_string(c.res.interrupted) + " " +
                   std::to_string(c.res.simCycles) + "\n";
    if (int rc = golden("terp-harvest", summary, goldenPath,
                        writeGoldenPath))
        return rc;
    return anyViolation ? 1 : 0;
}
