/**
 * @file
 * The harvest workload: energy::runHarvest over {bank, txmix} x the
 * five protected schemes x terp-harvest's default capacitor list,
 * 200 power cycles per cell, oracle on, trace audit every 25 cycles
 * (terp-harvest's defaults). It is the only workload on the
 * durable-write and crash/recover side (energy, check, trace audit).
 */

#include <cstdio>

#include "check/fuzzer.hh"
#include "energy/harvest.hh"
#include "workloads.hh"

namespace perfbench {

using namespace terp;

namespace {

class Harvest : public Workload
{
  public:
    explicit Harvest(const Options &o)
    {
        std::vector<std::uint64_t> caps = {600, 1000, 2000, 4000};
        unsigned cycles = 200;
        if (o.size == Size::Tiny) {
            caps = {600};
            cycles = 10;
        }
        for (const char *wl : {"bank", "txmix"}) {
            for (const std::string &sc : check::allSchemes()) {
                for (std::uint64_t cap : caps) {
                    energy::HarvestOptions h;
                    h.scheme = sc;
                    h.workload = wl;
                    h.seed = inputSeed(o.seed, 0);
                    h.powerCycles = cycles;
                    h.cap.capacityUnits = cap;
                    h.auditEvery = 25;
                    cells.push_back(h);
                }
            }
        }
    }

    const char *primaryUnit() const override { return "power_cycles"; }

    /** runHarvest with powerCycles=0, every cell. */
    double
    setupOnce() override
    {
        double t0 = nowS();
        for (energy::HarvestOptions h : cells) {
            h.powerCycles = 0;
            energy::runHarvest(h);
        }
        return nowS() - t0;
    }

    Pass
    runPass(unsigned jobs) override
    {
        Pass p = emptyPass();
        std::vector<energy::HarvestResult> results(cells.size());
        parallelFor(cells.size(), jobs, [&](std::size_t i) {
            runCell(i, p.cells[i], results[i]);
        });
        setWork(p, results);
        return p;
    }

    Pass
    tracedPass(Tracer &t, Layers &counts) override
    {
        Pass p = emptyPass();
        std::vector<energy::HarvestResult> results(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Tracer::Scope s(t, "energy.runHarvest",
                            static_cast<int>(i));
            runCell(i, p.cells[i], results[i]);
        }
        for (const energy::HarvestResult &r : results) {
            counts["sim.cycles"] += r.simCycles;
            counts["semantics.ew_windows"] += r.exposure.ewCount;
            counts["energy.committed"] += r.committed;
            counts["energy.interrupted"] += r.interrupted;
            counts["energy.recovered_logs"] += r.recoveredLogs;
            counts["energy.sweeps_skipped"] += r.sweepsSkipped;
        }
        setWork(p, results);
        return p;
    }

    /**
     * Differential probes: every cell under five variants, back to
     * back, in an order that rotates from cell to cell.
     */
    void
    probes(Tracer &t, Layers &out) override
    {
        enum { Full, Pc0, Pc1, Audit0, Oracle0, NumVariants };
        const char *names[NumVariants] = {
            "probe.full", "probe.power_cycles_0", "probe.power_cycles_1",
            "probe.audit_off", "probe.audit_oracle_off"};
        double ms[NumVariants] = {};
        double steadyCycles = 0;
        Tracer::Scope probe(t, "probe.harvest");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            steadyCycles += cells[i].powerCycles - 1;
            for (unsigned k = 0; k < NumVariants; ++k) {
                unsigned v = (k + i) % NumVariants;
                energy::HarvestOptions h = cells[i];
                if (v == Pc0)
                    h.powerCycles = 0;
                else if (v == Pc1)
                    h.powerCycles = 1;
                else if (v == Audit0 || v == Oracle0)
                    h.auditEvery = 0;
                if (v == Oracle0)
                    h.oracle = false;
                Tracer::Scope s(t, names[v], static_cast<int>(i));
                double t0 = nowS();
                energy::runHarvest(h);
                ms[v] += (nowS() - t0) * 1e3;
            }
        }
        out["energy.setup_ms"] = ms[Pc0];
        out["energy.first_cycle_ms"] = ms[Pc1] - ms[Pc0];
        out["energy.cycle_us"] =
            steadyCycles > 0 ? (ms[Full] - ms[Pc1]) * 1e3 / steadyCycles
                             : 0;
        out["check.oracle_ms"] = ms[Audit0] - ms[Oracle0];
        out["trace.audit_ms"] = ms[Full] - ms[Audit0];
    }

  private:
    std::vector<energy::HarvestOptions> cells;

    static std::string
    cellId(const energy::HarvestOptions &h)
    {
        return h.workload + "/" + h.scheme + "/" +
               std::to_string(h.cap.capacityUnits);
    }

    Pass
    emptyPass() const
    {
        Pass p;
        p.cells.resize(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            p.cells[i].id = cellId(cells[i]);
        return p;
    }

    void
    runCell(std::size_t i, Cell &c, energy::HarvestResult &r)
    {
        double t0 = nowS();
        try {
            r = energy::runHarvest(cells[i]);
            c.hostMs = (nowS() - t0) * 1e3;
            c.fingerprint = fingerprint(r);
            if (!r.ok())
                c.error = "oracle violation: " + r.violations.front();
        } catch (const std::exception &e) {
            c.error = e.what();
        }
    }

    static void
    setWork(Pass &p, const std::vector<energy::HarvestResult> &rs)
    {
        p.sims = static_cast<double>(rs.size());
        for (const energy::HarvestResult &r : rs) {
            p.requests += static_cast<double>(r.committed +
                                              r.interrupted + r.aborted);
            p.powerCycles += r.powerCycles;
        }
    }

    static std::string
    fingerprint(const energy::HarvestResult &r)
    {
        char buf[640];
        int n = std::snprintf(
            buf, sizeof buf,
            "pc=%u commit=%llu intr=%llu abort=%llu ckpt=%llu "
            "sweeps=%llu skipped=%llu logs=%llu cycles=%llu "
            "off=%llu ewavg=%.17g ewmax=%.17g er=%.17g ewn=%llu "
            "tewn=%llu violations=%zu blame=",
            r.powerCycles, (unsigned long long)r.committed,
            (unsigned long long)r.interrupted,
            (unsigned long long)r.aborted,
            (unsigned long long)r.checkpoints,
            (unsigned long long)r.sweepsRun,
            (unsigned long long)r.sweepsSkipped,
            (unsigned long long)r.recoveredLogs,
            (unsigned long long)r.simCycles,
            (unsigned long long)r.offCycles, r.exposure.ewAvgUs,
            r.exposure.ewMaxUs, r.exposure.er,
            (unsigned long long)r.exposure.ewCount,
            (unsigned long long)r.exposure.tewCount,
            r.violations.size());
        std::string s(buf, static_cast<std::size_t>(n));
        for (Cycles b : r.blame)
            s += std::to_string(b) + ",";
        return s;
    }
};

} // namespace

std::unique_ptr<Workload>
makeHarvest(const Options &o)
{
    return std::make_unique<Harvest>(o);
}

} // namespace perfbench
