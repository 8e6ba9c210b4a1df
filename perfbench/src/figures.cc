/**
 * @file
 * The two figure workloads: spec_mt (fig11's 35 cells through
 * workloads::runSpec) and whisper (fig09's 36 cells through
 * workloads::runWhisper). A pass runs every cell once and merges each
 * cell's registry into a pass aggregate, as the figure harness does.
 */

#include <cstdio>
#include <mutex>

#include "common/rng.hh"
#include "compiler/interp.hh"
#include "compiler/pass.hh"
#include "core/runtime.hh"
#include "metrics/registry.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"
#include "workloads.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

namespace perfbench {

using namespace terp;

namespace {

struct Scheme
{
    const char *slug;
    core::RuntimeConfig cfg;
};

/** The figure harness's aggregate rule: only pmo="all" per-PMO series. */
bool
keepInAggregate(const std::string &name)
{
    return name.find("{pmo=\"") == std::string::npos ||
           name.find("{pmo=\"all\"") != std::string::npos;
}

/** Canonical text of a figure cell's simulated output. */
std::string
fingerprint(const workloads::RunResult &r)
{
    const core::OverheadReport &o = r.report;
    const semantics::ExposureMetrics &e = r.exposure;
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "%s cycles=%llu pmos=%llu work=%llu attach=%llu detach=%llu "
        "rand=%llu cond=%llu other=%llu total=%llu asys=%llu "
        "dsys=%llu rnd=%llu condops=%llu silent=%.17g ewavg=%.17g "
        "ewmax=%.17g er=%.17g tewavg=%.17g tewmax=%.17g ter=%.17g "
        "ewn=%llu tewn=%llu",
        r.name.c_str(), (unsigned long long)r.totalCycles,
        (unsigned long long)r.pmoCount, (unsigned long long)o.work,
        (unsigned long long)o.attach, (unsigned long long)o.detach,
        (unsigned long long)o.rand, (unsigned long long)o.cond,
        (unsigned long long)o.other, (unsigned long long)o.total,
        (unsigned long long)o.attachSyscalls,
        (unsigned long long)o.detachSyscalls,
        (unsigned long long)o.randomizations,
        (unsigned long long)o.condOps, o.silentFraction, e.ewAvgUs,
        e.ewMaxUs, e.er, e.tewAvgUs, e.tewMaxUs, e.ter,
        (unsigned long long)e.ewCount, (unsigned long long)e.tewCount);
    return buf;
}

/** State shared by both figure workloads: the cells and the aggregate. */
class FigureWorkload : public Workload
{
  protected:
    struct CellDef
    {
        std::string prog;
        Scheme scheme;
        std::string id() const { return prog + "/" + scheme.slug; }
    };
    std::vector<CellDef> cells;

    /** Build the cell list: every program under every scheme. */
    void
    grid(const std::vector<std::string> &progs,
         const std::vector<Scheme> &schemes)
    {
        for (const auto &p : progs)
            for (const auto &s : schemes)
                cells.push_back({p, s});
    }

    /** Simulated requests per cell (README.md, requests_per_s). */
    double requestsPerCell = 1;

    /** One cell, untraced. */
    virtual workloads::RunResult runCell(const CellDef &c) = 0;
    /** One cell in the traced pass, inside its own spans. */
    virtual workloads::RunResult
    tracedCell(Tracer &t, std::size_t i, Layers &counts) = 0;

    Pass
    emptyPass() const
    {
        Pass p;
        p.cells.resize(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            p.cells[i].id = cells[i].id();
        p.sims = static_cast<double>(cells.size());
        p.requests = p.sims * requestsPerCell;
        p.powerCycles = p.sims;
        return p;
    }

  public:
    const char *primaryUnit() const override { return "sims"; }

    Pass
    runPass(unsigned jobs) override
    {
        Pass p = emptyPass();
        metrics::Registry aggregate;
        std::mutex mu;
        parallelFor(cells.size(), jobs, [&](std::size_t i) {
            Cell &c = p.cells[i];
            double t0 = nowS();
            try {
                workloads::RunResult r = runCell(cells[i]);
                c.hostMs = (nowS() - t0) * 1e3;
                c.fingerprint = fingerprint(r);
                if (r.metrics) {
                    std::lock_guard<std::mutex> g(mu);
                    aggregate.merge(*r.metrics, keepInAggregate,
                                    {"scheme"});
                }
            } catch (const std::exception &e) {
                c.error = e.what();
            }
        });
        return p;
    }

    Pass
    tracedPass(Tracer &t, Layers &counts) override
    {
        Pass p = emptyPass();
        metrics::Registry aggregate;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Cell &c = p.cells[i];
            double t0 = nowS();
            try {
                workloads::RunResult r = tracedCell(t, i, counts);
                c.hostMs = (nowS() - t0) * 1e3;
                c.fingerprint = fingerprint(r);
                counts["sim.cycles"] += r.totalCycles;
                counts["semantics.ew_windows"] += r.exposure.ewCount;
                if (r.metrics) {
                    addRegistryCounts(r.metrics.get(), counts);
                    Tracer::Scope ms(t, "metrics.merge",
                                     static_cast<int>(i));
                    aggregate.merge(*r.metrics, keepInAggregate,
                                    {"scheme"});
                }
            } catch (const std::exception &e) {
                c.error = e.what();
            }
        }
        return p;
    }
};

// ---- spec_mt -------------------------------------------------------

class SpecMt : public FigureWorkload
{
  public:
    explicit SpecMt(const Options &o)
    {
        params.scale = o.size == Size::Full ? 0.5 : 0.05;
        params.threads = 4;
        params.seed = inputSeed(o.seed, params.seed);
        requestsPerCell = params.threads;
        grid(workloads::specNames(),
             {{"unprot", core::RuntimeConfig::unprotected()},
              {"basic", core::RuntimeConfig::basicSemantics()},
              {"tm", core::RuntimeConfig::tm()},
              {"ttnc", core::RuntimeConfig::ttNoCombining()},
              {"tt40", core::RuntimeConfig::tt(usToCycles(40))},
              {"tt80", core::RuntimeConfig::tt(usToCycles(80))},
              {"tt160", core::RuntimeConfig::tt(usToCycles(160))}});
    }

    /** runSpec's set-up half: build, pass, image set-up, Runtime. */
    double
    setupOnce() override
    {
        double t0 = nowS();
        for (const CellDef &c : cells) {
            sim::Machine mach;
            pm::PmoManager pmos(params.seed);
            workloads::SpecProgram prog = workloads::buildSpec(
                c.prog, pmos, passConfig(c.scheme.cfg), params);
            pm::MemImage img;
            Rng rng(params.seed ^ 0xabcdef);
            prog.setup(img, rng);
            core::Runtime rt(mach, pmos, c.scheme.cfg);
        }
        return nowS() - t0;
    }

    /** metrics.cost_ms: each cell with metrics minus without. */
    void
    probes(Tracer &t, Layers &out) override
    {
        Tracer::Scope probe(t, "probe.without_metrics");
        double with = 0, without = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellDef &c = cells[i];
            auto timeRun = [&](const core::RuntimeConfig &cfg) {
                double t0 = nowS();
                workloads::runSpec(c.prog, cfg, params);
                return (nowS() - t0) * 1e3;
            };
            // Alternate which variant runs first.
            if (i % 2) {
                without += timeRun(c.scheme.cfg.withoutMetrics());
                with += timeRun(c.scheme.cfg);
            } else {
                with += timeRun(c.scheme.cfg);
                without += timeRun(c.scheme.cfg.withoutMetrics());
            }
        }
        out["metrics.cost_ms"] = with - without;
    }

  protected:
    workloads::RunResult
    runCell(const CellDef &c) override
    {
        return workloads::runSpec(c.prog, c.scheme.cfg, params);
    }

    workloads::RunResult
    tracedCell(Tracer &t, std::size_t i, Layers &counts) override
    {
        Tracer::Scope cs(t, "spec.cell", static_cast<int>(i));
        return rebuiltRunSpec(t, cells[i], counts);
    }

  private:
    workloads::SpecParams params;

    static compiler::PassConfig
    passConfig(const core::RuntimeConfig &cfg)
    {
        compiler::PassConfig pc;
        pc.ewLetThreshold = cfg.ewTarget;
        pc.tewLetThreshold = cfg.tewTarget;
        return pc;
    }

    /**
     * workloads::runSpec, call for call, with a span around each
     * layer it enters. Must stay in step with src/workloads/spec.cc:
     * the composition check compares the two byte for byte.
     */
    workloads::RunResult
    rebuiltRunSpec(Tracer &t, const CellDef &c, Layers &counts)
    {
        const core::RuntimeConfig &cfg = c.scheme.cfg;
        sim::Machine mach;
        pm::PmoManager pmos(params.seed);

        compiler::PassConfig pc = passConfig(cfg);
        workloads::SpecParams buildOnly = params;
        buildOnly.runPass = false;
        workloads::SpecProgram prog;
        {
            Tracer::Scope s(t, "workloads.build");
            prog = workloads::buildSpec(c.prog, pmos, pc, buildOnly);
        }
        {
            Tracer::Scope s(t, "compiler.pass");
            prog.passResult =
                compiler::runInsertionPass(prog.module, pc);
        }

        pm::MemImage img;
        Rng rng(params.seed ^ 0xabcdef);
        {
            Tracer::Scope s(t, "workloads.setup");
            prog.setup(img, rng);
        }

        std::unique_ptr<core::Runtime> rt;
        {
            Tracer::Scope s(t, "core.runtime_init");
            rt = std::make_unique<core::Runtime>(mach, pmos, cfg);
        }

        std::vector<std::unique_ptr<compiler::Interpreter>> interps;
        std::vector<sim::Job *> jobs;
        for (unsigned tid = 0; tid < params.threads; ++tid) {
            mach.spawnThread();
            interps.push_back(std::make_unique<compiler::Interpreter>(
                prog.module, *rt, mach, img, prog.entry,
                std::vector<std::uint64_t>{tid, params.threads}));
            jobs.push_back(interps.back().get());
        }
        {
            Tracer::Scope s(t, "sim.run");
            double sweepS = 0;
            std::uint64_t sweeps = 0;
            mach.run(jobs, [&](Cycles now) {
                double t0 = nowS();
                rt->onSweep(now);
                sweepS += nowS() - t0;
                ++sweeps;
            });
            t.aggregate("core.sweep", sweepS * 1e6, sweeps);
        }
        {
            Tracer::Scope s(t, "core.finalize");
            rt->finalize();
        }

        workloads::RunResult r;
        r.name = c.prog;
        r.report = rt->report();
        r.totalCycles = mach.maxClock();
        r.exposure = rt->exposure().metricsAll(r.totalCycles,
                                               params.threads);
        r.pmoCount = prog.pmos.size();
        std::uint64_t instrs = 0;
        for (const auto &in : interps)
            instrs += in->instructionsExecuted();
        counts["interp.instructions"] += static_cast<double>(instrs);
        if ((r.metrics = rt->metricsRegistry())) {
            r.metrics->setLabel("workload", c.prog);
            r.metrics->counter("interp.instructions").inc(instrs);
        }
        return r;
    }
};

// ---- whisper -------------------------------------------------------

class Whisper : public FigureWorkload
{
  public:
    explicit Whisper(const Options &o)
    {
        params.sections = o.size == Size::Full ? 400 : 20;
        params.seed = inputSeed(o.seed, params.seed);
        requestsPerCell = static_cast<double>(params.sections);
        grid(workloads::whisperNames(),
             {{"unprot", core::RuntimeConfig::unprotected()},
              {"mm40", core::RuntimeConfig::mm(usToCycles(40))},
              {"tm40", core::RuntimeConfig::tm(usToCycles(40))},
              {"tt40", core::RuntimeConfig::tt(usToCycles(40))},
              {"tt80", core::RuntimeConfig::tt(usToCycles(80))},
              {"tt160", core::RuntimeConfig::tt(usToCycles(160))}});
    }

    /** A sections=0 pass: world set-up with no transactions. */
    double
    setupOnce() override
    {
        workloads::WhisperParams empty = params;
        empty.sections = 0;
        double t0 = nowS();
        for (const CellDef &c : cells)
            workloads::runWhisper(c.prog, c.scheme.cfg, empty);
        return nowS() - t0;
    }

    /** workloads.setup_ms: the sections=0 pass, one span per cell. */
    void
    probes(Tracer &t, Layers &out) override
    {
        Tracer::Scope probe(t, "probe.sections0");
        workloads::WhisperParams empty = params;
        empty.sections = 0;
        double ms = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Tracer::Scope s(t, "workloads.setup", static_cast<int>(i));
            double t0 = nowS();
            workloads::runWhisper(cells[i].prog, cells[i].scheme.cfg,
                                  empty);
            ms += (nowS() - t0) * 1e3;
        }
        out["workloads.setup_ms"] = ms;
    }

  protected:
    workloads::RunResult
    runCell(const CellDef &c) override
    {
        return workloads::runWhisper(c.prog, c.scheme.cfg, params);
    }

    /**
     * runWhisper's internals (makeJob) are private to src/, so the
     * traced pass spans the whole call; the sweeper's share comes
     * from the runtime's own counters (README.md, core.sweep_ms).
     */
    workloads::RunResult
    tracedCell(Tracer &t, std::size_t i, Layers &) override
    {
        Tracer::Scope cs(t, "workloads.runWhisper",
                         static_cast<int>(i));
        return runCell(cells[i]);
    }

  private:
    workloads::WhisperParams params;
};

} // namespace

void
addRegistryCounts(const metrics::Registry *reg, Layers &counts)
{
    if (!reg)
        return;
    auto counter = [&](const char *name) {
        const metrics::Counter *c = reg->findCounter(name);
        return c ? static_cast<double>(c->value()) : 0.0;
    };
    counts["core.full_ops"] += counter("runtime.full_ops");
    counts["core.silent_ops"] += counter("runtime.silent_ops");
    counts["sweeper.ticks"] += counter("sweeper.ticks");
    // The runtime times one sweeper tick in 64 (runtime.cc); scaled
    // back up this estimates the sweeper's host time where no span
    // can reach it.
    if (const metrics::LogHistogram *h =
            reg->findHistogram("host.sweep_tick_ns"))
        counts["sweeper.sampled_ms"] +=
            64.0 * static_cast<double>(h->sum()) / 1e6;
}

std::unique_ptr<Workload>
makeSpecMt(const Options &o)
{
    return std::make_unique<SpecMt>(o);
}

std::unique_ptr<Workload>
makeWhisper(const Options &o)
{
    return std::make_unique<Whisper>(o);
}

} // namespace perfbench
