/**
 * @file
 * The serve workload: serve::runFleet on the overloaded fleet the
 * ROADMAP profiles (64 shards, 20,000 sessions x 50 requests, scheme
 * tt). A pass is one fleet run; its fingerprint is the full posture
 * report.
 */

#include <algorithm>
#include <memory>

#include "metrics/registry.hh"
#include "serve/loadgen.hh"
#include "serve/report.hh"
#include "serve/server.hh"
#include "serve/shard.hh"
#include "workloads.hh"

namespace perfbench {

using namespace terp;

namespace {

/** runFleet's fleet-merge rule (server.cc): no host.*, no per-PMO. */
bool
keepInFleet(const std::string &name)
{
    if (name.rfind("host.", 0) == 0)
        return false;
    return name.find("{pmo=\"") == std::string::npos ||
           name.find("{pmo=\"all\"") != std::string::npos;
}

class Serve : public Workload
{
  public:
    explicit Serve(const Options &o)
    {
        if (o.size == Size::Full) {
            cfg.shards = 64;
            cfg.sessions = 20000;
            cfg.requestsPerSession = 50;
        } else {
            cfg = serve::ServeConfig::quick();
        }
        cfg.runtime = core::RuntimeConfig::tt();
        cfg.seed = inputSeed(o.seed, cfg.seed);
    }

    const char *primaryUnit() const override { return "requests"; }

    /** LoadGen plus the shard constructors, as runFleet runs them. */
    double
    setupOnce() override
    {
        double t0 = nowS();
        serve::LoadGen load(cfg);
        std::vector<std::unique_ptr<serve::ServeShard>> shards;
        for (unsigned k = 0; k < cfg.shards; ++k)
            shards.push_back(std::make_unique<serve::ServeShard>(
                cfg, k, load.shardStream(k)));
        return nowS() - t0;
    }

    Pass
    runPass(unsigned jobs) override
    {
        Pass p;
        p.cells.resize(1);
        Cell &c = p.cells[0];
        c.id = "fleet";
        double t0 = nowS();
        try {
            serve::FleetResult res = serve::runFleet(cfg, jobs);
            c.hostMs = (nowS() - t0) * 1e3;
            c.fingerprint = serve::postureReport(res);
            setWork(p, res);
        } catch (const std::exception &e) {
            c.error = e.what();
        }
        return p;
    }

    Pass
    tracedPass(Tracer &t, Layers &counts) override
    {
        Pass p;
        p.cells.resize(1);
        Cell &c = p.cells[0];
        c.id = "fleet";
        double t0 = nowS();
        try {
            serve::FleetResult res = rebuiltRunFleet(t, counts);
            c.hostMs = (nowS() - t0) * 1e3;
            c.fingerprint = serve::postureReport(res);
            setWork(p, res);
            std::uint64_t shed = 0;
            for (const serve::ShardSummary &s : res.shards) {
                shed += s.shed;
                counts["sim.cycles"] += s.endClock;
            }
            counts["serve.requests"] += res.generated;
            counts["serve.shed"] += shed;
            // Shard registries, not the fleet roll-up: the fleet
            // merge drops the host.* sweeper timer.
            for (const auto &reg : res.shardMetrics)
                addRegistryCounts(reg.get(), counts);
            if (const metrics::LogHistogram *h =
                    res.fleet->findHistogram(
                        "exposure.ew_cycles{pmo=\"all\"}"))
                counts["semantics.ew_windows"] += h->count();
        } catch (const std::exception &e) {
            c.error = e.what();
        }
        return p;
    }

    void probes(Tracer &, Layers &) override {}

  private:
    serve::ServeConfig cfg;

    static void
    setWork(Pass &p, const serve::FleetResult &res)
    {
        p.sims = static_cast<double>(res.shards.size());
        p.requests = static_cast<double>(res.generated);
        p.powerCycles = p.sims;
    }

    /**
     * serve::runFleet on one host thread, call for call, with a span
     * around each layer call. Must stay in step with
     * src/serve/server.cc: the composition check compares the
     * posture reports byte for byte. Shards never share state, so
     * running an epoch's shards in turn computes what the host pool
     * computes.
     */
    serve::FleetResult
    rebuiltRunFleet(Tracer &t, Layers &counts)
    {
        std::unique_ptr<serve::LoadGen> load;
        {
            Tracer::Scope s(t, "serve.loadgen");
            load = std::make_unique<serve::LoadGen>(cfg);
        }
        std::vector<std::unique_ptr<serve::ServeShard>> shards;
        for (unsigned k = 0; k < cfg.shards; ++k) {
            Tracer::Scope s(t, "serve.shard_init",
                            static_cast<int>(k));
            shards.push_back(std::make_unique<serve::ServeShard>(
                cfg, k, load->shardStream(k)));
        }

        serve::FleetResult res;
        res.cfg = cfg;
        res.generated = load->totalRequests();
        res.slowSessions = load->slowSessions();
        res.horizon = load->horizon();

        std::vector<char> done(cfg.shards, 0);
        double criticalMs = 0;
        for (Cycles epochEnd = cfg.epoch;; epochEnd += cfg.epoch) {
            bool all = true;
            double slowestMs = 0;
            for (unsigned k = 0; k < cfg.shards; ++k) {
                if (done[k])
                    continue;
                all = false;
                Tracer::Scope s(t, "serve.epoch",
                                static_cast<int>(k));
                double t0 = nowS();
                if (shards[k]->processUntil(epochEnd))
                    done[k] = 1;
                slowestMs = std::max(slowestMs, (nowS() - t0) * 1e3);
            }
            if (all)
                break;
            ++res.epochs;
            criticalMs += slowestMs;
        }
        counts["serve.epochs"] += static_cast<double>(res.epochs);
        counts["serve.epoch_critical_ms"] += criticalMs;

        for (unsigned k = 0; k < cfg.shards; ++k) {
            Tracer::Scope s(t, "serve.finish", static_cast<int>(k));
            shards[k]->finish();
        }

        res.fleet = std::make_shared<metrics::Registry>();
        res.fleet->setLabel("scheme", core::schemeTag(cfg.runtime));
        res.fleet->setLabel("shard", "fleet");
        for (unsigned k = 0; k < cfg.shards; ++k) {
            const serve::ServeShard &s = *shards[k];
            res.shards.push_back(s.summary());
            res.endClock = std::max(res.endClock, s.summary().endClock);
            auto reg = s.domain().runtime().metricsRegistry();
            res.shardMetrics.push_back(reg);
            if (reg) {
                Tracer::Scope ms(t, "metrics.merge",
                                 static_cast<int>(k));
                res.fleet->merge(*reg, keepInFleet);
            }
        }
        return res;
    }
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Options &o)
{
    return std::make_unique<Serve>(o);
}

} // namespace perfbench
