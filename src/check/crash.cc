#include "check/crash.hh"

#include <sstream>
#include <stdexcept>

#include "check/fuzzer.hh"
#include "check/recovery_engine.hh"
#include "common/json.hh"

namespace terp {
namespace check {

namespace {

/**
 * Steps crash mode runs: @p txns transactions, after bank's init.
 * The schedule workload's one step replays its whole op list, which
 * --events sizes instead.
 */
unsigned
crashSteps(const RecoveryWorkload &wl, unsigned txns)
{
    if (wl.maxSteps == 1)
        return 1;
    const unsigned room = wl.maxSteps - wl.initSteps;
    if (txns > room) {
        std::ostringstream os;
        os << "txns " << txns << " overflows the " << wl.name
           << " workload's layout (at most " << room << ")";
        throw std::invalid_argument(os.str());
    }
    return txns + wl.initSteps;
}

/**
 * "Arm boundary n, one power cycle": the run ends with its first
 * power cycle, or after its last step when the plan never fires.
 */
struct CrashPolicy : FaultPolicy
{
    unsigned steps;
    bool crashed = false;
    pm::PersistBoundary kind = pm::PersistBoundary::Store;
    std::vector<std::string> found;

    explicit CrashPolicy(unsigned n) : steps(n) { auditEvery = 1; }

    bool
    more(const RecoveryRun &r) const override
    {
        return r.powerCycles == 0 && r.steps < steps;
    }

    void
    interrupted(RecoveryRun &, const pm::PowerFailure &pf) override
    {
        crashed = true;
        kind = pf.kind;
    }

    void
    report(RecoveryRun &, std::vector<std::string> &v) override
    {
        found.insert(found.end(), v.begin(), v.end());
    }
};

} // namespace

void
validateCrashOptions(const CrashOptions &opt)
{
    (void)schemeConfig(opt.scheme, opt.ewTarget);
    (void)crashSteps(findRecoveryWorkload(opt.workload), opt.txns);
}

CrashResult
enumerateCrashPoints(const CrashOptions &opt)
{
    const RecoveryWorkload &wl = findRecoveryWorkload(opt.workload);
    const unsigned steps = crashSteps(wl, opt.txns);
    const core::RuntimeConfig cfg = schemeConfig(opt.scheme, opt.ewTarget);
    Schedule sched;
    if (wl.pmos == 0) {
        GenParams gp;
        gp.persistOps = true;
        gp.events = opt.events;
        gp.ewTarget = opt.ewTarget;
        sched = generate(opt.seed, cfg, gp);
    }
    auto makeRun = [&] {
        return RecoveryRun(wl, cfg.withTrace(), wl.salt + opt.seed,
                           sched);
    };

    // Baseline: no fault. Counts the boundaries and sanity-checks
    // the oracle machinery against an uninterrupted run.
    CrashResult res;
    {
        RecoveryRun r = makeRun();
        CrashPolicy p(steps);
        try {
            runRecovery(r, p);
            res.boundaries = r.w.dom.controller().boundaryCount();
            checkDurable(r.w, r.led, p.found);
            wl.invariant(r.w, p.found);
        } catch (const std::exception &e) {
            p.found.push_back(std::string("baseline run died: ") +
                              e.what());
        }
        for (const std::string &m : p.found)
            res.violations.push_back(
                {0, pm::PersistBoundary::Store, m});
        if (!res.violations.empty() || res.boundaries == 0)
            return res;
    }

    for (std::uint64_t n = 1; n <= res.boundaries; ++n) {
        RecoveryRun r = makeRun();
        r.w.dom.controller().armFault(n);
        CrashPolicy p(steps);
        try {
            runRecovery(r, p);
        } catch (const std::exception &e) {
            p.found.push_back(std::string(p.crashed ? "recovery died: "
                                                    : "workload died: ") +
                              e.what());
        }
        ++res.pointsRun;
        // A scheduled CrashRecover op can disarm nothing — the plan
        // stays armed across it — so reaching the end means the
        // boundary count regressed between runs.
        if (!p.crashed && p.found.empty())
            p.found.push_back("armed fault never fired "
                              "(non-deterministic boundary count?)");
        for (const std::string &m : p.found)
            res.violations.push_back({n, p.kind, m});
    }
    return res;
}

std::string
crashResultJson(const CrashOptions &opt, const CrashResult &r)
{
    std::ostringstream os;
    os << "{\"scheme\":\"" << jsonEscape(opt.scheme)
       << "\",\"workload\":\"" << jsonEscape(opt.workload)
       << "\",\"seed\":" << opt.seed << ",\"boundaries\":"
       << r.boundaries << ",\"points_run\":" << r.pointsRun
       << ",\"ok\":" << (r.ok() ? "true" : "false");
    if (!r.violations.empty())
        os << ",\"earliest_violation\":" << r.violations.front().point;
    os << ",\"violations\":[";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
        const CrashViolation &cv = r.violations[i];
        if (i)
            os << ",";
        os << "{\"point\":" << cv.point << ",\"kind\":\""
           << pm::persistBoundaryName(cv.kind) << "\",\"detail\":\""
           << jsonEscape(cv.detail) << "\"}";
    }
    os << "]}";
    return os.str();
}

} // namespace check
} // namespace terp
