#include "energy/harvest.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/fuzzer.hh"
#include "check/recovery_engine.hh"

namespace terp {
namespace energy {

namespace {

/** @p name, if its layout lets it step for a whole harvest. */
const check::RecoveryWorkload &
harvestWorkload(const std::string &name)
{
    const check::RecoveryWorkload &wl = check::findRecoveryWorkload(name);
    if (wl.maxSteps != check::unboundedSteps)
        throw std::invalid_argument(
            "harvest: workload " + name + " stops after " +
            std::to_string(wl.maxSteps) + " step(s); a harvest runs "
            "until its power cycles are done");
    return wl;
}

/**
 * "Capacitor runway, checkpoint watermark, sweep gate, dark recharge,
 * N cycles": the fault policy of one harvest run. It owns the world,
 * the capacitor and the oracle ledger for the whole multi-cycle
 * lifetime — unlike the crash-point enumerator, nothing here is
 * rebuilt between crashes, which is the point: state that survives a
 * crash()/recover() pair incorrectly compounds instead of hiding
 * behind a fresh world.
 */
struct Harness : check::FaultPolicy
{
    const HarvestOptions &opt;
    HarvestResult res;
    check::RecoveryRun run;
    Capacitor cap;

    /** Machine time already charged to the capacitor. */
    Cycles energyClock = 0;
    /** Last completed step's cost, for race-to-expiry arming. */
    Cycles estCycles = 0;
    std::uint64_t estBoundaries = 0;

    // The step in flight.
    bool armed = false;
    Cycles c0 = 0;
    std::uint64_t b0 = 0;
    unsigned done0 = 0, aborted0 = 0;

    std::uint64_t attempts = 0; //!< step attempts; the scratch value
    std::uint64_t lastDurableScratch = 0;
    bool scratchPending = false;
    const pm::Oid scratchOid{1, 0x600};

    explicit Harness(const HarvestOptions &o)
        : opt(o),
          run(harvestWorkload(o.workload), harvestConfig(o),
              0x9e3779b97f4a7c15ULL ^ o.seed),
          cap(o.cap)
    {
        oracle = o.oracle;
        auditEvery = o.auditEvery;
        // Sweeper energy budgeting: a tick the backup reserve cannot
        // afford is skipped — the hook grid advances, windows stay
        // open, and the exposure cost shows up in the EW metrics.
        // Blame attribution rides the gate: while ticks are being
        // skipped for energy the sweeper *couldn't* act, so idle
        // exposure is EnergyDark, not SweeperLag. setEnergyDark
        // dedupes repeated states, so toggling per tick is free.
        run.w.sweepGate = [this](Cycles t) {
            bool afford = !cap.belowSweepReserve();
            ++(afford ? res.sweepsRun : res.sweepsSkipped);
            run.w.rt->exposureMut().setEnergyDark(!afford, t);
            return afford;
        };
    }

    /** Charge the capacitor for machine time not yet accounted. */
    void
    settleEnergy()
    {
        Cycles now = run.w.mach.maxClock();
        if (now > energyClock) {
            cap.drain(now - energyClock);
            energyClock = now;
        }
    }

    /** Count the step's commits and aborts (once, finished or not). */
    void
    countStep(const check::RecoveryRun &r)
    {
        res.committed += r.led.done - done0;
        res.aborted += r.led.aborted - aborted0;
        done0 = r.led.done;
        aborted0 = r.led.aborted;
    }

    bool
    more(const check::RecoveryRun &r) const override
    {
        return r.powerCycles < opt.powerCycles &&
               res.violations.size() <= opt.maxViolations;
    }

    bool
    powered() const override
    {
        return !cap.failed() && cap.runway() != 0;
    }

    void
    beforeStep(check::RecoveryRun &r) override
    {
        pm::PersistController &ctl = r.w.dom.controller();
        // Checkpoint policy: below the watermark, fence pending
        // write-backs (the unfenced scratch update) while the energy
        // still covers the flush.
        if (scratchPending && cap.belowWatermark()) {
            ctl.sfence(r.w.mach.thread(0));
            scratchPending = false;
            ++res.checkpoints;
        }

        // Race to expiry: when the runway no longer covers a step
        // (cost estimated from the last completed one), the power
        // will fail mid-step — plant the modeled failure at the
        // boundary the energy runs out at, scaled by the boundary
        // density of a step.
        armed = estCycles > 0 && estBoundaries > 0 &&
                cap.runway() < estCycles;
        if (armed) {
            std::uint64_t frac =
                (estBoundaries * cap.runway()) / estCycles;
            ctl.armFault(ctl.boundaryCount() + 1 +
                         std::min(frac, estBoundaries - 1));
        }
        c0 = r.w.mach.maxClock();
        b0 = ctl.boundaryCount();
        done0 = r.led.done;
        aborted0 = r.led.aborted;
        ++attempts;
    }

    void
    afterStep(check::RecoveryRun &r) override
    {
        countStep(r);
        pm::PersistController &ctl = r.w.dom.controller();
        // Unfenced scratch update: store + clwb but no fence —
        // durable at the next fence, wherever that lands. The
        // checkpoint watermark exists to bound how much of this a
        // power failure can lose.
        ctl.persistentStore(r.w.mach.thread(0), scratchOid, attempts);
        scratchPending = true;

        settleEnergy();
        estCycles = r.w.mach.maxClock() - c0;
        estBoundaries = ctl.boundaryCount() - b0;
        // The estimate overshot — the step fit after all. A stale
        // plan must never survive into the crash or the recovery
        // path.
        if (armed)
            ctl.disarmFault();
    }

    void
    interrupted(check::RecoveryRun &r, const pm::PowerFailure &) override
    {
        countStep(r);
        ++res.interrupted;
        settleEnergy();
    }

    void
    powerOff(check::RecoveryRun &r, Cycles at) override
    {
        if (auto sink = r.w.rt->traceSink())
            sink->emit(trace::TraceSink::kernelTid,
                       trace::EventKind::PowerFail, at, trace::noPmo,
                       cap.storedUnits());
    }

    /**
     * The dark recharge. Verification work after it (the idle drain,
     * the probe transaction, the audit) is the oracle's instrument,
     * not modeled execution: report() re-anchors the energy clock
     * past it.
     */
    Cycles
    dark(check::RecoveryRun &r, Cycles at) override
    {
        check::CrashWorld &w = r.w;
        Cycles off = cap.rechargeCycles();
        cap.recharge();
        Cycles resume = at + off;
        res.offCycles += off;
        // The machine is dark: the hook grid advances over the gap
        // without firing.
        while (w.nextHook <= resume)
            w.nextHook += w.hookPeriod;
        if (auto sink = w.rt->traceSink())
            sink->emit(trace::TraceSink::kernelTid,
                       trace::EventKind::Recharge, resume,
                       trace::noPmo, off);
        energyClock = resume;
        // The capacitor is recharged: recovery-reopened windows are
        // the sweeper's to close again, not energy-dark. All windows
        // are closed here, so the flush inside is a no-op.
        w.rt->exposureMut().setEnergyDark(false, resume);
        return resume;
    }

    void
    recovered(check::RecoveryRun &, unsigned logs) override
    {
        res.recoveredLogs += logs;
        settleEnergy(); // recovery dips into the fresh charge
    }

    /**
     * The unfenced scratch counter may lose its tail to a power
     * failure, but its durable value can never regress (writes only
     * increase it and no log ever rolls it back) nor run ahead of
     * the attempts that wrote it.
     */
    void
    extraChecks(check::RecoveryRun &r,
                std::vector<std::string> &v) override
    {
        std::uint64_t cur =
            r.w.dom.controller().persistedLoad(scratchOid);
        if (cur < lastDurableScratch) {
            std::ostringstream os;
            os << "scratch: durable counter regressed "
               << lastDurableScratch << " -> " << cur;
            v.push_back(os.str());
        }
        if (cur > attempts) {
            std::ostringstream os;
            os << "scratch: durable counter " << cur << " ahead of "
               << attempts << " attempts";
            v.push_back(os.str());
        }
        lastDurableScratch = cur;
    }

    void
    report(check::RecoveryRun &r, std::vector<std::string> &v) override
    {
        for (const std::string &m : v) {
            if (res.violations.size() < opt.maxViolations) {
                std::ostringstream os;
                os << "cycle " << r.powerCycles << ": " << m;
                res.violations.push_back(os.str());
            } else if (res.violations.size() == opt.maxViolations) {
                res.violations.push_back("... further violations "
                                         "suppressed");
            }
        }
        // Verification cycles are free.
        energyClock = r.w.mach.maxClock();
    }

    HarvestResult
    finish()
    {
        check::runRecovery(run, *this);
        const check::CrashWorld &w = run.w;
        res.powerCycles = run.powerCycles;
        res.simCycles = w.mach.maxClock();
        res.exposure = w.rt->exposure().metricsAll(
            res.simCycles, w.mach.threadCount());
        for (unsigned c = 0; c < semantics::numBlameCauses; ++c)
            res.blame[c] = w.rt->exposure().blameTotalAll(
                static_cast<semantics::BlameCause>(c));
        return std::move(res);
    }
};

} // namespace

core::RuntimeConfig
harvestConfig(const HarvestOptions &opt)
{
    core::RuntimeConfig cfg = check::schemeConfig(opt.scheme, opt.ewTarget);
    // Only the audit reads the trace.
    return opt.oracle && opt.auditEvery ? cfg.withTrace(opt.traceCapacity)
                                        : cfg;
}

HarvestResult
runHarvest(const HarvestOptions &opt)
{
    Harness h(opt);
    return h.finish();
}

} // namespace energy
} // namespace terp
