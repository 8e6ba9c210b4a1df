#include "check/recovery_oracle.hh"

#include <set>
#include <sstream>
#include <utility>

#include "trace/audit.hh"

namespace terp {
namespace check {

CrashWorld::CrashWorld(const core::RuntimeConfig &config,
                       unsigned pmoCount, unsigned threads,
                       std::uint64_t pmo_bytes, std::uint64_t log_off)
    : cfg(config), nPmos(pmoCount), pmoBytes(pmo_bytes),
      hookPeriod(mach.config().hookPeriod), nextHook(hookPeriod)
{
    for (unsigned p = 0; p < nPmos; ++p) {
        std::ostringstream name;
        name << "crash-p" << p;
        pmos.create(name.str(), pmoBytes);
    }
    rt = std::make_unique<core::Runtime>(mach, pmos, cfg);
    rt->attachPersistence(&dom);
    for (unsigned p = 1; p <= nPmos; ++p)
        dom.openLog(p, log_off);
    for (unsigned t = 0; t < threads; ++t)
        mach.spawnThread();
}

void
CrashWorld::advanceSweeps(Cycles t)
{
    while (nextHook <= t) {
        if (!sweepGate || sweepGate(nextHook))
            rt->onSweep(nextHook);
        nextHook += hookPeriod;
    }
}

void
runTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
       pm::PmoId pmo,
       const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes)
{
    armFlight(led, tc.tid(), /*ambiguous=*/false, writes);
    protOpen(w, tc, pmo);
    pm::UndoLog *log = w.dom.findLog(pmo);
    log->begin(tc);
    for (const auto &[oid, v] : writes) {
        w.rt->access(tc, oid, /*write=*/true);
        log->write(tc, oid, v);
    }
    log->commit(tc);
    protClose(w, tc, pmo);
    // Only reached when the commit became durable.
    settleFlight(led, tc.tid(), true);
    w.advanceSweeps(tc.now());
}

void
checkDurable(CrashWorld &w, const Ledger &led,
             std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.dom.controller();
    // Keys of open transactions are judged by the flight rule below
    // (which still pins them to the committed value for an undo
    // transaction, but admits all-new for a redo one whose commit
    // was in flight), not by the strict committed-image scan.
    std::set<std::uint64_t> flightKeys;
    for (const auto &[tid, fl] : led.flight) {
        (void)tid;
        flightKeys.insert(fl.keys.begin(), fl.keys.end());
    }
    for (const auto &[raw, want] : led.image) {
        if (flightKeys.count(raw))
            continue;
        std::uint64_t got = ctl.persistedLoad(pm::Oid::fromRaw(raw));
        if (got != want) {
            std::ostringstream os;
            os << "atomicity: durable word at pmo "
               << pm::Oid::fromRaw(raw).pool() << " offset 0x"
               << std::hex << pm::Oid::fromRaw(raw).offset()
               << " = 0x" << got << ", committed image says 0x"
               << want << " (after " << std::dec << led.done
               << " commits)";
            out.push_back(os.str());
        }
    }
    // Transactions open at the crash: all-or-nothing. Undo
    // must recover to all-old; a redo whose commit was in progress
    // may land on either side of its durable point, but never mixed.
    for (const auto &[tid, fl] : led.flight) {
        bool allOld = true, allNew = true;
        for (std::uint64_t raw : fl.keys) {
            auto it = led.image.find(raw);
            std::uint64_t oldv = it == led.image.end() ? 0 : it->second;
            std::uint64_t got =
                ctl.persistedLoad(pm::Oid::fromRaw(raw));
            if (got != oldv)
                allOld = false;
            if (got != fl.newv.at(raw))
                allNew = false;
        }
        if (!(allOld || (fl.ambiguous && allNew))) {
            std::ostringstream os;
            os << "atomicity: transaction of tid " << tid
               << " recovered torn (not all-old"
               << (fl.ambiguous ? ", not all-new" : "") << ")";
            out.push_back(os.str());
        }
    }
}

void
armFlight(Ledger &led, unsigned tid, bool ambiguous,
          const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes)
{
    TxFlight fl;
    fl.ambiguous = ambiguous;
    for (const auto &[oid, v] : writes) {
        fl.keys.push_back(oid.raw);
        fl.newv[oid.raw] = v;
    }
    led.flight[tid] = std::move(fl);
}

void
settleFlight(Ledger &led, unsigned tid, bool committed)
{
    if (committed) {
        for (const auto &[raw, v] : led.flight.at(tid).newv)
            led.image[raw] = v;
        ++led.done;
    } else {
        ++led.aborted;
    }
    led.flight.erase(tid);
}

void
protOpen(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo)
{
    if (w.cfg.insertion == core::Insertion::Manual)
        w.rt->manualBegin(tc, pmo, pm::Mode::ReadWrite);
    else if (w.cfg.insertion == core::Insertion::Auto)
        w.rt->regionBegin(tc, pmo, pm::Mode::ReadWrite);
}

void
protClose(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo)
{
    if (w.cfg.insertion == core::Insertion::Manual)
        w.rt->manualEnd(tc, pmo);
    else if (w.cfg.insertion == core::Insertion::Auto)
        w.rt->regionEnd(tc, pmo);
}

void
drainIdleWindows(CrashWorld &w, const char *when,
                 std::vector<std::string> &out)
{
    // The recovery attach must be closed by the scheme's normal idle
    // path: once every window is past the target, the sweeper has no
    // excuse to leave a PMO mapped. The drain is time-targeted, not
    // hook-counted: a fault that fired mid-op leaves the hook grid
    // behind the thread clocks, and every lastRealAttach is bounded
    // by maxClock, so sweeping to maxClock + target (plus slack for
    // the delayed-detach grace) provably covers every idle window.
    Cycles target = w.mach.maxClock() + w.cfg.ewTarget +
                    16 * w.hookPeriod;
    while (w.nextHook <= target) {
        w.rt->onSweep(w.nextHook);
        w.nextHook += w.hookPeriod;
    }
    for (unsigned p = 1; p <= w.nPmos; ++p) {
        if (w.rt->mapped(p)) {
            std::ostringstream os;
            os << "exposure: PMO " << p
               << " still mapped after the idle sweeper drained "
               << "a full window target past " << when;
            out.push_back(os.str());
        }
    }
}

void
checkLogsRetired(CrashWorld &w, std::vector<std::string> &out)
{
    for (const auto &[pmo, log] : w.dom.logs()) {
        (void)pmo;
        if (log->recoveryPending())
            out.push_back("recovery left an in-flight log record");
    }
    for (const auto &[pmo, log] : w.dom.redoLogs()) {
        (void)pmo;
        if (log->recoveryPending())
            out.push_back("recovery left an in-flight redo record");
    }
}

void
resolveFlights(CrashWorld &w, Ledger &led)
{
    const pm::PersistController &ctl = w.dom.controller();
    for (const auto &[tid, fl] : led.flight) {
        (void)tid;
        bool allNew = fl.ambiguous && !fl.keys.empty();
        for (std::uint64_t raw : fl.keys) {
            if (ctl.persistedLoad(pm::Oid::fromRaw(raw)) !=
                fl.newv.at(raw))
                allNew = false;
        }
        if (allNew) {
            for (const auto &[raw, v] : fl.newv)
                led.image[raw] = v;
            ++led.done;
        }
    }
    led.flight.clear();
}

void
auditTrace(CrashWorld &w, std::vector<std::string> &out)
{
    auto sink = w.rt->traceSink();
    if (!sink)
        return;
    if (!sink->complete()) {
        out.push_back("trace ring wrapped before the audit; raise "
                      "traceCapacity or auditEvery");
        return;
    }
    trace::AuditReport rep = trace::auditTimeline(
        *sink, w.mach.maxClock(), w.rt->exposure());
    for (const std::string &m : rep.mismatches)
        out.push_back("trace audit: " + m);
    if (!rep.ok && rep.mismatches.empty())
        out.push_back("trace audit failed without detail");
}

} // namespace check
} // namespace terp
