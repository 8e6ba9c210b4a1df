#include "check/recovery_engine.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "pm/tx_manager.hh"

namespace terp {
namespace check {

namespace {

constexpr std::uint64_t logOff = 1ULL << 32;
constexpr std::uint64_t pmoBytes = 64 * KiB;

using Writes = std::vector<std::pair<pm::Oid, std::uint64_t>>;

/** Sync every live thread forward to @p t. */
void
syncLive(CrashWorld &w, Cycles t)
{
    for (unsigned i = 0; i < w.mach.threadCount(); ++i) {
        sim::ThreadContext &tc = w.mach.thread(i);
        if (!tc.done && !tc.blocked() && tc.now() < t)
            tc.syncTo(t, sim::Charge::Other);
    }
}

// ------------------------------------------------------- workloads

/** Account i of the bank ledger. */
pm::Oid
acct(unsigned i)
{
    return pm::Oid(1, 0x1000 + 64ULL * i);
}

/**
 * bank: 8 accounts initialized to 1000, then random transfers. Each
 * transaction also bumps a sequence word so no two committed images
 * are ever equal (keeps the atomicity oracle sharp even for a
 * transfer of an amount that round-trips).
 */
void
bankStep(RecoveryRun &r)
{
    sim::ThreadContext &tc = r.w.mach.thread(0);
    const pm::PersistController &ctl = r.w.dom.controller();
    const pm::Oid seq(1, 0x800);
    if (!r.inited) {
        Writes init;
        for (unsigned i = 0; i < 8; ++i)
            init.push_back({acct(i), 1000});
        init.push_back({seq, 1});
        runTxn(r.w, r.led, tc, 1, init);
        r.inited = true;
        return;
    }
    auto a = static_cast<unsigned>(r.rng.nextBelow(8));
    auto b = static_cast<unsigned>(r.rng.nextBelow(7));
    if (b >= a)
        ++b;
    std::uint64_t amt = 1 + r.rng.nextBelow(200);
    // Two's-complement arithmetic keeps the sum invariant even
    // through a (harmless) negative balance.
    runTxn(r.w, r.led, tc, 1,
           {{acct(a), ctl.load(acct(a)) - amt},
            {acct(b), ctl.load(acct(b)) + amt},
            {seq, ctl.load(seq) + 1}});
}

void
bankInvariant(const CrashWorld &w, std::vector<std::string> &out)
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < 8; ++i)
        sum += w.dom.controller().persistedLoad(acct(i));
    // Before the init transaction commits, every account is 0.
    if (sum != 0 && sum != 8 * 1000) {
        std::ostringstream os;
        os << "bank: recovered balances sum to " << sum
           << ", expected 8000 (or 0 pre-init)";
        out.push_back(os.str());
    }
}

constexpr std::uint64_t bucketsOff = 4096;
constexpr unsigned nBuckets = 16;
constexpr std::uint64_t heapOff = 8192;
/** Heap records are a line each; the PMO's last line holds the probe. */
constexpr unsigned hashmapMaxSteps =
    static_cast<unsigned>((pmoBytes - heapOff) / lineSize - 1);

/**
 * hashmap: WHISPER-style chained-bucket inserts. One insert writes
 * the record's key/value/next fields plus the bucket-head pointer in
 * a single transaction — the classic multi-line update that is
 * inconsistent (a half-linked record) if torn by a crash.
 */
void
hashmapStep(RecoveryRun &r)
{
    const pm::PersistController &ctl = r.w.dom.controller();
    std::uint64_t key = 0x1000 + r.steps;
    std::uint64_t rec = heapOff + lineSize * r.steps;
    pm::Oid head(1, bucketsOff + 64ULL * (key % nBuckets));
    runTxn(r.w, r.led, r.w.mach.thread(0), 1,
           {{pm::Oid(1, rec), key},
            {pm::Oid(1, rec + 8), r.rng.next() | 1},
            {pm::Oid(1, rec + 16), ctl.load(head)},
            {head, rec}});
}

/**
 * Every bucket chain must be walkable, cycle-free, and end at records
 * whose key hashes to that bucket — a torn insert breaks one of these.
 */
void
hashmapInvariant(const CrashWorld &w, std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.dom.controller();
    for (unsigned b = 0; b < nBuckets; ++b) {
        std::uint64_t rec =
            ctl.persistedLoad(pm::Oid(1, bucketsOff + 64ULL * b));
        unsigned steps = 0;
        while (rec != 0) {
            if (++steps > 4096) {
                out.push_back("hashmap: bucket chain cycle");
                return;
            }
            std::uint64_t key = ctl.persistedLoad(pm::Oid(1, rec));
            std::uint64_t val =
                ctl.persistedLoad(pm::Oid(1, rec + 8));
            if (key % nBuckets != b || val == 0) {
                std::ostringstream os;
                os << "hashmap: torn record in bucket " << b
                   << " (key 0x" << std::hex << key << ", val 0x"
                   << val << ")";
                out.push_back(os.str());
                return;
            }
            rec = ctl.persistedLoad(pm::Oid(1, rec + 16));
        }
    }
}

/**
 * txmix: a nested TxManager transfer between accounts in two PMOs —
 * one flattened transaction under two ordered locks, the anchor
 * PMO's log recording the cross-PMO write-set. The outer level
 * debits, a nested level credits and bumps the sequence word, and
 * ~20% of transfers abort at the inner level, poisoning the outer
 * commit, which must then leave no trace. Kinds alternate seeded
 * between undo and redo, so failures land in both protocols' commit
 * sequences (including the redo ambiguity window).
 */
void
txmixStep(RecoveryRun &r)
{
    CrashWorld &w = r.w;
    sim::ThreadContext &tc = w.mach.thread(0);
    pm::TxManager &txm = *w.rt->tx();
    const pm::PersistController &ctl = w.dom.controller();
    const pm::Oid acctA(1, 0x1000), acctB(2, 0x1000), seq(1, 0x800);
    bool init = !r.inited;
    bool redo = !init && r.rng.nextBelow(2) == 1;
    bool doAbort = !init && r.rng.nextBelow(100) < 20;
    std::uint64_t amt = 1 + r.rng.nextBelow(200);
    // Values are computed before begin: a redo transaction's
    // in-place image is stale until its commit applies.
    std::uint64_t newA = init ? 1000 : ctl.load(acctA) - amt;
    std::uint64_t newB = init ? 1000 : ctl.load(acctB) + amt;
    std::uint64_t s = ctl.load(seq) + 1;
    Writes writes = {{acctA, newA}, {acctB, newB}, {seq, s}};

    armFlight(r.led, 0, redo && !doAbort, writes);
    protOpen(w, tc, 1);
    protOpen(w, tc, 2);
    txm.begin(tc, 0, {1, 2}, redo ? pm::TxKind::Redo : pm::TxKind::Undo);
    w.rt->access(tc, acctA, /*write=*/true);
    txm.write(tc, 0, acctA, newA);
    txm.begin(tc, 0, {2}); // nested level: locks already held
    w.rt->access(tc, acctB, /*write=*/true);
    txm.write(tc, 0, acctB, newB);
    txm.write(tc, 0, seq, s);
    if (doAbort)
        txm.abort(tc, 0);
    txm.commit(tc, 0); // inner: unwind only
    bool ok = txm.commit(tc, 0); // outermost: the durable point
    protClose(w, tc, 2);
    protClose(w, tc, 1);
    settleFlight(r.led, 0, ok);
    if (ok)
        r.inited = true;
    w.advanceSweeps(tc.now());
}

/** The cross-PMO balance sum is conserved. */
void
txmixInvariant(const CrashWorld &w, std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.dom.controller();
    std::uint64_t sum = ctl.persistedLoad(pm::Oid(1, 0x1000)) +
                        ctl.persistedLoad(pm::Oid(2, 0x1000));
    if (sum != 0 && sum != 2000) {
        std::ostringstream os;
        os << "txmix: recovered cross-PMO balances sum to " << sum
           << ", expected 2000 (or 0 pre-init)";
        out.push_back(os.str());
    }
}

/**
 * txpair: two threads running transactions over disjoint PMOs —
 * thread 0 locks PMO 1, thread 1 locks PMO 2 — with their writes
 * interleaved boundary-by-boundary and their commits staggered, so a
 * failure can land between one thread's durable point and the
 * other's. Each transaction writes a split pair (x, 2000 - x) plus a
 * sequence word; recovery must treat the two independently.
 */
void
txpairStep(RecoveryRun &r)
{
    CrashWorld &w = r.w;
    sim::ThreadContext &tc0 = w.mach.thread(0);
    sim::ThreadContext &tc1 = w.mach.thread(1);
    pm::TxManager &txm = *w.rt->tx();
    const pm::PersistController &ctl = w.dom.controller();
    auto pairWrites = [&](pm::PmoId p, std::uint64_t d, bool init) {
        const pm::Oid x(p, 0x1000), seq(p, 0x800);
        std::uint64_t nx = init ? 1000 : ctl.load(x) + d;
        return Writes{{x, nx},
                      {pm::Oid(p, 0x1040), 2000 - nx},
                      {seq, ctl.load(seq) + 1}};
    };

    bool init = !r.inited;
    bool redo0 = !init && r.rng.nextBelow(2) == 1;
    bool redo1 = !init && r.rng.nextBelow(2) == 1;
    bool abort0 = !init && r.rng.nextBelow(100) < 15;
    bool abort1 = !init && r.rng.nextBelow(100) < 15;
    std::uint64_t d0 = 1 + r.rng.nextBelow(500);
    std::uint64_t d1 = 1 + r.rng.nextBelow(500);
    Writes w0 = pairWrites(1, d0, init);
    Writes w1 = pairWrites(2, d1, init);

    armFlight(r.led, 0, redo0 && !abort0, w0);
    armFlight(r.led, 1, redo1 && !abort1, w1);
    protOpen(w, tc0, 1);
    protOpen(w, tc1, 2);
    txm.begin(tc0, 0, {1}, redo0 ? pm::TxKind::Redo : pm::TxKind::Undo);
    txm.begin(tc1, 1, {2}, redo1 ? pm::TxKind::Redo : pm::TxKind::Undo);
    // Interleave the two write-sets boundary-by-boundary.
    for (unsigned j = 0; j < 3; ++j) {
        w.rt->access(tc0, w0[j].first, /*write=*/true);
        txm.write(tc0, 0, w0[j].first, w0[j].second);
        w.rt->access(tc1, w1[j].first, /*write=*/true);
        txm.write(tc1, 1, w1[j].first, w1[j].second);
    }
    if (abort0)
        txm.abort(tc0, 0);
    if (abort1)
        txm.abort(tc1, 1);
    // Staggered durable points: thread 0 settles first, so a failure
    // inside thread 1's commit sees thread 0 committed.
    bool ok0 = txm.commit(tc0, 0);
    settleFlight(r.led, 0, ok0);
    bool ok1 = txm.commit(tc1, 1);
    settleFlight(r.led, 1, ok1);
    protClose(w, tc0, 1);
    protClose(w, tc1, 2);
    if (ok0 && ok1)
        r.inited = true;
    w.advanceSweeps(std::max(tc0.now(), tc1.now()));
}

/** Each PMO's split pair is conserved. */
void
txpairInvariant(const CrashWorld &w, std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.dom.controller();
    for (pm::PmoId p = 1; p <= 2; ++p) {
        std::uint64_t sum = ctl.persistedLoad(pm::Oid(p, 0x1000)) +
                            ctl.persistedLoad(pm::Oid(p, 0x1040));
        if (sum != 0 && sum != 2000) {
            std::ostringstream os;
            os << "txpair: recovered pair on PMO " << p
               << " sums to " << sum
               << ", expected 2000 (or 0 pre-init)";
            out.push_back(os.str());
        }
    }
}

/**
 * schedule: replay a generated fuzz schedule (persistOps on) with a
 * deliberately conservative skip policy — the goal is reaching crash
 * points from many protection states, not differential precision
 * (that is the differ's job). All bookends are explicit; RAII guards
 * are banned on this path.
 */
struct ScheduleReplay
{
    CrashWorld &w;
    Ledger &led;
    const Schedule &s;
    //! region nesting we opened, per [tid][pmo]
    std::vector<std::vector<unsigned>> depth;
    std::vector<bool> manualActive; //!< per pmo (1-based)
    /**
     * Earliest time an End may close each PMO: a lagging thread's
     * close below the latest window (re)open would rewind the
     * exposure tracker. Sweeper hooks may reopen at the hook time,
     * so every fired hook raises the floor for all PMOs.
     */
    std::vector<Cycles> endFloor;

    ScheduleReplay(CrashWorld &world, Ledger &ledger, const Schedule &sched)
        : w(world), led(ledger), s(sched),
          depth(sched.threads,
                std::vector<unsigned>(sched.pmos + 1, 0)),
          manualActive(sched.pmos + 1, false),
          endFloor(sched.pmos + 1, 0)
    {
    }

    void
    raiseFloors(Cycles t)
    {
        for (Cycles &f : endFloor)
            f = std::max(f, t);
    }

    void
    sweeps(Cycles t)
    {
        Cycles before = w.nextHook;
        w.advanceSweeps(t);
        if (w.nextHook != before)
            raiseFloors(w.nextHook - w.hookPeriod);
    }

    bool
    tryBegin(sim::ThreadContext &tc, unsigned tid, pm::PmoId pmo,
             pm::Mode mode)
    {
        if (w.cfg.basicBlocking && depth[tid][pmo] > 0)
            return false; // nested basic attach is invalid
        if (w.rt->regionBegin(tc, pmo, mode) ==
            core::GuardResult::Blocked)
            return false;
        ++depth[tid][pmo];
        endFloor[pmo] = std::max(endFloor[pmo], tc.now());
        return true;
    }

    void
    tryEnd(sim::ThreadContext &tc, unsigned tid, pm::PmoId pmo)
    {
        if (depth[tid][pmo] == 0 || tc.now() < endFloor[pmo])
            return;
        w.rt->regionEnd(tc, pmo);
        --depth[tid][pmo];
    }

    void
    run()
    {
        for (const Op &op : s.ops) {
            if (op.kind == OpKind::Sweep) {
                w.rt->onSweep(w.nextHook);
                raiseFloors(w.nextHook);
                w.nextHook += w.hookPeriod;
                continue;
            }
            sim::ThreadContext &tc = w.mach.thread(op.tid);
            sweeps(tc.now());
            if (tc.blocked())
                continue;
            step(op, tc);
        }
    }

    void
    step(const Op &op, sim::ThreadContext &tc)
    {
        switch (op.kind) {
          case OpKind::Work:
            tc.work(op.work);
            break;

          case OpKind::Begin:
            if (w.cfg.insertion == core::Insertion::Auto)
                tryBegin(tc, op.tid, op.pmo, op.mode);
            break;

          case OpKind::End:
            if (w.cfg.insertion == core::Insertion::Auto)
                tryEnd(tc, op.tid, op.pmo);
            break;

          case OpKind::ManualBegin:
            if (w.cfg.insertion == core::Insertion::Manual &&
                !manualActive[op.pmo]) {
                w.rt->manualBegin(tc, op.pmo, op.mode);
                manualActive[op.pmo] = true;
                endFloor[op.pmo] =
                    std::max(endFloor[op.pmo], tc.now());
            }
            break;

          case OpKind::ManualEnd:
            if (w.cfg.insertion == core::Insertion::Manual &&
                manualActive[op.pmo] &&
                tc.now() >= endFloor[op.pmo]) {
                w.rt->manualEnd(tc, op.pmo);
                manualActive[op.pmo] = false;
            }
            break;

          case OpKind::Access:
            (void)w.rt->tryAccess(tc, pm::Oid(op.pmo, op.offset),
                                  op.write);
            break;

          case OpKind::Range:
            for (std::uint64_t off = op.offset;
                 off < op.offset + op.bytes; off += lineSize) {
                (void)w.rt->tryAccess(tc, pm::Oid(op.pmo, off),
                                      op.write);
            }
            break;

          case OpKind::Guarded: {
            if (w.cfg.insertion != core::Insertion::Auto)
                break;
            if (!tryBegin(tc, op.tid, op.pmo, op.mode))
                break;
            for (unsigned j = 0; j < op.accesses; ++j)
                (void)w.rt->tryAccess(
                    tc, pm::Oid(op.pmo, op.offset + j * lineSize),
                    op.write);
            tryEnd(tc, op.tid, op.pmo);
            break;
          }

          case OpKind::TxPut: {
            std::vector<std::pair<pm::Oid, std::uint64_t>> writes;
            for (unsigned j = 0; j < op.accesses; ++j)
                writes.push_back(
                    {pm::Oid(op.pmo, op.offset + j * op.bytes),
                     (static_cast<std::uint64_t>(led.done) << 8) |
                         j});
            // Bookend with the region we can, but never touch the
            // data through the protection path: the protection state
            // at an arbitrary schedule point is not ours to assume.
            bool opened =
                w.cfg.insertion == core::Insertion::Auto
                    ? tryBegin(tc, op.tid, op.pmo,
                               pm::Mode::ReadWrite)
                    : false;
            if (w.cfg.basicBlocking &&
                w.cfg.insertion == core::Insertion::Auto &&
                !opened && tc.blocked())
                break; // begin blocked: the txn never starts
            pm::UndoLog *log = w.dom.findLog(op.pmo);
            armFlight(led, op.tid, /*ambiguous=*/false, writes);
            log->begin(tc);
            for (const auto &[oid, v] : writes)
                log->write(tc, oid, v);
            log->commit(tc);
            settleFlight(led, op.tid, true);
            if (opened)
                tryEnd(tc, op.tid, op.pmo);
            break;
          }

          case OpKind::CrashRecover: {
            sweeps(w.mach.maxClock());
            Cycles at = w.mach.maxClock();
            syncLive(w, at);
            w.rt->crash(at);
            (void)w.rt->recover(tc);
            for (auto &d : depth)
                std::fill(d.begin(), d.end(), 0u);
            std::fill(manualActive.begin(), manualActive.end(),
                      false);
            raiseFloors(at);
            break;
          }

          case OpKind::Sweep:
            break; // handled in run()

          case OpKind::TxBegin:
          case OpKind::TxWrite:
          case OpKind::TxCommit:
          case OpKind::TxAbort:
            // The schedule workload generates with txnOps off (its
            // transactions are the self-contained TxPut above, which
            // the crash ledger can account); manager ops only appear
            // in differ-driven schedules.
            break;
        }
    }
};

void
scheduleStep(RecoveryRun &r)
{
    ScheduleReplay(r.w, r.led, r.sched).run();
}

// ---------------------------------------------------------- driver

/** One step under the policy; false when the power failed in it. */
bool
tryStep(RecoveryRun &r, FaultPolicy &p)
{
    try {
        p.beforeStep(r);
        r.wl.step(r);
        ++r.steps;
        p.afterStep(r);
    } catch (const pm::PowerFailure &pf) {
        p.interrupted(r, pf);
        return false;
    }
    return true;
}

/**
 * Liveness: the recovered image accepts a new transaction, whose
 * window the idle sweeper must drain like recovery's.
 */
void
probe(RecoveryRun &r, std::vector<std::string> &v)
{
    CrashWorld &w = r.w;
    // Sync the probe thread past the fired hooks first so its window
    // opens after any the sweeper just closed.
    sim::ThreadContext &tc = w.mach.thread(0);
    Cycles drained = w.nextHook - w.hookPeriod;
    if (tc.now() < drained)
        tc.syncTo(drained, sim::Charge::Other);
    runTxn(w, r.led, tc, 1,
           {{pm::Oid(1, w.pmoBytes - 8), 0x900d0000ULL + r.powerCycles}});
    checkDurable(w, r.led, v);
    drainIdleWindows(w, "the probe transaction", v);
}

/** The power-fail / recover sequence and the post-recovery oracle. */
void
powerCycle(RecoveryRun &r, FaultPolicy &p)
{
    CrashWorld &w = r.w;
    // A plan armed for the execution that just died must not fire
    // inside recovery.
    pm::PersistController &ctl = w.dom.controller();
    if (ctl.faultArmed())
        ctl.disarmFault();

    Cycles at = w.mach.maxClock();
    syncLive(w, at);
    p.powerOff(r, at);
    w.rt->crash(at);
    Cycles resume = p.dark(r, at);
    syncLive(w, resume); // recovery runs after the failure
    p.recovered(r, w.rt->recover(w.mach.thread(0)));

    // This drain runs before the probe transaction: recovery's
    // mapping is idle, not a span the application may nest inside.
    std::vector<std::string> v;
    drainIdleWindows(w, "recovery", v);
    if (p.oracle) {
        checkLogsRetired(w, v);
        checkDurable(w, r.led, v);
    }
    resolveFlights(w, r.led);
    if (p.oracle) {
        r.wl.invariant(w, v);
        p.extraChecks(r, v);
        probe(r, v);
    }
    ++r.powerCycles;
    // The last cycle's audit is the final one runRecovery() makes.
    if (p.oracle && p.auditEvery &&
        r.powerCycles % p.auditEvery == 0 && p.more(r))
        auditTrace(w, v);
    p.report(r, v);
}

} // namespace

const std::vector<RecoveryWorkload> &
recoveryWorkloads()
{
    static const std::vector<RecoveryWorkload> all = {
        {"bank", 1, 1, 99, 1, unboundedSteps, bankStep, bankInvariant},
        {"hashmap", 1, 1, 7, 0, hashmapMaxSteps, hashmapStep,
         hashmapInvariant},
        {"txmix", 2, 1, 41, 0, unboundedSteps, txmixStep,
         txmixInvariant},
        {"txpair", 2, 2, 17, 0, unboundedSteps, txpairStep,
         txpairInvariant},
        {"schedule", 0, 0, 0, 0, 1, scheduleStep,
         [](const CrashWorld &, std::vector<std::string> &) {}},
    };
    return all;
}

const RecoveryWorkload &
findRecoveryWorkload(const std::string &name)
{
    for (const RecoveryWorkload &wl : recoveryWorkloads())
        if (name == wl.name)
            return wl;
    throw std::invalid_argument("unknown workload: " + name);
}

RecoveryRun::RecoveryRun(const RecoveryWorkload &workload,
                         const core::RuntimeConfig &cfg,
                         std::uint64_t rngSeed, Schedule s)
    : wl(workload), sched(std::move(s)),
      w(cfg, wl.pmos ? wl.pmos : sched.pmos,
        wl.threads ? wl.threads : sched.threads, pmoBytes, logOff),
      rng(rngSeed)
{
}

void
runRecovery(RecoveryRun &r, FaultPolicy &p)
{
    while (p.more(r)) {
        if (p.powered() && tryStep(r, p))
            continue;
        powerCycle(r, p);
    }
    r.w.rt->finalize();
    if (p.oracle && p.auditEvery) {
        std::vector<std::string> v;
        auditTrace(r.w, v);
        p.report(r, v);
    }
}

} // namespace check
} // namespace terp
