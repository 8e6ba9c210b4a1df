/**
 * @file
 * Energy-harvesting regime tests: the capacitor model, the harvest
 * harness's per-cycle oracle across every protected scheme, and the
 * repeated-cycle crash/recover edges the single-crash enumerator
 * never reaches — TxManager transactions power-failed on every
 * commit boundary of a long-lived world, brown-outs during recovery,
 * double crashes without an intervening recover, and crashes that
 * land on blocked waiters.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "arch/circular_buffer.hh"
#include "check/fuzzer.hh"
#include "core/domain.hh"
#include "check/recovery_engine.hh"
#include "energy/capacitor.hh"
#include "energy/harvest.hh"
#include "pm/persist.hh"
#include "pm/tx_manager.hh"

using namespace terp;

namespace {

constexpr std::uint64_t kLogOff = 1ULL << 32;
constexpr std::uint64_t kPmoBytes = 64 * KiB;

check::CrashWorld
makeWorld(const std::string &scheme, unsigned pmos, unsigned threads)
{
    return check::CrashWorld(
        check::schemeConfig(scheme, usToCycles(5)).withTrace(1u << 22),
        pmos, threads, kPmoBytes, kLogOff);
}

/** Post-crash recovery plus the full invariants + liveness probe. */
void
recoverAndCheck(check::CrashWorld &w, check::Ledger &led,
                std::uint64_t probeTag)
{
    sim::ThreadContext &tc = w.mach.thread(0);
    w.rt->recover(tc);
    std::vector<std::string> v;
    check::checkLogsRetired(w, v);
    check::drainIdleWindows(w, "recovery", v);
    check::checkDurable(w, led, v);
    check::resolveFlights(w, led);
    Cycles drained = w.nextHook - w.hookPeriod;
    if (tc.now() < drained)
        tc.syncTo(drained, sim::Charge::Other);
    check::runTxn(w, led, tc, 1,
                  {{pm::Oid(1, kPmoBytes - 8), 0xabc00000 + probeTag}});
    check::checkDurable(w, led, v);
    check::drainIdleWindows(w, "the probe transaction", v);
    for (const std::string &m : v)
        ADD_FAILURE() << m;
}

} // namespace

// ------------------------------------------------------- capacitor

TEST(Capacitor, RunwayMatchesDrainToFailure)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 500;
    cfg.harvestPerKcycle = 2;
    cfg.drainPerKcycle = 10;
    cfg.failThresholdUnits = 100;
    energy::Capacitor cap(cfg);

    Cycles runway = cap.runway();
    ASSERT_GT(runway, Cycles(0));
    // The full runway is powered; one more cycle crosses the
    // threshold.
    EXPECT_EQ(cap.drain(runway), runway);
    EXPECT_FALSE(cap.failed());
    EXPECT_EQ(cap.runway(), Cycles(0));
    EXPECT_LT(cap.drain(1), Cycles(2));
    EXPECT_TRUE(cap.failed());
    EXPECT_LE(cap.storedUnits(), cfg.failThresholdUnits);

    Cycles off = cap.rechargeCycles();
    EXPECT_GT(off, Cycles(0));
    cap.recharge();
    EXPECT_FALSE(cap.failed());
    EXPECT_EQ(cap.storedUnits(), cfg.capacityUnits);
}

TEST(Capacitor, PoweredPrefixOnOverdrain)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 200;
    cfg.harvestPerKcycle = 0;
    cfg.harvestPerKcycle = 1;
    cfg.drainPerKcycle = 11;
    cfg.failThresholdUnits = 100;
    energy::Capacitor cap(cfg);
    Cycles runway = cap.runway();
    Cycles powered = cap.drain(runway + 5000);
    EXPECT_TRUE(cap.failed());
    EXPECT_GT(powered, runway);        // partial last step still runs
    EXPECT_LT(powered, runway + 5000); // but not the whole interval
}

TEST(Capacitor, HarvesterKeepingUpNeverFails)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 300;
    cfg.harvestPerKcycle = 10;
    cfg.drainPerKcycle = 10;
    energy::Capacitor cap(cfg);
    EXPECT_EQ(cap.runway(), ~Cycles(0));
    EXPECT_EQ(cap.drain(1000000), Cycles(1000000));
    EXPECT_FALSE(cap.failed());
}

TEST(Capacitor, PolicyThresholds)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 1000;
    cfg.harvestPerKcycle = 0;
    cfg.harvestPerKcycle = 2;
    cfg.drainPerKcycle = 12;
    cfg.failThresholdUnits = 100;
    cfg.watermarkUnits = 400;
    cfg.sweepReserveUnits = 300;
    energy::Capacitor cap(cfg);
    EXPECT_FALSE(cap.belowWatermark());
    EXPECT_FALSE(cap.belowSweepReserve());
    // Drain to just under the watermark but above the reserve.
    while (!cap.belowWatermark())
        cap.drain(1000);
    EXPECT_TRUE(cap.belowWatermark());
    EXPECT_FALSE(cap.failed());
    while (!cap.belowSweepReserve())
        cap.drain(1000);
    EXPECT_TRUE(cap.belowSweepReserve());
}

// ------------------------------------------------- harvest harness

TEST(Harvest, ThousandCycleOracleEveryScheme)
{
    // The tentpole acceptance run: 1000 consecutive power cycles per
    // scheme with the crash-enumeration invariants (atomicity ledger,
    // probe-transaction liveness, exposure hygiene) checked at every
    // cycle and the full-timeline trace audit at a stride (the audit
    // replays the whole trace, so per-cycle auditing would be
    // quadratic in run length).
    for (const std::string &scheme : check::allSchemes()) {
        energy::HarvestOptions opt;
        opt.scheme = scheme;
        opt.workload = "bank";
        opt.powerCycles = 1000;
        opt.cap.capacityUnits = 800;
        opt.auditEvery = 200;
        opt.traceCapacity = 1u << 22;
        energy::HarvestResult res = energy::runHarvest(opt);
        EXPECT_EQ(res.powerCycles, 1000u) << scheme;
        EXPECT_GT(res.committed, 0u) << scheme;
        for (const std::string &v : res.violations)
            ADD_FAILURE() << scheme << ": " << v;
    }
}

/**
 * Every workload harvest can run, on every scheme: hundreds of power
 * cycles in one world with failures landing inside transactions —
 * TxManager commit sequences (undo and redo kinds, voluntary aborts)
 * for txmix, two threads' staggered commits for txpair.
 */
class HarvestEveryWorkload
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(HarvestEveryWorkload, OracleUnderPowerFail)
{
    energy::HarvestOptions opt;
    std::tie(opt.workload, opt.scheme) = GetParam();
    opt.powerCycles = 300;
    opt.cap.capacityUnits = 700;
    opt.auditEvery = 100;
    opt.traceCapacity = 1u << 22;
    energy::HarvestResult res = energy::runHarvest(opt);
    EXPECT_EQ(res.powerCycles, 300u);
    EXPECT_GT(res.committed, 0u);
    EXPECT_GT(res.interrupted, 0u);
    for (const std::string &v : res.violations)
        ADD_FAILURE() << v;
}

std::vector<std::tuple<std::string, std::string>>
harvestCells()
{
    std::vector<std::tuple<std::string, std::string>> cells;
    for (const check::RecoveryWorkload &wl : check::recoveryWorkloads())
        if (wl.maxSteps == check::unboundedSteps)
            for (const std::string &scheme : check::allSchemes())
                cells.emplace_back(wl.name, scheme);
    return cells;
}

INSTANTIATE_TEST_SUITE_P(Registry, HarvestEveryWorkload,
                         ::testing::ValuesIn(harvestCells()),
                         [](const auto &info) {
                             return std::get<0>(info.param) + "_" +
                                    std::get<1>(info.param);
                         });

TEST(Harvest, RefusesWorkloadsThatRunOut)
{
    energy::HarvestOptions opt;
    opt.powerCycles = 1;
    for (const char *wl : {"hashmap", "schedule", "nonesuch"}) {
        opt.workload = wl;
        EXPECT_THROW(energy::runHarvest(opt), std::invalid_argument)
            << wl;
    }
}

TEST(Harvest, Deterministic)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.powerCycles = 50;
    opt.cap.capacityUnits = 600;
    energy::HarvestResult a = energy::runHarvest(opt);
    energy::HarvestResult b = energy::runHarvest(opt);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.simCycles, b.simCycles);
    EXPECT_EQ(a.offCycles, b.offCycles);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.sweepsSkipped, b.sweepsSkipped);
}

/**
 * The trace is the audit's alone: with the audit off the world has no
 * sink, and nothing else in a harvest — commits, interrupts, cycles,
 * exposure, blame — moves.
 */
TEST(Harvest, AuditOffRunsUntracedAndChangesNothingElse)
{
    for (const char *wl : {"bank", "txmix"}) {
        for (const std::string &scheme : check::allSchemes()) {
            SCOPED_TRACE(std::string(wl) + "/" + scheme);
            energy::HarvestOptions opt;
            opt.scheme = scheme;
            opt.workload = wl;
            opt.powerCycles = 60;
            opt.cap.capacityUnits = 700;
            opt.auditEvery = 25;
            energy::HarvestResult traced = energy::runHarvest(opt);
            check::RecoveryRun tracedWorld(
                check::findRecoveryWorkload(wl),
                energy::harvestConfig(opt), 0);
            EXPECT_NE(tracedWorld.w.rt->traceSink(), nullptr);

            opt.auditEvery = 0;
            energy::HarvestResult plain = energy::runHarvest(opt);
            check::RecoveryRun plainWorld(
                check::findRecoveryWorkload(wl),
                energy::harvestConfig(opt), 0);
            EXPECT_EQ(plainWorld.w.rt->traceSink(), nullptr);

            EXPECT_EQ(plain.powerCycles, traced.powerCycles);
            EXPECT_EQ(plain.committed, traced.committed);
            EXPECT_EQ(plain.interrupted, traced.interrupted);
            EXPECT_EQ(plain.aborted, traced.aborted);
            EXPECT_EQ(plain.checkpoints, traced.checkpoints);
            EXPECT_EQ(plain.sweepsRun, traced.sweepsRun);
            EXPECT_EQ(plain.sweepsSkipped, traced.sweepsSkipped);
            EXPECT_EQ(plain.recoveredLogs, traced.recoveredLogs);
            EXPECT_EQ(plain.simCycles, traced.simCycles);
            EXPECT_EQ(plain.offCycles, traced.offCycles);
            const semantics::ExposureMetrics &p = plain.exposure,
                                             &t = traced.exposure;
            EXPECT_EQ(p.ewAvgUs, t.ewAvgUs);
            EXPECT_EQ(p.ewMaxUs, t.ewMaxUs);
            EXPECT_EQ(p.er, t.er);
            EXPECT_EQ(p.tewAvgUs, t.tewAvgUs);
            EXPECT_EQ(p.tewMaxUs, t.tewMaxUs);
            EXPECT_EQ(p.ter, t.ter);
            EXPECT_EQ(p.ewCount, t.ewCount);
            EXPECT_EQ(p.tewCount, t.tewCount);
            for (unsigned c = 0; c < semantics::numBlameCauses; ++c)
                EXPECT_EQ(plain.blame[c], traced.blame[c]) << c;
        }
    }
}

TEST(Harvest, CheckpointWatermarkFires)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.powerCycles = 50;
    opt.cap.capacityUnits = 800;
    opt.cap.watermarkUnits = 700; // low-energy region is most of it
    energy::HarvestResult res = energy::runHarvest(opt);
    EXPECT_GT(res.checkpoints, 0u);
    EXPECT_TRUE(res.ok()) << res.violations.front();
}

TEST(Harvest, SweeperBudgetGatesTicks)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.powerCycles = 50;
    opt.cap.capacityUnits = 800;
    opt.cap.sweepReserveUnits = 750; // almost no budget for sweeping
    energy::HarvestResult starved = energy::runHarvest(opt);
    EXPECT_GT(starved.sweepsSkipped, 0u);
    EXPECT_TRUE(starved.ok()) << starved.violations.front();

    opt.cap.sweepReserveUnits = 0; // unlimited budget
    energy::HarvestResult fed = energy::runHarvest(opt);
    EXPECT_EQ(fed.sweepsSkipped, 0u);
    EXPECT_GT(fed.sweepsRun, 0u);
    EXPECT_TRUE(fed.ok()) << fed.violations.front();
}

// ------------------------- repeated-cycle crash/recover edge cases

/**
 * A TxManager transaction power-failed at *every* persist boundary
 * of its begin/write/commit sequence — including every boundary of
 * the commit's durable point — in one long-lived world, recovering
 * and re-checking the full oracle after each. The single-crash
 * enumerator (test_crash) rebuilds a fresh world per crash point;
 * this runs the same sweep against accumulated state.
 */
class TxPowerFail : public ::testing::TestWithParam<pm::TxKind>
{
};

TEST_P(TxPowerFail, MidCommitEveryBoundary)
{
    const pm::TxKind kind = GetParam();
    check::CrashWorld w = makeWorld("tt", 2, 1);
    pm::PersistController &ctl = w.dom.controller();
    pm::TxManager &txm = *w.rt->tx();
    sim::ThreadContext &tc = w.mach.thread(0);
    check::Ledger led;
    const pm::Oid a(1, 0x100), b(2, 0x100);
    std::uint64_t round = 0;

    auto txn = [&]() {
        std::uint64_t va = 0x1000 + round, vb = 0x2000 + round;
        std::vector<std::pair<pm::Oid, std::uint64_t>> writes = {
            {a, va}, {b, vb}};
        check::armFlight(led, 0, kind == pm::TxKind::Redo, writes);
        check::protOpen(w, tc, 1);
        check::protOpen(w, tc, 2);
        ASSERT_TRUE(txm.begin(tc, 0, {1, 2}, kind));
        w.rt->access(tc, a, /*write=*/true);
        txm.write(tc, 0, a, va);
        w.rt->access(tc, b, /*write=*/true);
        txm.write(tc, 0, b, vb);
        bool ok = txm.commit(tc, 0);
        check::protClose(w, tc, 2);
        check::protClose(w, tc, 1);
        check::settleFlight(led, 0, ok);
        EXPECT_TRUE(ok);
        w.advanceSweeps(tc.now());
    };

    // Baseline: one uninterrupted transaction counts the boundaries.
    std::uint64_t b0 = ctl.boundaryCount();
    txn();
    if (HasFatalFailure())
        return;
    const std::uint64_t boundaries = ctl.boundaryCount() - b0;
    ASSERT_GT(boundaries, 0u);

    for (std::uint64_t nth = 1; nth <= boundaries; ++nth) {
        ++round;
        ctl.armFault(ctl.boundaryCount() + nth);
        bool failed = false;
        try {
            txn();
        } catch (const pm::PowerFailure &) {
            failed = true;
            w.rt->crash(w.mach.maxClock());
            recoverAndCheck(w, led, round);
        }
        if (HasFatalFailure())
            return;
        if (!failed) {
            // The boundary landed past this round's transaction
            // (possible when recovery shifted the count); a plan must
            // never be left armed for a later, unrelated operation.
            if (ctl.faultArmed())
                ctl.disarmFault();
        }
        ASSERT_FALSE(ctl.faultArmed()) << "nth=" << nth;
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, TxPowerFail,
                         ::testing::Values(pm::TxKind::Undo,
                                           pm::TxKind::Redo),
                         [](const auto &info) {
                             return std::string(
                                 pm::txKindName(info.param));
                         });

TEST(RepeatedCycles, DoubleCrashWithoutRecoverIsWellDefined)
{
    // A capacitor brown-out during the off/recovery window means
    // crash() can run again before recover() ever did. Defined
    // behavior: the second crash is a no-op on the already-volatile
    // state (nothing mapped, no open windows, no open transactions),
    // and recovery afterwards behaves exactly as after one crash.
    check::CrashWorld w = makeWorld("tt", 2, 1);
    pm::PersistController &ctl = w.dom.controller();
    sim::ThreadContext &tc = w.mach.thread(0);
    check::Ledger led;

    // Leave an undo transaction durably in flight.
    check::runTxn(w, led, tc, 1, {{pm::Oid(1, 0x40), 0x11}});
    ctl.armFault(ctl.boundaryCount() + 6);
    try {
        check::runTxn(w, led, tc, 1, {{pm::Oid(1, 0x40), 0x22},
                                      {pm::Oid(1, 0x80), 0x33}});
        FAIL() << "armed fault never fired";
    } catch (const pm::PowerFailure &) {
    }

    Cycles at = w.mach.maxClock();
    w.rt->crash(at);
    w.rt->crash(at);      // brown-out: again, same instant
    w.rt->crash(at + 64); // and later, still without recovery
    EXPECT_FALSE(w.rt->mapped(1));
    EXPECT_FALSE(w.rt->mapped(2));
    EXPECT_FALSE(w.rt->tx()->anyActive());

    recoverAndCheck(w, led, 0xdc);
}

TEST(RepeatedCycles, BrownOutDuringRecovery)
{
    // Power fails again while recovery is mid-rollback: the partially
    // recovered world crashes and the next recovery attempt must
    // complete the rollback (the undo walk is idempotent).
    check::CrashWorld w = makeWorld("tt", 2, 1);
    pm::PersistController &ctl = w.dom.controller();
    sim::ThreadContext &tc = w.mach.thread(0);
    check::Ledger led;

    check::runTxn(w, led, tc, 1, {{pm::Oid(1, 0x40), 0x51}});

    // Walk the fault point forward until the crash lands with the
    // undo header durably published — i.e. recovery has real
    // rollback work to brown-out in the middle of.
    bool pending = false;
    for (std::uint64_t nth = 1; nth <= 64 && !pending; ++nth) {
        ctl.armFault(ctl.boundaryCount() + nth);
            try {
            check::runTxn(w, led, tc, 1,
                          {{pm::Oid(1, 0x40), 0x5200 + nth},
                           {pm::Oid(1, 0x80), 0x5300 + nth}});
            if (ctl.faultArmed())
                ctl.disarmFault();
        } catch (const pm::PowerFailure &) {
            w.rt->crash(w.mach.maxClock());
            pending = w.dom.findLog(1)->recoveryPending();
            if (!pending)
                recoverAndCheck(w, led, 0xb00 + nth);
        }
        if (HasFatalFailure())
            return;
    }
    ASSERT_TRUE(pending);

    // Fail at the first persist boundary inside the recovery pass.
    ctl.armFault(ctl.boundaryCount() + 1);
    bool interrupted = false;
    try {
        w.rt->recover(tc);
    } catch (const pm::PowerFailure &) {
        interrupted = true;
        w.rt->crash(w.mach.maxClock());
    }
    EXPECT_TRUE(interrupted);

    recoverAndCheck(w, led, 0xb0);
}

TEST(RepeatedCycles, RecoverMorePendingLogsThanCbEntries)
{
    // A power failure can strand more in-flight transactions than
    // the 32-entry circular buffer holds (one undo log per PMO).
    // Recovery replays them in one burst with no sweep ticks in
    // between, so every replayed PMO is still delayed-resident when
    // the next one attaches; the replay that found the buffer full
    // used to panic ("circular buffer full"). Recovery must instead
    // resolve a delayed-detach victim, exactly as the sweep would.
    const unsigned kPmos = arch::CircularBuffer::capacity + 8;
    check::CrashWorld w = makeWorld("tt", kPmos, 1);
    pm::PersistController &ctl = w.dom.controller();
    sim::ThreadContext &tc = w.mach.thread(0);

    for (pm::PmoId p = 1; p <= kPmos; ++p) {
        pm::UndoLog *log = w.dom.findLog(p);
        ASSERT_NE(log, nullptr);
        log->begin(tc);
        log->write(tc, pm::Oid(p, 0x40), 0x7000 + p);
    }
    w.rt->crash(w.mach.maxClock());
    for (pm::PmoId p = 1; p <= kPmos; ++p)
        ASSERT_TRUE(w.dom.findLog(p)->recoveryPending()) << p;

    unsigned recovered = 0;
    EXPECT_NO_THROW(recovered = w.rt->recover(tc));
    EXPECT_EQ(recovered, kPmos);

    std::vector<std::string> v;
    check::checkLogsRetired(w, v);
    check::drainIdleWindows(w, "mass recovery", v);
    for (const std::string &m : v)
        ADD_FAILURE() << m;
    // Every stranded transaction rolled back: the writes never
    // became durable.
    for (pm::PmoId p = 1; p <= kPmos; ++p)
        EXPECT_EQ(ctl.persistedLoad(pm::Oid(p, 0x40)), 0u) << p;
}

TEST(RepeatedCycles, UndoAndRedoPendingOnSamePmo)
{
    // Independent undo and redo transactions against one PMO can
    // both be durably in flight at the same power failure. Recovery
    // walks undo logs first, then redo logs; the undo replay leaves
    // the PMO mapped (its recovery window closes through the normal
    // delayed-detach path), and the redo replay used to re-attach it
    // unconditionally — a double process-open of the same exposure
    // window. The second replay must reuse the already-open window.
    for (const char *scheme : {"tt", "tm"}) {
        SCOPED_TRACE(scheme);
        check::CrashWorld w = makeWorld(scheme, 1, 1);
        pm::PersistController &ctl = w.dom.controller();
        sim::ThreadContext &tc = w.mach.thread(0);
        pm::RedoLog &redo = w.dom.openRedoLog(1, 1ULL << 33);
        std::uint64_t expect80 = 0;

        // Walk a fault point across the redo commit until the crash
        // lands past its durable point while the (uncommitted) undo
        // transaction is also pending.
        bool both = false;
        std::uint64_t nth = 0;
        while (!both && ++nth <= 64) {
            pm::UndoLog *undo = w.dom.findLog(1);
            undo->begin(tc);
            undo->write(tc, pm::Oid(1, 0x40), 0x9100 + nth);
            ctl.armFault(ctl.boundaryCount() + nth);
            bool failed = false;
            try {
                redo.begin(tc);
                redo.write(tc, pm::Oid(1, 0x80), 0x9200 + nth);
                redo.commit(tc);
                expect80 = 0x9200 + nth;
                if (ctl.faultArmed())
                    ctl.disarmFault();
            } catch (const pm::PowerFailure &) {
                failed = true;
            }
            w.rt->crash(w.mach.maxClock());
            bool undoPending = w.dom.findLog(1)->recoveryPending();
            bool redoPending = redo.recoveryPending();
            EXPECT_EQ(undoPending, failed) << "nth=" << nth;
            if (redoPending)
                expect80 = 0x9200 + nth;
            both = undoPending && redoPending;
            if (!both) {
                w.rt->recover(tc);
                std::vector<std::string> v;
                check::checkLogsRetired(w, v);
                check::drainIdleWindows(w, "the scan cycle", v);
                for (const std::string &m : v)
                    ADD_FAILURE() << m << " (nth=" << nth << ")";
            }
        }
        ASSERT_TRUE(both) << "no boundary left both logs pending";

        EXPECT_NO_THROW(w.rt->recover(tc));
        // Undo rolled back, redo rolled forward — on one window.
        EXPECT_EQ(ctl.persistedLoad(pm::Oid(1, 0x40)), 0u);
        EXPECT_EQ(ctl.persistedLoad(pm::Oid(1, 0x80)), expect80);
        std::vector<std::string> v;
        check::checkLogsRetired(w, v);
        check::drainIdleWindows(w, "dual-log recovery", v);
        for (const std::string &m : v)
            ADD_FAILURE() << m;
    }
}

TEST(DomainCycles, ShardDomainPowerCyclesRealignSweepCursor)
{
    // Power cycling through the shard-domain layer: crash() drops
    // the volatile stack, recover(resumeAt) replays pending logs and
    // skips the sweep cursor over the outage — the sweep timer is
    // hardware and the hardware was off, so dark-period boundaries
    // must not fire as a catch-up burst at power-on.
    const Cycles ewTarget = usToCycles(5);
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::tt(ewTarget);
    dc.machine.cores = 1;
    dc.persistence = true;
    core::ShardDomain dom(dc);
    pm::Pmo &p = dom.pmos().create("cycled", 64 * KiB);
    dom.machine().spawnThread();
    sim::ThreadContext &tc = dom.machine().thread(0);
    pm::UndoLog &log = dom.persistence()->openLog(p.id(), kLogOff);
    const pm::PersistController &ctl =
        dom.persistence()->controller();
    const Cycles period = dc.machine.hookPeriod;
    const Cycles dark = 400 * period;
    const pm::Oid key(p.id(), 0x40);
    std::uint64_t committed = 0;

    for (std::uint64_t cycle = 1; cycle <= 200; ++cycle) {
        ASSERT_EQ(dom.runtime().regionBegin(tc, p.id(),
                                            pm::Mode::ReadWrite),
                  core::GuardResult::Ok);
        log.begin(tc);
        log.write(tc, key, cycle);
        if (cycle % 2 == 0) {
            log.commit(tc);
            committed = cycle;
            dom.runtime().regionEnd(tc, p.id());
        }
        dom.sweepTo(tc.now());

        // Power fails — mid-transaction on odd cycles.
        const Cycles at = dom.machine().maxClock();
        dom.crash(at);
        EXPECT_FALSE(dom.runtime().mapped(p.id()));

        const Cycles resume = at + dark;
        const unsigned n = dom.recover(tc, resume);
        EXPECT_EQ(n, cycle % 2 == 0 ? 0u : 1u) << cycle;
        // In-flight rolled back, committed kept.
        EXPECT_EQ(ctl.persistedLoad(key), committed) << cycle;
        // The cursor realigned to the first boundary after the
        // outage, not to a dark-period catch-up backlog.
        EXPECT_EQ(dom.nextSweepTick(), (resume / period + 1) * period)
            << cycle;

        // The scheme's normal idle path closes the recovery window.
        dom.sweepTo(resume + ewTarget + 16 * period);
        EXPECT_FALSE(dom.runtime().mapped(p.id())) << cycle;
    }
    dom.finalize();
}

TEST(RepeatedCycles, CrashWakesBlockedWaiter)
{
    // Basic semantics: thread 1 blocks on thread 0's exclusive
    // attach; the power failure dissolves the process the waiter was
    // waiting on, so the waiter must be woken and its retry must
    // succeed against the post-recovery world.
    check::CrashWorld w = makeWorld("basic", 1, 2);
    sim::ThreadContext &t0 = w.mach.thread(0);
    sim::ThreadContext &t1 = w.mach.thread(1);

    ASSERT_EQ(w.rt->regionBegin(t0, 1, pm::Mode::ReadWrite),
              core::GuardResult::Ok);
    ASSERT_EQ(w.rt->regionBegin(t1, 1, pm::Mode::ReadWrite),
              core::GuardResult::Blocked);
    ASSERT_TRUE(t1.blocked());

    w.rt->crash(w.mach.maxClock());
    EXPECT_FALSE(t1.blocked());
    EXPECT_FALSE(w.rt->mapped(1));
    w.rt->recover(t0);

    // Both threads can enter again post-recovery.
    ASSERT_EQ(w.rt->regionBegin(t1, 1, pm::Mode::ReadWrite),
              core::GuardResult::Ok);
    w.rt->regionEnd(t1, 1);
    std::vector<std::string> v;
    check::drainIdleWindows(w, "the retried region", v);
    for (const std::string &m : v)
        ADD_FAILURE() << m;
}

TEST(Harvest, DarkPeriodsBlameEnergyNotTheSweeper)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.workload = "bank";
    opt.powerCycles = 12;
    opt.cap.capacityUnits = 600; // tight: gates sweeper ticks
    energy::HarvestResult res = energy::runHarvest(opt);
    ASSERT_TRUE(res.ok()) << res.violations.front();
    ASSERT_GT(res.sweepsSkipped, 0u);

    // Spans the gated-off sweeper could not close are EnergyDark;
    // recovery-reopened windows carry their own cause. Both must
    // show up across 12 power cycles with a starved capacitor.
    using semantics::BlameCause;
    auto total = [&](BlameCause c) {
        return res.blame[static_cast<unsigned>(c)];
    };
    EXPECT_GT(total(BlameCause::EnergyDark), 0u);
    EXPECT_GT(total(BlameCause::RecoveryReopen), 0u);

    // And the tiling invariant holds end-to-end: all causes sum to
    // the tracker's total EW cycles (count * avg, exactly —
    // metricsAll averages per PMO, so recompute from the summaries
    // is not available here; compare against ER * time instead is
    // lossy. The per-window assert already enforces exactness; here
    // just sanity-check blame is the dominant share of exposure).
    Cycles sum = 0;
    for (unsigned c = 0; c < semantics::numBlameCauses; ++c)
        sum += res.blame[c];
    EXPECT_GT(sum, 0u);
}
