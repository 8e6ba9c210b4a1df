/**
 * @file
 * Tests for runtime-level crash/recovery: Runtime::crash clearing the
 * volatile protection state, Runtime::recover replaying undo logs and
 * handing the recovery mapping to the EW-conscious sweeper, the
 * regression for the sweeper ignoring idle manually-inserted PMOs,
 * and the crash-point enumeration behind tools/terp-crash over every
 * recovery-engine workload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "check/crash.hh"
#include "check/fuzzer.hh"
#include "check/recovery_engine.hh"
#include "core/runtime.hh"
#include "pm/persist.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"
#include "trace/trace_buffer.hh"

using namespace terp;

namespace {

constexpr std::uint64_t logOff = 1ULL << 32;
constexpr Cycles ewTarget = 5 * cyclesPerUs;

struct Fixture
{
    sim::Machine mach;
    pm::PmoManager pmos;
    core::RuntimeConfig cfg;
    pm::PersistDomain dom;
    std::unique_ptr<core::Runtime> rt;

    explicit Fixture(const std::string &scheme)
        : cfg(check::schemeConfig(scheme, ewTarget).withTrace())
    {
        pmos.create("crash-test", 64 * KiB);
        rt = std::make_unique<core::Runtime>(mach, pmos, cfg);
        rt->attachPersistence(&dom);
        dom.openLog(1, logOff);
        mach.spawnThread();
    }

    /** Fire the sweeper on its grid until past @p until. */
    void
    sweepUntil(Cycles until)
    {
        Cycles hook = mach.config().hookPeriod;
        for (Cycles t = hook; t <= until + hook; t += hook)
            rt->onSweep(t);
    }
};

/** Open a transaction with one logged+applied write, don't commit. */
void
openDanglingTxn(Fixture &f, sim::ThreadContext &tc)
{
    pm::UndoLog *log = f.dom.findLog(1);
    log->begin(tc);
    f.rt->access(tc, pm::Oid(1, 0x100), /*write=*/true);
    log->write(tc, pm::Oid(1, 0x100), 77);
}

} // namespace

TEST(RuntimeCrash, ClearsVolatileProtectionState)
{
    Fixture f("mm");
    sim::ThreadContext &tc = f.mach.thread(0);
    f.rt->manualBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);
    ASSERT_TRUE(f.rt->mapped(1));

    f.rt->crash(f.mach.maxClock());
    EXPECT_FALSE(f.rt->mapped(1));
    EXPECT_TRUE(f.dom.findLog(1)->recoveryPending());

    // The failure and its kernel-side unmap made it into the trace.
    auto events = f.rt->traceSink()->merged();
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [](const trace::Event &e) {
                                return e.kind == trace::EventKind::Crash;
                            }));
}

TEST(RuntimeCrash, RecoverRollsBackOnlyPendingLogs)
{
    Fixture f("tm");
    f.pmos.create("clean-neighbour", 64 * KiB);
    f.dom.openLog(2, logOff);
    sim::ThreadContext &tc = f.mach.thread(0);

    // PMO 2: a committed transaction — clean log, nothing to do.
    pm::UndoLog *clean = f.dom.findLog(2);
    f.rt->regionBegin(tc, 2, pm::Mode::ReadWrite);
    clean->begin(tc);
    f.rt->access(tc, pm::Oid(2, 0x200), /*write=*/true);
    clean->write(tc, pm::Oid(2, 0x200), 55);
    clean->commit(tc);
    f.rt->regionEnd(tc, 2);

    // PMO 1: in-flight at the failure.
    f.rt->regionBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);

    Cycles at = f.mach.maxClock();
    f.rt->crash(at);
    EXPECT_EQ(f.rt->recover(tc), 1u) << "only PMO 1 was pending";

    const pm::PersistController &ctl = f.dom.controller();
    EXPECT_EQ(ctl.persistedLoad(pm::Oid(1, 0x100)), 0u)
        << "in-flight write must be rolled back";
    EXPECT_EQ(ctl.persistedLoad(pm::Oid(2, 0x200)), 55u)
        << "committed neighbour must survive untouched";

    auto events = f.rt->traceSink()->merged();
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [](const trace::Event &e) {
                                return e.kind ==
                                           trace::EventKind::Recover &&
                                       e.pmo == 1;
                            }));
}

TEST(RuntimeCrash, SweeperDetachesIdleRecoveredPmoUnderManualInsertion)
{
    // Regression: the MERR-path sweeper used to full-detach idle
    // expired PMOs only under automatic insertion. Under manual
    // insertion the mapping crash recovery leaves behind (idle by
    // construction — the manual span died with the process) was
    // re-randomized forever instead of closed, so the recovered PMO
    // stayed exposed past every window target.
    Fixture f("mm");
    sim::ThreadContext &tc = f.mach.thread(0);
    f.rt->manualBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);

    f.rt->crash(f.mach.maxClock());
    ASSERT_EQ(f.rt->recover(tc), 1u);
    ASSERT_TRUE(f.rt->mapped(1))
        << "recovery hands the mapping to the sweeper, not unmaps";

    f.sweepUntil(tc.now() + f.cfg.ewTarget + f.mach.config().hookPeriod);
    EXPECT_FALSE(f.rt->mapped(1))
        << "idle recovered PMO must close within one window target";
}

TEST(RuntimeCrash, RecoveredImageAcceptsNewTransactions)
{
    Fixture f("tt");
    sim::ThreadContext &tc = f.mach.thread(0);
    f.rt->regionBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);

    f.rt->crash(f.mach.maxClock());
    ASSERT_EQ(f.rt->recover(tc), 1u);
    f.sweepUntil(tc.now() + f.cfg.ewTarget + f.mach.config().hookPeriod);

    pm::UndoLog *log = f.dom.findLog(1);
    f.rt->regionBegin(tc, 1, pm::Mode::ReadWrite);
    log->begin(tc);
    f.rt->access(tc, pm::Oid(1, 0x300), /*write=*/true);
    log->write(tc, pm::Oid(1, 0x300), 123);
    log->commit(tc);
    f.rt->regionEnd(tc, 1);
    EXPECT_EQ(f.dom.controller().persistedLoad(pm::Oid(1, 0x300)),
              123u);
}

// ------------------------------------------- enumeration harness

/**
 * Every registry workload in crash mode, on mm (manual insertion)
 * and on tm and tt (auto insertion): every crash point recovers
 * cleanly.
 */
class CrashEveryWorkload
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(CrashEveryWorkload, AtomicAtEveryPoint)
{
    check::CrashOptions opt;
    std::tie(opt.workload, opt.scheme) = GetParam();
    opt.txns = 4;
    // Seed 0's 24-op schedule has no persist boundary under auto
    // insertion; seed 1's has some on every scheme.
    opt.seed = opt.workload == "schedule" ? 1 : 0;
    opt.events = 24;
    check::CrashResult r = check::enumerateCrashPoints(opt);
    EXPECT_GT(r.boundaries, 0u);
    EXPECT_EQ(r.pointsRun, r.boundaries);
    for (const check::CrashViolation &v : r.violations)
        ADD_FAILURE() << "point " << v.point << ": " << v.detail;
}

std::vector<std::tuple<std::string, std::string>>
crashCells()
{
    std::vector<std::tuple<std::string, std::string>> cells;
    for (const check::RecoveryWorkload &wl : check::recoveryWorkloads())
        for (const char *scheme : {"mm", "tm", "tt"})
            cells.emplace_back(wl.name, scheme);
    return cells;
}

INSTANTIATE_TEST_SUITE_P(Registry, CrashEveryWorkload,
                         ::testing::ValuesIn(crashCells()),
                         [](const auto &info) {
                             return std::get<0>(info.param) + "_" +
                                    std::get<1>(info.param);
                         });

TEST(CrashEnumeration, VacuousScheduleCellReachesNoBoundary)
{
    // The basic scheme's seed-0 schedule never reaches a persist
    // boundary: a clean result that checked nothing, which
    // terp-crash marks as vacuous.
    check::CrashOptions opt;
    opt.scheme = "basic";
    opt.workload = "schedule";
    check::CrashResult r = check::enumerateCrashPoints(opt);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.boundaries, 0u);
    EXPECT_EQ(r.pointsRun, 0u);
}

TEST(CrashEnumeration, RejectsTxnsPastTheLayoutBound)
{
    const check::RecoveryWorkload &wl =
        check::findRecoveryWorkload("hashmap");
    check::CrashOptions opt;
    opt.workload = "hashmap";
    opt.txns = wl.maxSteps;
    EXPECT_NO_THROW(check::validateCrashOptions(opt));
    opt.txns = wl.maxSteps + 1;
    EXPECT_THROW(check::validateCrashOptions(opt),
                 std::invalid_argument);
    EXPECT_THROW(check::enumerateCrashPoints(opt),
                 std::invalid_argument);
}

TEST(CrashEnumeration, HashmapBoundFitsItsPmo)
{
    // The declared bound is real: that many inserts stay inside the
    // PMO and leave a walkable, durable map behind.
    const check::RecoveryWorkload &wl =
        check::findRecoveryWorkload("hashmap");
    check::RecoveryRun r(wl, check::schemeConfig("tt", ewTarget), 7);
    for (; r.steps < wl.maxSteps; ++r.steps)
        wl.step(r);
    std::vector<std::string> v;
    check::checkDurable(r.w, r.led, v);
    wl.invariant(r.w, v);
    for (const std::string &m : v)
        ADD_FAILURE() << m;
    EXPECT_EQ(r.led.done, wl.maxSteps);
}

TEST(CrashEnumeration, ScheduleWorkloadIsAtomicEverywhere)
{
    check::CrashOptions opt;
    opt.scheme = "tt";
    opt.workload = "schedule";
    opt.seed = 1;
    opt.events = 24;
    check::CrashResult r = check::enumerateCrashPoints(opt);
    EXPECT_EQ(r.pointsRun, r.boundaries);
    for (const check::CrashViolation &v : r.violations)
        ADD_FAILURE() << "point " << v.point << ": " << v.detail;
}

TEST(CrashEnumeration, RejectsUnknownWorkload)
{
    check::CrashOptions opt;
    opt.workload = "nonesuch";
    EXPECT_THROW(check::enumerateCrashPoints(opt),
                 std::invalid_argument);
}

TEST(CrashEnumeration, JsonSummaryRoundTrip)
{
    check::CrashOptions opt;
    opt.scheme = "tm";
    opt.workload = "bank";
    opt.txns = 1;
    check::CrashResult r = check::enumerateCrashPoints(opt);
    std::string js = check::crashResultJson(opt, r);
    EXPECT_NE(js.find("\"scheme\":\"tm\""), std::string::npos);
    EXPECT_NE(js.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(js.find("\"violations\":[]"), std::string::npos);
}

TEST(CrashEnumeration, JsonEscapesControlBytes)
{
    check::CrashOptions opt;
    check::CrashResult r;
    r.violations.push_back({3, pm::PersistBoundary::Store, "a\tb\x01"});
    std::string js = check::crashResultJson(opt, r);
    EXPECT_EQ(std::count_if(js.begin(), js.end(),
                            [](char c) {
                                return static_cast<unsigned char>(c) <
                                       0x20;
                            }),
              0);
    EXPECT_NE(js.find("\"a\\tb\\u0001\""), std::string::npos) << js;
}
