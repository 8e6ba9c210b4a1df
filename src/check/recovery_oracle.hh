/**
 * @file
 * The recovery oracle's building blocks: a simulated process
 * (machine + runtime + persistence domain), the committed-image
 * ledger, and the recovery invariants —
 *
 *   - atomicity: the durable image equals the image after exactly
 *     the transactions whose commit completed;
 *   - liveness: a probe transaction commits durably after recovery;
 *   - exposure hygiene: recovery attaches are closed by the scheme's
 *     normal idle path within the window target, no PMO stays
 *     mapped, and the trace audit balances.
 *
 * check/recovery_engine composes them into the one post-recovery
 * sequence both the crash enumerator and the harvest harness run.
 */

#ifndef TERP_CHECK_RECOVERY_ORACLE_HH
#define TERP_CHECK_RECOVERY_ORACLE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"
#include "core/runtime.hh"
#include "pm/persist.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"

namespace terp {
namespace check {

/**
 * One simulated process: machine, runtime, persistence domain. The
 * free-running sweeper is driven through advanceSweeps() on a
 * hook-period grid, exactly as the batch harnesses wire it.
 */
struct CrashWorld
{
    sim::Machine mach;
    pm::PmoManager pmos;
    core::RuntimeConfig cfg;
    pm::PersistDomain dom;
    std::unique_ptr<core::Runtime> rt;
    unsigned nPmos;
    std::uint64_t pmoBytes;
    Cycles hookPeriod;
    Cycles nextHook;

    /**
     * Optional per-tick gate consulted by advanceSweeps(): return
     * false to skip that tick (the hook grid still advances). The
     * energy harness uses this for sweeper energy budgeting — a tick
     * the backup reserve cannot afford simply doesn't fire. Unset
     * (the default), every tick fires, as the single-crash driver
     * expects. drainIdleWindows() deliberately bypasses the gate:
     * the drain is the oracle's verification instrument, not part of
     * the modeled execution.
     */
    std::function<bool(Cycles)> sweepGate;

    /**
     * Create @p pmoCount PMOs of @p pmo_bytes each (named
     * "crash-p<i>"), attach a persistence domain with an undo log at
     * @p log_off per PMO, and spawn @p threads threads.
     */
    CrashWorld(const core::RuntimeConfig &config, unsigned pmoCount,
               unsigned threads, std::uint64_t pmo_bytes,
               std::uint64_t log_off);

    /** Fire the free-running sweeper up to time @p t. */
    void advanceSweeps(Cycles t);
};

/**
 * One open transaction's expected post-recovery outcome.
 *
 * Undo transactions must recover to all-old at every crash point:
 * recovery rolls the logged old values back. Redo transactions are
 * *ambiguous* while their outermost commit is the next thing the
 * workload does: the durable commit record is written mid-commit, so
 * a crash inside commit recovers to all-old (record not yet durable)
 * or all-new (record durable, recovery rolls forward) — but never a
 * mix. An aborted transaction of either kind never reaches its
 * durable point, so it pins `ambiguous` false (all-old only).
 */
struct TxFlight
{
    bool ambiguous = false;
    std::vector<std::uint64_t> keys;              //!< raw Oids
    std::map<std::uint64_t, std::uint64_t> newv;  //!< raw -> new val
};

/**
 * The recovery oracle's committed-image ledger: what the durable
 * image must look like after the transactions whose commit returned,
 * plus the write-set of the (at most one per thread) in-flight
 * transaction. Commit durability coincides with commit() returning:
 * the last persist boundary inside commit is the fence that makes
 * the header update durable, so a crash can never land after the
 * transaction is durable but before the host-side ledger update.
 */
struct Ledger
{
    std::map<std::uint64_t, std::uint64_t> image; //!< raw Oid -> val
    std::map<unsigned, TxFlight> flight;          //!< per-tid open txn
    unsigned done = 0;                            //!< commits returned
    unsigned aborted = 0;                         //!< aborts returned
};

/**
 * One undo-log transaction, registered as @p tc's flight:
 * scheme-appropriate protection bookends around begin / write* /
 * commit. Explicit bookends only — a PowerFailure unwinding through
 * a RegionGuard destructor would lower a region end on a dead
 * machine.
 */
void runTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
            pm::PmoId pmo,
            const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes);

/**
 * The atomicity oracle: every committed transaction's effects are
 * durable, and the in-flight one (if any) left no partial effects —
 * the durable image is exactly the image after `led.done` commits.
 */
void checkDurable(CrashWorld &w, const Ledger &led,
                  std::vector<std::string> &out);

/** Register tid's open transaction with the atomicity oracle. */
void armFlight(Ledger &led, unsigned tid, bool ambiguous,
               const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes);

/** Commit returned: settle tid's flight into the committed image. */
void settleFlight(Ledger &led, unsigned tid, bool committed);

/** Scheme-appropriate protection bookends for TxManager workloads. */
void protOpen(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo);
void protClose(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo);

/**
 * Exposure hygiene: drive the idle sweeper a full window target
 * (plus delayed-detach grace) past every thread clock and report any
 * PMO still mapped. @p when labels the violation message.
 */
void drainIdleWindows(CrashWorld &w, const char *when,
                      std::vector<std::string> &out);

/**
 * Recovery must leave no durable in-flight undo record or
 * committed-but-unapplied redo record behind.
 */
void checkLogsRetired(CrashWorld &w, std::vector<std::string> &out);

/**
 * Settle the flights a crash left open: the durable image says which
 * side of the durable point each transaction landed on (run
 * checkDurable() first — it rejects a torn one).
 */
void resolveFlights(CrashWorld &w, Ledger &led);

/**
 * Audit the full trace timeline against the exposure tracker. A ring
 * that lost events to wrap cannot be audited and says so.
 */
void auditTrace(CrashWorld &w, std::vector<std::string> &out);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_RECOVERY_ORACLE_HH
