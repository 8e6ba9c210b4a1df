/**
 * @file
 * The recovery-checking engine shared by the crash-point enumerator
 * (check/crash) and the energy-harvest harness (energy/harvest):
 *
 *   - a registry of recovery workloads — bank, hashmap, txmix,
 *     txpair, schedule — each a one-transaction step plus the
 *     invariant its recovered durable image must satisfy;
 *   - one driver loop that steps a workload under a fault-arming
 *     policy and, at every power failure, runs the one post-recovery
 *     oracle: sync threads, crash, recover, idle drain, retired
 *     logs, atomicity, then resolve the open transactions, the
 *     invariant, a probe transaction and its drain, and the trace
 *     audit at the policy's stride.
 *
 * The policy decides where the power fails and what happens while
 * the machine is dark. Crash enumeration arms boundary n and runs one
 * power cycle; the harvest harness arms the boundary its capacitor
 * runway ends at and runs thousands.
 */

#ifndef TERP_CHECK_RECOVERY_ENGINE_HH
#define TERP_CHECK_RECOVERY_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/recovery_oracle.hh"
#include "check/schedule.hh"
#include "common/rng.hh"

namespace terp {
namespace check {

struct RecoveryRun;

/** A workload whose layout never runs out of room. */
constexpr unsigned unboundedSteps = ~0u;

/** One registry entry. */
struct RecoveryWorkload
{
    const char *name;
    unsigned pmos;      //!< 0: sized by its generated schedule
    unsigned threads;   //!< 0: sized by its generated schedule
    std::uint64_t salt; //!< crash mode seeds Rng(salt + seed)
    /** Steps crash mode runs ahead of --txns (bank's init). */
    unsigned initSteps;
    /**
     * Most steps the layout holds: unboundedSteps, hashmap's heap
     * bound, or 1 for schedule, whose one step replays its whole
     * finite op list.
     */
    unsigned maxSteps;
    /** One transaction (one per thread for txpair). */
    void (*step)(RecoveryRun &);
    /** Checked on the recovered durable image. */
    void (*invariant)(const CrashWorld &, std::vector<std::string> &);
};

/** Every registered workload, in the order the tools list them. */
const std::vector<RecoveryWorkload> &recoveryWorkloads();

/** The entry named @p name; throws std::invalid_argument if none. */
const RecoveryWorkload &findRecoveryWorkload(const std::string &name);

/** One workload instance in one world: what a policy drives. */
struct RecoveryRun
{
    /** @p sched is the op list of the schedule workload only. */
    RecoveryRun(const RecoveryWorkload &workload,
                const core::RuntimeConfig &cfg, std::uint64_t rngSeed,
                Schedule sched = {});

    const RecoveryWorkload &wl;
    Schedule sched;
    CrashWorld w;
    Ledger led;
    Rng rng;
    unsigned steps = 0;       //!< steps that ran to their end
    unsigned powerCycles = 0; //!< completed fail/recover cycles
    bool inited = false;      //!< the init transaction committed
};

/**
 * Where the power fails and what the machine does while dark. Every
 * hook but more() and report() defaults to "steady power".
 */
class FaultPolicy
{
  public:
    bool oracle = true; //!< run the post-recovery invariant checks
    /**
     * Audit the trace every N power cycles and once when the run
     * ends; 0 never audits.
     */
    unsigned auditEvery = 0;

    /** Whether the run takes another step or power cycle. */
    virtual bool more(const RecoveryRun &r) const = 0;
    /** False: the power fails before the next step can start. */
    virtual bool powered() const { return true; }
    /** Inside the power-failure scope, before and after a step. */
    virtual void beforeStep(RecoveryRun &) {}
    virtual void afterStep(RecoveryRun &) {}
    /** A power failure cut the step short. */
    virtual void
    interrupted(RecoveryRun &, const pm::PowerFailure &)
    {
    }
    /** Threads are synced to the failure at @p at; crash is next. */
    virtual void powerOff(RecoveryRun &, Cycles) {}
    /** After the crash at @p at: the time execution resumes. */
    virtual Cycles dark(RecoveryRun &, Cycles at) { return at; }
    /** Recovery replayed @p logs logs. */
    virtual void recovered(RecoveryRun &, unsigned) {}
    /** Policy-only checks, after the workload invariant. */
    virtual void
    extraChecks(RecoveryRun &, std::vector<std::string> &)
    {
    }
    /** A power cycle's (or the final audit's) findings. */
    virtual void report(RecoveryRun &r,
                        std::vector<std::string> &v) = 0;

  protected:
    ~FaultPolicy() = default;
};

/**
 * Step @p r while @p p wants more, power-cycling it whenever a step
 * fails or the policy cuts the power, then finalize the runtime and
 * (auditEvery > 0) audit the whole trace. Exceptions other than the
 * modeled PowerFailure propagate.
 */
void runRecovery(RecoveryRun &r, FaultPolicy &p);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_RECOVERY_ENGINE_HH
