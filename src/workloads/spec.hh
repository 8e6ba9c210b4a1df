/**
 * @file
 * SPEC 2017 multi-PMO surrogates (Section VI of the paper): five
 * kernels — mcf, lbm, imagick, nab, xz — written in the mini-IR,
 * instrumented by the real Algorithm-1 insertion pass, and executed
 * by the IR interpreter on the simulated 4-core machine.
 *
 * Following the paper's methodology, every heap object larger than
 * 128 KB becomes its own PMO (mcf 4, lbm 2, imagick 3, nab 3, xz 6),
 * kernels have phase behaviour where only 1-2 PMOs are active at a
 * time, and MERR-style manual attach/detach bookends wrap each inner
 * chunk of work (honored only by the MM scheme).
 */

#ifndef TERP_WORKLOADS_SPEC_HH
#define TERP_WORKLOADS_SPEC_HH

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "compiler/interp.hh"
#include "compiler/ir.hh"
#include "compiler/pass.hh"
#include "core/runtime.hh"
#include "pm/pmo_manager.hh"
#include "workloads/whisper.hh" // RunResult

namespace terp {
namespace workloads {

/** A built and instrumented SPEC surrogate. */
struct SpecProgram
{
    compiler::Module module;
    std::vector<pm::PmoId> pmos;
    std::uint32_t entry = 0; //!< function(tid, n_threads)
    compiler::PassResult passResult;
    /** Pokes initial PMO content (indices, tables) into the image. */
    std::function<void(pm::MemImage &, Rng &)> setup;
};

/** The five SPEC surrogate names. */
const std::vector<std::string> &specNames();

/** PMO count of a kernel (paper Table IV: 4/2/3/3/6). */
unsigned specPmoCount(const std::string &name);

/** Run parameters. */
/**
 * The largest scale every kernel's layout holds: mcf's 1 MiB node
 * PMO fits 16384 64-byte nodes, the count scale 1 already walks.
 */
constexpr double kMaxSpecScale = 1.0;

struct SpecParams
{
    unsigned threads = 1;
    double scale = 1.0; //!< shrinks iteration counts; in (0, kMaxSpecScale]
    std::uint64_t seed = 7;
    bool runPass = true; //!< apply the insertion pass
};

/**
 * Build a kernel: creates its PMOs in @p pmos and (optionally) runs
 * the insertion pass with thresholds from @p pass_cfg.
 */
SpecProgram buildSpec(const std::string &name, pm::PmoManager &pmos,
                      const compiler::PassConfig &pass_cfg,
                      const SpecParams &params);

/** Build + run a kernel under a scheme; aggregates over all PMOs. */
RunResult runSpec(const std::string &name,
                  const core::RuntimeConfig &cfg,
                  const SpecParams &params = {});

} // namespace workloads
} // namespace terp

#endif // TERP_WORKLOADS_SPEC_HH
