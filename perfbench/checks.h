/**
 * @file
 * Output checks applied to every operation, and the negative controls
 * that show each check can fail.
 *
 * A check returns an empty string when the output is right and a
 * one-line reason otherwise. None of them compares against recorded
 * output: memory is checked against the workload's host reference,
 * Machine counts against the interpreter profile of the same image,
 * cycles against the static model's throughput bounds, and the
 * attribution-on run against the attribution-off run of the point.
 */

#ifndef NUPEA_PERFBENCH_CHECKS_H
#define NUPEA_PERFBENCH_CHECKS_H

#include <string>
#include <vector>

#include "analysis/perf_model.h"
#include "analysis/profile.h"
#include "compiler/pnr.h"
#include "dfg/opcode.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace perfbench
{

/** The results of one Machine run that a second run must repeat. */
struct Outcome
{
    nupea::Cycle fabricCycles = 0;
    nupea::Cycle systemCycles = 0;
    std::uint64_t firings = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    nupea::EnergyBreakdown energy;

    static Outcome of(const nupea::RunResult &r);
};

/** verifyCompiled() reports no error and placementLegal() holds. */
std::string checkCompiled(const nupea::Graph &graph,
                          const nupea::Topology &topo,
                          const nupea::PnrResult &pnr);

/** The run quiesced (`finished`) and left nothing behind (`clean`). */
std::string checkClean(const nupea::RunResult &run);

/** Simulated memory equals the workload's host reference. */
std::string checkMemory(const nupea::Workload &workload,
                        const nupea::BackingStore &store);

/** Machine loads, stores and firings equal the interpreter's. */
std::string checkCounts(const nupea::RunResult &run,
                        const nupea::ExecutionProfile &profile);

/** Fabric cycles are at least each of the four throughput bounds. */
std::string checkThroughputBounds(nupea::Cycle fabricCycles,
                                  const nupea::PerfBounds &bounds);

/** Every node's stall counters sum to the run's fabric cycles. */
std::string checkConservation(const nupea::RunResult &run);

/** Cycles, counts and energy equal those of the reference run. */
std::string checkSameOutcome(const Outcome &run, const Outcome &reference);

/** An evaluator of binary opcodes, shaped like nupea::evalBinary. */
using BinaryEval = nupea::Word (*)(nupea::Op, nupea::Word, nupea::Word);

/**
 * `eval` agrees with plain 64-bit C++ arithmetic, wrapped to 32 bits,
 * on Add, Mul, Div, Rem, Min and Max over edge and mixed operands. The
 * generator kernels compute their host references through evalBinary,
 * the evaluator the interpreter and the Machine share; this check keeps
 * those references independent of it.
 */
std::string checkEvaluator(BinaryEval eval);

/**
 * True when a bound the model labels a lower bound (recurrence or
 * loop backpressure) exceeds the measured fabric cycles. A known
 * fault of the model: counted, never treated as a failed check.
 */
bool unsoundBound(nupea::Cycle fabricCycles,
                  const nupea::PerfBounds &bounds);

/** Everything the negative controls perturb, from one checked point. */
struct ControlPoint
{
    const nupea::Workload *workload = nullptr;
    const nupea::Graph *graph = nullptr;
    const nupea::Topology *topo = nullptr;
    const nupea::PnrResult *pnr = nullptr;
    const nupea::ExecutionProfile *profile = nullptr;
    const nupea::PerfBounds *bounds = nullptr;
    const nupea::BackingStore *image = nullptr;
    nupea::BackingStore *store = nullptr; ///< memory after `attrRun`
    const nupea::RunResult *attrRun = nullptr; ///< attribution on
};

/**
 * Break the outputs of one passing point in each way a check must
 * notice (a flipped output word, a throughput bound above the
 * measured cycles, a broken conservation identity, a miscounted
 * firing, a changed energy, an over-full tile, a wrong opcode
 * evaluator) and return one line per control that the checks let
 * through. `store` is restored.
 */
std::vector<std::string> negativeControls(const ControlPoint &point);

} // namespace perfbench

#endif // NUPEA_PERFBENCH_CHECKS_H
