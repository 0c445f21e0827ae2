/**
 * @file
 * One compile: the workload's DFG at the degree the parallelism
 * policy picks, placed and routed.
 *
 * The policy is the library's: a workload with a preferred degree
 * compiles at that degree and halves it while PnR fails; the others
 * (tc, ad, ic, vww) take compileWithAutoParallelism's ramp. Untraced,
 * compile() calls placeAndRoute / compileWithAutoParallelism as a
 * user would. Traced, it calls the stages those functions compose
 * (analyzeCriticality, placeGraph, routeGraph, analyzeTiming) inside
 * one span each; the traced run checks that the two paths give the
 * same compileDigest().
 */

#ifndef NUPEA_PERFBENCH_PIPELINE_H
#define NUPEA_PERFBENCH_PIPELINE_H

#include <cstdint>

#include "compiler/pnr.h"
#include "spans.h"
#include "workloads/workload.h"

namespace perfbench
{

struct CompileRequest
{
    const nupea::Workload *workload = nullptr; ///< init() already run
    const nupea::Topology *topo = nullptr;
    nupea::PlaceMode mode = nupea::PlaceMode::CriticalityAware;
    std::uint64_t pnrSeed = 1;
};

struct Compiled
{
    nupea::Graph graph;
    nupea::PnrResult pnr;
    int parallelism = 0;
};

/** Work the staged path counted (zero on the untraced path). */
struct CompileCounts
{
    std::uint64_t attempts = 0;  ///< PnR attempts
    std::uint64_t successes = 0; ///< attempts that placed and routed
    std::uint64_t nodes = 0;     ///< graph nodes over all attempts
    std::uint64_t routeIterations = 0;
    std::uint64_t placeMoves = 0;
};

/**
 * Compile `req`; staged with spans when `tracer` is enabled. Throws
 * nupea::FatalError when no degree fits.
 */
Compiled compile(const CompileRequest &req, Tracer &tracer,
                 CompileCounts &counts);

/** FNV-1a digest of the parallelism and every node's tile. */
std::uint64_t compileDigest(const Compiled &c);

} // namespace perfbench

#endif // NUPEA_PERFBENCH_PIPELINE_H
