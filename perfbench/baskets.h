/**
 * @file
 * What each benchmark workload runs: the fabrics, the kernels, the
 * machine configurations and the prediction grid, plus the seed
 * derivation. Everything here is a pure function of the workload seed.
 */

#ifndef NUPEA_PERFBENCH_BASKETS_H
#define NUPEA_PERFBENCH_BASKETS_H

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/placement.h"
#include "fabric/topology.h"
#include "sim/machine.h"

namespace perfbench
{

/** A machine configuration with a printable label. */
struct NamedConfig
{
    std::string label;
    nupea::MachineConfig config;
};

/** One compile of the `compile` workload. */
struct CompileItem
{
    std::size_t kernel = 0; ///< index into the paper workload list
    std::size_t fabric = 0; ///< index into compileFabrics()
    nupea::PlaceMode mode = nupea::PlaceMode::CriticalityAware;
    std::uint64_t pnrSeed = 1;
};

/** One simulated point of the `sweep` or `explain` workload. */
struct PointItem
{
    std::size_t kernel = 0; ///< index into pointKernels()
    NamedConfig config;
};

/** Deterministic per-item seed derived from the workload seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Monaco 12x12 and 16x16. */
const std::vector<nupea::Topology> &compileFabrics();

/** The fabric the sweep / explain kernels are compiled for. */
const nupea::Topology &pointFabric();

/** 13 paper workloads x 3 Fig. 12 PnR modes x 2 fabrics x 2 PnR
 *  seeds. */
std::vector<CompileItem> compileBasket(std::uint64_t seed);

/** The 13 paper workloads plus scaled generator shapes. */
const std::vector<std::string> &pointKernels();

/** Monaco, UPEA 1-6 and NUMA-UPEA 1-6 (Figs. 11, 14, 15). */
std::vector<NamedConfig> sweepConfigs();

/** Every pointKernels() entry under every sweepConfigs() entry. */
std::vector<PointItem> sweepBasket();

/** Every pointKernels() entry under Monaco, UPEA 1/2/4 and NUMA-UPEA
 *  2/4. */
std::vector<PointItem> explainBasket();

/**
 * The configurations `explain` predicts for one point: the point
 * itself first, then its neighbours (memory latency +-1, the other
 * two memory models, FIFO depth and outstanding-request cap doubled,
 * clock divider 1 and 3).
 */
std::vector<nupea::MachineConfig>
predictionGrid(const nupea::MachineConfig &point);

} // namespace perfbench

#endif // NUPEA_PERFBENCH_BASKETS_H
