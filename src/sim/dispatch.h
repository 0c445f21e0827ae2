/**
 * @file
 * Flat per-node dispatch tables for the cycle-level Machine.
 *
 * The Machine's hot-path contract (see machine.h) requires everything
 * the scheduling loop needs about a node — opcode traits, flat port
 * bases, fanout edges with precomputed arena offsets and per-hop
 * energy, placement tile — to be resolved once, up front, into flat
 * read-only tables. Each Machine builds one table set for the point
 * it simulates; the tables depend only on (graph, placement, energy
 * params).
 *
 * Building the tables is a pure function of its inputs; nothing in a
 * DispatchTables is mutated after buildDispatchTables() returns.
 */

#ifndef NUPEA_SIM_DISPATCH_H
#define NUPEA_SIM_DISPATCH_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "compiler/placement.h"
#include "dfg/graph.h"
#include "fabric/topology.h"
#include "sim/energy.h"

namespace nupea
{

/** One input connection, flattened for the hot loop. */
struct InPort
{
    NodeId src = kInvalidId; ///< producer node; kInvalidId for imm
    Word imm = 0;
    bool isImm = false;
};

/** One fanout edge with its arena destination precomputed. */
struct OutEdge
{
    NodeId dst = kInvalidId;
    std::uint32_t dstPort = 0; ///< flat ring index in the token arena
    double hopEnergy = 0.0;    ///< data-NoC energy per token
};

/**
 * Per-node dispatch row: everything the scheduling loop needs,
 * resolved from Graph / opTraits() / Placement at construction.
 */
struct NodeLane
{
    Op op = Op::Sink;
    FuClass fu = FuClass::XData;
    bool combinational = false;
    bool isMemory = false;
    std::uint8_t numInputs = 0;
    std::uint8_t immMask = 0;   ///< bit p set: input p is immediate
    std::uint32_t portBase = 0; ///< first flat ring in the token arena
    std::uint32_t outBase = 0;  ///< first OutEdge in outEdges
    std::uint32_t outCount = 0;
    std::int32_t memIndex = -1; ///< pending-response ring; -1 if not mem
    Coord coord;                ///< placement tile
    double fireEnergy = 0.0;    ///< per-firing FU energy
    Word imm = 0;               ///< Source literal (Op::Source only)
};

/** The flat read-only tables one compiled point dispatches from. */
struct DispatchTables
{
    std::vector<NodeLane> lanes;    ///< indexed by NodeId
    std::vector<InPort> inPorts;    ///< indexed by NodeLane::portBase
    std::vector<OutEdge> outEdges;  ///< indexed by NodeLane::outBase
    std::vector<NodeId> memNodes;   ///< ascending; NodeLane::memIndex
    std::uint32_t numPorts = 0;     ///< total input rings
};

/**
 * Resolve `graph` + `placement` into dispatch tables. `energy` bakes
 * the per-firing FU cost and the per-token data-NoC hop cost into the
 * rows/edges, so a table set is valid only for runs under those
 * EnergyParams.
 */
DispatchTables buildDispatchTables(const Graph &graph,
                                   const Placement &placement,
                                   const EnergyParams &energy);

} // namespace nupea

#endif // NUPEA_SIM_DISPATCH_H
