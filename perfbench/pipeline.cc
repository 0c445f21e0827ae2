#include "pipeline.h"

#include "common/log.h"

namespace perfbench
{

using namespace nupea;

namespace
{

PnrOptions
pnrOptions(const CompileRequest &req)
{
    PnrOptions o;
    o.place.mode = req.mode;
    o.place.seed = req.pnrSeed;
    o.place.portfolio.chains = 1; // single chain, no TaskPool
    return o;
}

/** placeAndRoute, one span per stage. */
PnrResult
stagedPnr(Graph &graph, const Topology &topo, const PnrOptions &options,
          Tracer &tracer, CompileCounts &counts)
{
    PnrResult r;
    ++counts.attempts;
    counts.nodes += graph.numNodes();
    {
        Tracer::Scope s(tracer, "compiler.criticality");
        r.crit = analyzeCriticality(graph);
    }
    {
        Tracer::Scope s(tracer, "compiler.place");
        for (FuClass fu : {FuClass::Arith, FuClass::Control, FuClass::Mem,
                           FuClass::XData}) {
            if (graph.countFu(fu) > topo.totalSlots(fu)) {
                r.failureReason = "graph does not fit the fabric";
                return r;
            }
        }
        r.placement = placeGraph(graph, topo, options.place,
                                 &r.placerStats);
    }
    for (const PlacerChainStats &chain : r.placerStats.chains)
        counts.placeMoves += chain.moves;
    {
        Tracer::Scope s(tracer, "compiler.route");
        r.route = routeGraph(graph, topo, r.placement, options.route);
    }
    counts.routeIterations +=
        static_cast<std::uint64_t>(r.route.iterations);
    if (!r.route.success) {
        r.failureReason = "routing failed";
        return r;
    }
    {
        Tracer::Scope s(tracer, "compiler.timing");
        r.timing = analyzeTiming(r.route, options.timing);
    }
    r.success = true;
    ++counts.successes;
    return r;
}

Graph
buildGraph(const Workload &wl, int parallelism, Tracer &tracer)
{
    Tracer::Scope s(tracer, "dfg.build");
    return wl.build(parallelism);
}

/** The attempt at one degree, through whichever path is in use. */
PnrResult
attempt(Graph &graph, const Topology &topo, const PnrOptions &options,
        Tracer &tracer, CompileCounts &counts)
{
    if (tracer.enabled())
        return stagedPnr(graph, topo, options, tracer, counts);
    return placeAndRoute(graph, topo, options);
}

} // namespace

Compiled
compile(const CompileRequest &req, Tracer &tracer, CompileCounts &counts)
{
    const Workload &wl = *req.workload;
    PnrOptions options = pnrOptions(req);
    Compiled out;

    int preferred = wl.preferredParallelism();
    if (preferred > 0) {
        // Hand-tuned degree (paper Sec. 6); halve it while PnR fails.
        for (int p = preferred; p >= 1; p /= 2) {
            Graph g = buildGraph(wl, p, tracer);
            PnrResult pnr = attempt(g, *req.topo, options, tracer, counts);
            if (pnr.success) {
                out.graph = std::move(g);
                out.pnr = std::move(pnr);
                out.parallelism = p;
                return out;
            }
        }
        fatal(wl.name(), " does not fit ", req.topo->name(),
              " even at parallelism 1");
    }

    if (!tracer.enabled()) {
        AutoParResult r = compileWithAutoParallelism(
            [&](int p) { return wl.build(p); }, *req.topo, options);
        out.graph = std::move(r.graph);
        out.pnr = std::move(r.pnr);
        out.parallelism = r.parallelism;
        return out;
    }

    // compileWithAutoParallelism's ramp, staged: degrees 1..8 in unit
    // steps, then by 4, keeping the last success.
    for (int p = 1; p <= 64; p = p < 8 ? p + 1 : p + 4) {
        Graph g = buildGraph(wl, p, tracer);
        PnrResult pnr = stagedPnr(g, *req.topo, options, tracer, counts);
        if (!pnr.success)
            break;
        out.graph = std::move(g);
        out.pnr = std::move(pnr);
        out.parallelism = p;
    }
    if (out.parallelism == 0)
        fatal(wl.name(), " does not fit ", req.topo->name(),
              " even at parallelism 1");
    return out;
}

std::uint64_t
compileDigest(const Compiled &c)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(static_cast<std::uint64_t>(c.parallelism));
    for (const Coord &pos : c.pnr.placement.pos) {
        mix(static_cast<std::uint32_t>(pos.row));
        mix(static_cast<std::uint32_t>(pos.col));
    }
    return h;
}

} // namespace perfbench
