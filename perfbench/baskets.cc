#include "baskets.h"

#include "workloads/workload.h"

namespace perfbench
{

using namespace nupea;

namespace
{

MachineConfig
paperConfig(MemModel model, int latency)
{
    MachineConfig c;
    c.mem.model = model;
    c.mem.upeaLatency = latency;
    // Monaco's clock divider is 2 for the paper's primary comparisons,
    // and the baselines get the same fabric (paper Sec. 6).
    c.clockDivider = 2;
    return c;
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 over (seed, salt): distinct salts give unrelated
    // streams for one workload seed.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const std::vector<Topology> &
compileFabrics()
{
    static const std::vector<Topology> fabrics{
        Topology::makeMonaco(12, 12), Topology::makeMonaco(16, 16)};
    return fabrics;
}

const Topology &
pointFabric()
{
    return compileFabrics().front();
}

std::vector<CompileItem>
compileBasket(std::uint64_t seed)
{
    std::vector<CompileItem> items;
    const PlaceMode modes[] = {PlaceMode::DomainUnaware,
                               PlaceMode::DomainAware,
                               PlaceMode::CriticalityAware};
    for (std::size_t f = 0; f < compileFabrics().size(); ++f) {
        for (std::size_t k = 0; k < workloadNames().size(); ++k) {
            for (PlaceMode mode : modes) {
                for (int repeat = 0; repeat < 2; ++repeat) {
                    CompileItem item;
                    item.kernel = k;
                    item.fabric = f;
                    item.mode = mode;
                    item.pnrSeed = mixSeed(seed, 1000 + items.size());
                    items.push_back(item);
                }
            }
        }
    }
    return items;
}

const std::vector<std::string> &
pointKernels()
{
    static const std::vector<std::string> kernels = [] {
        std::vector<std::string> out = workloadNames();
        // Scaled generator shapes: a multi-step stencil on a larger
        // grid, a tiled GEMM, a convolution and a reduction tree.
        for (const char *spec :
             {"gen:stencil3x3:g24x24:s2", "gen:gemm16x16x8:t4x8x4",
              "gen:conv1d32k5", "gen:reduce4x2:c3:max"})
            out.emplace_back(spec);
        return out;
    }();
    return kernels;
}

std::vector<NamedConfig>
sweepConfigs()
{
    std::vector<NamedConfig> out;
    out.push_back({"monaco", paperConfig(MemModel::Monaco, 0)});
    for (int n = 1; n <= 6; ++n)
        out.push_back({"upea" + std::to_string(n),
                       paperConfig(MemModel::Upea, n)});
    for (int n = 1; n <= 6; ++n)
        out.push_back({"numa" + std::to_string(n),
                       paperConfig(MemModel::NumaUpea, n)});
    return out;
}

std::vector<PointItem>
sweepBasket()
{
    std::vector<PointItem> items;
    std::vector<NamedConfig> configs = sweepConfigs();
    for (std::size_t k = 0; k < pointKernels().size(); ++k)
        for (const NamedConfig &c : configs)
            items.push_back({k, c});
    return items;
}

std::vector<PointItem>
explainBasket()
{
    std::vector<PointItem> items;
    const NamedConfig configs[] = {
        {"monaco", paperConfig(MemModel::Monaco, 0)},
        {"upea1", paperConfig(MemModel::Upea, 1)},
        {"upea2", paperConfig(MemModel::Upea, 2)},
        {"upea4", paperConfig(MemModel::Upea, 4)},
        {"numa2", paperConfig(MemModel::NumaUpea, 2)},
        {"numa4", paperConfig(MemModel::NumaUpea, 4)}};
    for (std::size_t k = 0; k < pointKernels().size(); ++k)
        for (const NamedConfig &c : configs)
            items.push_back({k, c});
    return items;
}

std::vector<MachineConfig>
predictionGrid(const MachineConfig &point)
{
    std::vector<MachineConfig> grid{point};
    int n = point.mem.upeaLatency;
    for (int latency : {n - 1, n + 1}) {
        if (latency < 0 || point.mem.model == MemModel::Monaco)
            continue;
        MachineConfig c = point;
        c.mem.upeaLatency = latency;
        grid.push_back(c);
    }
    for (MemModel model :
         {MemModel::Monaco, MemModel::Upea, MemModel::NumaUpea}) {
        if (model == point.mem.model)
            continue;
        MachineConfig c = point;
        c.mem.model = model;
        c.mem.upeaLatency = n > 0 ? n : 2;
        grid.push_back(c);
    }
    MachineConfig deeper = point;
    deeper.fifoDepth *= 2;
    grid.push_back(deeper);
    MachineConfig wider = point;
    wider.maxOutstanding *= 2;
    grid.push_back(wider);
    for (int divider : {1, 3}) {
        MachineConfig c = point;
        c.clockDivider = divider;
        c.mem.clockDivider = divider;
        grid.push_back(c);
    }
    return grid;
}

} // namespace perfbench
