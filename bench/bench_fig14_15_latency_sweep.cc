/**
 * @file
 * Reproduces Figs. 14 and 15: NUPEA (Monaco) versus a sweep of UPEA
 * SDAs with PE-access latencies from 0 (ideal) to 4 cycles,
 * normalized to Monaco — Fig. 14 with uniform memory, Fig. 15 with
 * NUMA memory (remote accesses pay the latency). The paper reports
 * near-linear degradation with UPEA delay: Monaco ~3% faster than
 * UPEA1, 28% than UPEA2, 55% than UPEA3, 82% than UPEA4; NUMA
 * recovers some of that loss (Monaco within 2% of NUMA-UPEA1, 20%
 * better than NUMA-UPEA2, 44% than NUMA-UPEA3, 68% than NUMA-UPEA4).
 *
 * Each workload is compiled once and simulated under one shared
 * Monaco reference point plus five latencies per figure. Sweep
 * points run concurrently (--jobs N / NUPEA_BENCH_JOBS); results are
 * identical for any job count.
 */

#include <cstdio>
#include <iterator>

#include "bench/sweep_runner.h"

namespace
{

using namespace nupea;
using namespace nupea::bench;

/** One latency-sweep figure: a memory model swept over latencies. */
struct LatencyFigure
{
    MemModel model;
    const char *tag;    ///< point-label infix, e.g. "dmv/upea2"
    const char *column; ///< table header prefix, e.g. "UPEA2"
    const char *title;
    const char *paper;
};

const LatencyFigure kFigures[] = {
    {MemModel::Upea, "upea", "UPEA", "Fig. 14: UPEA latency sweep",
     "UPEA1 ~1.03x, UPEA2 ~1.28x, UPEA3 ~1.55x, UPEA4 ~1.82x Monaco"},
    {MemModel::NumaUpea, "numa-upea", "NUMA",
     "Fig. 15: NUMA-UPEA latency sweep",
     "NUMA-UPEA1 ~1.02x, NUMA-UPEA2 ~1.20x, NUMA-UPEA3 ~1.44x, "
     "NUMA-UPEA4 ~1.68x Monaco"},
};

constexpr int kMaxLatency = 4;
constexpr std::size_t kLatencies = kMaxLatency + 1;
constexpr std::size_t kFigureCount = std::size(kFigures);
/** Points per workload: Monaco, then each figure's latencies. */
constexpr std::size_t kPerApp = 1 + kFigureCount * kLatencies;

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner runner(parseSweepArgs(argc, argv));
    Topology topo = Topology::makeMonaco(12, 12);

    std::vector<CompileSpec> cspecs;
    for (const auto &name : workloadNames())
        cspecs.push_back({name, topo, CompileOptions{}});
    std::vector<CompiledWorkload> compiled = compileAll(runner, cspecs);

    std::vector<RunSpec> rspecs;
    for (const CompiledWorkload &cw : compiled) {
        const std::string &app = cw.workload->name();
        rspecs.push_back(
            {&cw, primaryConfig(MemModel::Monaco, 0), app + "/monaco"});
        for (const LatencyFigure &fig : kFigures) {
            for (int n = 0; n <= kMaxLatency; ++n) {
                rspecs.push_back({&cw, primaryConfig(fig.model, n),
                                  formatMessage(app, "/", fig.tag, n)});
            }
        }
    }
    SweepResult sweep = runSweep(runner, rspecs);

    for (std::size_t f = 0; f < kFigureCount; ++f) {
        const LatencyFigure &fig = kFigures[f];
        std::printf("%s%s, execution time normalized to Monaco\n\n",
                    f ? "\n" : "", fig.title);
        std::vector<std::string> columns;
        for (int n = 0; n <= kMaxLatency; ++n)
            columns.push_back(formatMessage(fig.column, n));
        columns.push_back("Monaco");
        printRow("app", columns);

        std::vector<std::vector<double>> ratios(kLatencies);
        for (std::size_t i = 0; i < compiled.size(); ++i) {
            const std::size_t base = kPerApp * i;
            auto m = static_cast<double>(
                sweep.points[base].run.systemCycles);

            std::vector<std::string> cells;
            for (std::size_t n = 0; n < kLatencies; ++n) {
                const BenchRun &r =
                    sweep.points[base + 1 + f * kLatencies + n].run;
                double ratio = static_cast<double>(r.systemCycles) / m;
                ratios[n].push_back(ratio);
                cells.push_back(fmt(ratio));
            }
            cells.push_back(fmt(1.0));
            printRow(compiled[i].workload->name(), cells);
        }

        std::printf("\n");
        std::vector<std::string> means;
        for (const std::vector<double> &r : ratios)
            means.push_back(fmt(geomean(r)));
        means.push_back(fmt(1.0));
        printRow("geomean", means);
        std::printf("\npaper: %s\n", fig.paper);
    }
    printSweepFooter(sweep);
    return 0;
}
