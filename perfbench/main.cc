/**
 * @file
 * nupea_perfbench: the compile / sweep / explain benchmark.
 *
 *   nupea_perfbench --workload compile|sweep|explain --seed N
 *                   --seconds S --trace 0|1 [--trace-out FILE]
 *                   [--ops-out FILE]
 *
 * Single process, single thread: it calls each library layer directly,
 * runs the placer with one chain and starts no TaskPool. Set-up is
 * repeated in timed batches and the median batch mean reported; then
 * whole rounds of the workload's basket run until the operations have
 * taken S seconds of process CPU time. Every operation's outputs are
 * checked (checks.h), and the negative controls run once at the end.
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics -- the end-to-end metrics untraced, the per-layer
 * metrics traced (README).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/perf_model.h"
#include "analysis/profile.h"
#include "baskets.h"
#include "checks.h"
#include "common/log.h"
#include "compiler/report.h"
#include "pipeline.h"
#include "spans.h"

namespace perfbench
{

using namespace nupea;

namespace
{

constexpr int kMinRounds = 3;
constexpr std::size_t kMinSetupSamples = 5;
constexpr double kSetupBatchSeconds = 0.05;
constexpr double kSetupSeconds = 3.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string opsOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "nupea_perfbench: %s\nusage: nupea_perfbench --workload "
                 "compile|sweep|explain [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--ops-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else if (flag == "--ops-out") {
            a.opsOut = value;
        } else {
            usage("unknown argument " + flag);
        }
        if (end && *end != '\0')
            usage("bad value for " + flag + ": " + value);
    }
    if (a.workload != "compile" && a.workload != "sweep" &&
        a.workload != "explain")
        usage("--workload must be compile, sweep or explain");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Everything a run accumulates besides the spans. */
struct Tally
{
    long attempted = 0;
    long failed = 0;
    bool correct = true;
    std::vector<std::string> problems; ///< first few, for stderr

    /** Per basket entry: the CPU seconds of each completed run of the
     *  operation, and of each Machine::run() it was checked with. */
    std::vector<std::vector<double>> opSamples;
    std::vector<std::vector<double>> simSamples;
    std::vector<std::uint64_t> simFirings; ///< per entry, per run
    /** (entry, seconds) of every completed operation, in order. */
    std::vector<std::pair<std::size_t, double>> opLog;

    /** Once per distinct point or compile. */
    std::vector<double> systemCycles;
    std::vector<double> placeCosts;
    std::vector<double> memLatency;
    std::vector<double> modelErrPct;
    long unsoundPoints = 0;

    /** Layer counts, split like the spans: made by operations and
     *  their checks (reported per round) or once per run. */
    bool inRound = false;
    std::map<std::string, double> roundCounts;
    std::map<std::string, double> onceCounts;

    void
    count(const char *name, double v)
    {
        (inRound ? roundCounts : onceCounts)[name] += v;
    }

    /** Record a failed output check. */
    void
    wrong(const std::string &what, const std::string &why)
    {
        if (why.empty())
            return;
        correct = false;
        if (problems.size() < 8)
            problems.push_back(what + ": " + why);
    }

    void
    sim(std::size_t i, const RunResult &r, double seconds)
    {
        simSamples[i].push_back(seconds);
        simFirings[i] = r.firings;
    }

    void
    addCompileCounts(const CompileCounts &c)
    {
        count("compiler.pnr_attempts", static_cast<double>(c.attempts));
        count("compiler.pnr_successes", static_cast<double>(c.successes));
        count("dfg.nodes_compiled", static_cast<double>(c.nodes));
        count("compiler.route_iterations",
              static_cast<double>(c.routeIterations));
        count("compiler.place_moves", static_cast<double>(c.placeMoves));
    }
};

/** A workload with its inputs laid out and host reference computed. */
struct Kernel
{
    std::unique_ptr<Workload> workload;
    BackingStore image{0};
};

Kernel
prepareKernel(const std::string &name, std::uint64_t seed, Tracer &tracer)
{
    Tracer::Scope s(tracer, "workloads.init");
    Kernel k;
    k.workload = makeWorkload(name, seed);
    BackingStore layout(MemSysConfig{}.memBytes);
    k.workload->init(layout);
    k.image = std::move(layout);
    return k;
}

PerfModelConfig
modelConfig(const MachineConfig &c)
{
    return PerfModelConfig{c.mem, c.memsys, c.energy, c.clockDivider,
                           c.maxOutstanding, c.fifoDepth};
}

ExecutionProfile
profile(const Kernel &k, const Compiled &c, Tracer &tracer, Tally &tally)
{
    Tracer::Scope s(tracer, "analysis.profile");
    ExecutionProfile p =
        profileGraph(c.graph, k.image, MemSysConfig{}.memBytes);
    tally.count("analysis.profile_firings", static_cast<double>(p.firings));
    return p;
}

PerfPrediction
predict(const Compiled &c, const Topology &topo,
        const ExecutionProfile &p, const MachineConfig &config,
        Tracer &tracer, Tally &tally)
{
    Tracer::Scope s(tracer, "analysis.predict");
    tally.count("analysis.predictions", 1);
    return predictPerformance(c.graph, c.pnr.placement, topo, p,
                              modelConfig(config));
}

/** One Machine run on `store` reset to the kernel's image. */
struct SimRun
{
    RunResult result;
    double runSeconds = 0.0; ///< inside Machine::run() only
};

SimRun
simulate(const Kernel &k, const Compiled &c, const Topology &topo,
         MachineConfig config, bool attribution, BackingStore &store,
         Tracer &tracer, Tally &tally)
{
    {
        Tracer::Scope s(tracer, "memory.store_reset");
        store.resetTo(k.image);
    }
    config.stallAttribution = attribution;
    SimRun out;
    Tracer::Scope s(tracer, attribution ? "sim.attr_run" : "sim.run");
    Machine machine(c.graph, c.pnr.placement, topo, config, store);
    double t0 = cpuSeconds();
    out.result = machine.run();
    out.runSeconds = cpuSeconds() - t0;
    tally.count("sim.firings", static_cast<double>(out.result.firings));
    tally.count("sim.fabric_cycles",
                static_cast<double>(out.result.fabricCycles));
    return out;
}

std::string
checkOutput(const Kernel &k, const BackingStore &store, Tracer &tracer)
{
    Tracer::Scope s(tracer, "workloads.check");
    return checkMemory(*k.workload, store);
}

double
meanMemLatency(const RunResult &r)
{
    auto it = r.stats.dists().find("fmnoc.latency_total");
    return it == r.stats.dists().end() ? 0.0 : it->second.mean();
}

/** Per-point aggregates, recorded once for each distinct point. */
void
recordPoint(const RunResult &r, const PerfPrediction &pred, Tally &t)
{
    auto measured = static_cast<double>(r.systemCycles);
    t.systemCycles.push_back(measured);
    t.memLatency.push_back(meanMemLatency(r));
    t.modelErrPct.push_back(
        100.0 * std::abs(pred.systemCycles - measured) / measured);
    if (unsoundBound(r.fabricCycles, pred.bounds))
        ++t.unsoundPoints;
}

/** Compile one kernel for the sweep / explain basket, checked. */
Compiled
compileChecked(const CompileRequest &req, Tracer &tracer, Tally &tally,
               const std::string &label)
{
    CompileCounts counts;
    Compiled c = compile(req, tracer, counts);
    tally.addCompileCounts(counts);
    {
        Tracer::Scope s(tracer, "verify.compiled");
        tally.wrong(label, checkCompiled(c.graph, *req.topo, c.pnr));
    }
    if (tracer.enabled()) {
        // The staged stages must reproduce the library's own call.
        Tracer off(false);
        CompileCounts unused;
        if (compileDigest(c) != compileDigest(compile(req, off, unused)))
            tally.wrong(label, "staged PnR differs from placeAndRoute");
    }
    tally.placeCosts.push_back(c.pnr.placerStats.winnerCost);
    return c;
}

/**
 * The negative controls on one point: an attribution-on run whose
 * outputs every check must accept, then broken copies each check
 * must reject.
 */
void
runControls(const Kernel &k, const Compiled &c, const Topology &topo,
            const MachineConfig &config, BackingStore &store,
            Tracer &tracer, Tally &tally)
{
    ExecutionProfile p = profile(k, c, tracer, tally);
    PerfPrediction pred = predict(c, topo, p, config, tracer, tally);
    SimRun run = simulate(k, c, topo, config, true, store, tracer, tally);
    tally.wrong("control", checkClean(run.result));
    {
        Tracer::Scope s(tracer, "compiler.report");
        validateCriticalityRanks(c.graph, run.result.nodeMemLatency);
        PerfModelReport report = validatePerfModel(
            pred.systemCycles, static_cast<double>(run.result.systemCycles),
            pred.energy.total(), run.result.energy.total());
        if (report.measuredCycles !=
            static_cast<double>(run.result.systemCycles))
            tally.wrong("control", "model report misreads measured cycles");
    }
    ControlPoint cp;
    cp.workload = k.workload.get();
    cp.graph = &c.graph;
    cp.topo = &topo;
    cp.pnr = &c.pnr;
    cp.profile = &p;
    cp.bounds = &pred.bounds;
    cp.image = &k.image;
    cp.store = &store;
    cp.attrRun = &run.result;
    for (const std::string &missed : negativeControls(cp))
        tally.wrong("negative control", missed);
}

BackingStore
makeStore(const std::vector<Kernel> &kernels)
{
    BackingStore store(MemSysConfig{}.memBytes);
    std::size_t span = 0;
    for (const Kernel &k : kernels)
        span = std::max(span, k.image.allocated());
    store.prefault(span);
    return store;
}

/** One benchmark workload: set-up, then operations by basket index. */
class Bench
{
  public:
    virtual ~Bench() = default;
    virtual void setup(Tracer &tracer, Tally &tally) = 0;
    virtual std::size_t size() const = 0;
    /** The timed operation. */
    virtual void operation(std::size_t i, Tracer &tracer,
                           Tally &tally) = 0;
    /** Untimed checks of the operation just run; `round` 0 is the
     *  first pass over the basket. */
    virtual void check(std::size_t i, int round, Tracer &tracer,
                       Tally &tally) = 0;
    virtual void controls(Tracer &tracer, Tally &tally) = 0;
    /** Printable name of basket entry `i`. */
    virtual std::string label(std::size_t i) const = 0;
};

/** One operation = one compile of compileBasket(). */
class CompileBench final : public Bench
{
  public:
    explicit CompileBench(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &tracer, Tally &) override
    {
        for (const std::string &name : workloadNames())
            kernels_.push_back(prepareKernel(name, seed_, tracer));
        items_ = compileBasket(seed_);
        digests_.assign(items_.size(), 0);
        expected_.assign(items_.size(), Expected{});
        store_.emplace(makeStore(kernels_));
    }

    std::size_t size() const override { return items_.size(); }

    void
    operation(std::size_t i, Tracer &tracer, Tally &tally) override
    {
        CompileCounts counts;
        last_ = compile(request(i), tracer, counts);
        tally.addCompileCounts(counts);
        Tracer::Scope s(tracer, "verify.compiled");
        lastError_ = checkCompiled(last_.graph, topo(i), last_.pnr);
    }

    void
    check(std::size_t i, int round, Tracer &tracer, Tally &tally) override
    {
        std::string what = label(i);
        tally.wrong(what, lastError_);
        std::uint64_t digest = compileDigest(last_);
        const Kernel &k = kernels_[items_[i].kernel];
        MachineConfig config = sweepConfigs().front().config;
        if (round == 0) {
            digests_[i] = digest;
            tally.placeCosts.push_back(last_.pnr.placerStats.winnerCost);
            if (tracer.enabled()) {
                Tracer off(false);
                CompileCounts unused;
                if (compileDigest(last_) !=
                    compileDigest(compile(request(i), off, unused)))
                    tally.wrong(what,
                                "staged PnR differs from placeAndRoute");
            }
            // Keep the interpreter's counts, not the whole profile:
            // its per-node tables would dominate the benchmark's RSS.
            ExecutionProfile p = profile(k, last_, tracer, tally);
            expected_[i].prediction =
                predict(last_, topo(i), p, config, tracer, tally);
            expected_[i].counts.clean = p.clean;
            expected_[i].counts.loads = p.loads;
            expected_[i].counts.stores = p.stores;
            expected_[i].counts.firings = p.firings;
            if (i == 0)
                control_ = last_;
        } else if (digest != digests_[i]) {
            tally.wrong(what, "placement differs between rounds");
        }

        // Run what was compiled on Monaco at the paper's clock divider
        // and check it end to end.
        const Expected &e = expected_[i];
        SimRun run = simulate(k, last_, topo(i), config, false, *store_,
                              tracer, tally);
        tally.sim(i, run.result, run.runSeconds);
        tally.wrong(what, checkClean(run.result));
        tally.wrong(what, checkOutput(k, *store_, tracer));
        tally.wrong(what, checkCounts(run.result, e.counts));
        tally.wrong(what, checkThroughputBounds(run.result.fabricCycles,
                                                e.prediction.bounds));
        if (round == 0)
            recordPoint(run.result, e.prediction, tally);
    }

    void
    controls(Tracer &tracer, Tally &tally) override
    {
        if (!control_) {
            tally.wrong("control", "the first compile did not complete");
            return;
        }
        runControls(kernels_[items_[0].kernel], *control_, topo(0),
                    sweepConfigs().front().config, *store_, tracer, tally);
    }

    std::string
    label(std::size_t i) const override
    {
        return formatMessage(kernels_[items_[i].kernel].workload->name(),
                             "/", topo(i).name(), "/",
                             placeModeName(items_[i].mode), "/pnr",
                             items_[i].pnrSeed % 1000);
    }

  private:
    const Topology &
    topo(std::size_t i) const
    {
        return compileFabrics()[items_[i].fabric];
    }

    CompileRequest
    request(std::size_t i) const
    {
        const CompileItem &item = items_[i];
        return CompileRequest{kernels_[item.kernel].workload.get(),
                              &topo(i), item.mode, item.pnrSeed};
    }

    std::uint64_t seed_;
    std::vector<Kernel> kernels_;
    std::vector<CompileItem> items_;
    /** Round-0 interpreter counts and prediction of each compile. */
    struct Expected
    {
        ExecutionProfile counts;
        PerfPrediction prediction;
    };

    std::vector<std::uint64_t> digests_;
    std::vector<Expected> expected_;
    std::optional<BackingStore> store_;
    Compiled last_;
    std::string lastError_;
    std::optional<Compiled> control_;
};

/**
 * Shared set-up of sweep and explain: every pointKernels() entry
 * compiled once for pointFabric(), checked, and profiled.
 */
class PointBench : public Bench
{
  public:
    PointBench(std::uint64_t seed, std::vector<PointItem> items)
        : seed_(seed), items_(std::move(items))
    {}

    void
    setup(Tracer &tracer, Tally &tally) override
    {
        const std::vector<std::string> &names = pointKernels();
        for (std::size_t k = 0; k < names.size(); ++k) {
            kernels_.push_back(prepareKernel(names[k], seed_, tracer));
            CompileRequest req{kernels_.back().workload.get(),
                               &pointFabric(),
                               PlaceMode::CriticalityAware,
                               mixSeed(seed_, 2000 + k)};
            compiled_.push_back(
                compileChecked(req, tracer, tally, names[k]));
        }
        store_.emplace(makeStore(kernels_));
    }

    std::size_t size() const override { return items_.size(); }

    void
    controls(Tracer &tracer, Tally &tally) override
    {
        const PointItem &item = items_.front();
        runControls(kernels_[item.kernel], compiled_[item.kernel],
                    pointFabric(), item.config.config, *store_, tracer,
                    tally);
    }

    std::string
    label(std::size_t i) const override
    {
        return pointKernels()[items_[i].kernel] + "/" +
               items_[i].config.label;
    }

  protected:
    std::uint64_t seed_;
    std::vector<PointItem> items_;
    std::vector<Kernel> kernels_;
    std::vector<Compiled> compiled_;
    std::optional<BackingStore> store_;
};

/** One operation = store reset, attribution-off run, memory check. */
class SweepBench final : public PointBench
{
  public:
    explicit SweepBench(std::uint64_t seed)
        : PointBench(seed, sweepBasket())
    {}

    void
    setup(Tracer &tracer, Tally &tally) override
    {
        PointBench::setup(tracer, tally);
        for (std::size_t k = 0; k < kernels_.size(); ++k)
            profiles_.push_back(
                profile(kernels_[k], compiled_[k], tracer, tally));
        for (const PointItem &item : items_)
            predictions_.push_back(
                predict(compiled_[item.kernel], pointFabric(),
                        profiles_[item.kernel], item.config.config,
                        tracer, tally));
    }

    void
    operation(std::size_t i, Tracer &tracer, Tally &tally) override
    {
        const PointItem &item = items_[i];
        const Kernel &k = kernels_[item.kernel];
        last_ = simulate(k, compiled_[item.kernel], pointFabric(),
                         item.config.config, false, *store_, tracer,
                         tally);
        lastError_ = checkOutput(k, *store_, tracer);
    }

    void
    check(std::size_t i, int round, Tracer &, Tally &tally) override
    {
        const PointItem &item = items_[i];
        const RunResult &r = last_.result;
        std::string what = label(i);
        tally.sim(i, r, last_.runSeconds);
        tally.wrong(what, checkClean(r));
        tally.wrong(what, lastError_);
        tally.wrong(what, checkCounts(r, profiles_[item.kernel]));
        tally.wrong(what, checkThroughputBounds(r.fabricCycles,
                                                predictions_[i].bounds));
        if (round == 0)
            recordPoint(r, predictions_[i], tally);
    }

  private:
    std::vector<ExecutionProfile> profiles_;
    std::vector<PerfPrediction> predictions_;
    SimRun last_;
    std::string lastError_;
};

/**
 * One operation = explain one point: profile, predictions over the
 * point's config grid, one attribution-on run, memory check, and the
 * criticality-rank and model-accuracy reports.
 */
class ExplainBench final : public PointBench
{
  public:
    explicit ExplainBench(std::uint64_t seed)
        : PointBench(seed, explainBasket())
    {}

    void
    setup(Tracer &tracer, Tally &tally) override
    {
        PointBench::setup(tracer, tally);
        // The attribution-off run of every point, which the
        // attribution-on run of each operation must repeat exactly.
        for (std::size_t i = 0; i < items_.size(); ++i) {
            const PointItem &item = items_[i];
            const Kernel &k = kernels_[item.kernel];
            SimRun ref = simulate(k, compiled_[item.kernel], pointFabric(),
                                  item.config.config, false, *store_,
                                  tracer, tally);
            tally.wrong(label(i), checkClean(ref.result));
            tally.wrong(label(i), checkOutput(k, *store_, tracer));
            references_.push_back(Outcome::of(ref.result));
        }
    }

    void
    operation(std::size_t i, Tracer &tracer, Tally &tally) override
    {
        const PointItem &item = items_[i];
        const Kernel &k = kernels_[item.kernel];
        const Compiled &c = compiled_[item.kernel];
        profile_ = profile(k, c, tracer, tally);
        predictions_.clear();
        for (const MachineConfig &config :
             predictionGrid(item.config.config))
            predictions_.push_back(
                predict(c, pointFabric(), profile_, config, tracer, tally));
        last_ = simulate(k, c, pointFabric(), item.config.config, true,
                         *store_, tracer, tally);
        lastError_ = checkOutput(k, *store_, tracer);
        Tracer::Scope s(tracer, "compiler.report");
        const RunResult &r = last_.result;
        ranks_ = validateCriticalityRanks(c.graph, r.nodeMemLatency);
        report_ = validatePerfModel(
            predictions_.front().systemCycles,
            static_cast<double>(r.systemCycles),
            predictions_.front().energy.total(), r.energy.total());
    }

    void
    check(std::size_t i, int round, Tracer &, Tally &tally) override
    {
        const RunResult &r = last_.result;
        const PerfPrediction &pred = predictions_.front();
        std::string what = label(i);
        tally.sim(i, r, last_.runSeconds);
        tally.wrong(what, checkClean(r));
        tally.wrong(what, lastError_);
        tally.wrong(what, checkConservation(r));
        tally.wrong(what, checkSameOutcome(Outcome::of(r), references_[i]));
        tally.wrong(what, checkCounts(r, profile_));
        tally.wrong(what, checkThroughputBounds(r.fabricCycles,
                                                pred.bounds));
        if (report_.measuredCycles != static_cast<double>(r.systemCycles))
            tally.wrong(what, "model report misreads measured cycles");
        if (round == 0)
            recordPoint(r, pred, tally);
    }

  private:
    std::vector<Outcome> references_;
    ExecutionProfile profile_;
    std::vector<PerfPrediction> predictions_;
    SimRun last_;
    std::string lastError_;
    CritRankValidation ranks_;
    PerfModelReport report_;
};

std::unique_ptr<Bench>
makeBench(const std::string &workload, std::uint64_t seed)
{
    if (workload == "compile")
        return std::make_unique<CompileBench>(seed);
    if (workload == "sweep")
        return std::make_unique<SweepBench>(seed);
    return std::make_unique<ExplainBench>(seed);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/**
 * Per-layer metrics from the traced run. A layer's seconds are its
 * self time over one set-up, the negative controls, and one round of
 * operations with their checks (those spans divided by the rounds);
 * counts are split the same way.
 */
std::vector<Metric>
layerMetrics(const Tracer &tracer, const Tally &t, int rounds)
{
    const std::vector<Span> &spans = tracer.spans();
    std::vector<int> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        root[i] = spans[i].parent < 0
                      ? static_cast<int>(i)
                      : root[static_cast<std::size_t>(spans[i].parent)];
    auto inRound = [&](const Span &s) {
        std::size_t idx = static_cast<std::size_t>(&s - spans.data());
        std::string top = spans[static_cast<std::size_t>(root[idx])].name;
        return top == "op" || top == "bench.check";
    };
    auto roundTotals = tracer.totals(inRound);
    auto onceTotals =
        tracer.totals([&](const Span &s) { return !inRound(s); });
    auto seconds = [&](const char *layer) {
        double v = 0.0;
        if (auto it = onceTotals.find(layer); it != onceTotals.end())
            v += it->second.selfSeconds;
        if (auto it = roundTotals.find(layer); it != roundTotals.end())
            v += it->second.selfSeconds / rounds;
        return v;
    };
    auto count = [&](const char *name) {
        double v = 0.0;
        if (auto it = t.onceCounts.find(name); it != t.onceCounts.end())
            v += it->second;
        if (auto it = t.roundCounts.find(name); it != t.roundCounts.end())
            v += it->second / rounds;
        return v;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    return {
        {"workloads.init_s", seconds("workloads.init"), "s"},
        {"workloads.check_s", seconds("workloads.check"), "s"},
        {"dfg.build_s", seconds("dfg.build"), "s"},
        {"dfg.nodes_compiled", count("dfg.nodes_compiled"), "count"},
        {"compiler.criticality_s", seconds("compiler.criticality"), "s"},
        {"compiler.place_s", seconds("compiler.place"), "s"},
        {"compiler.place_moves_per_s",
         ratio(count("compiler.place_moves"), seconds("compiler.place")),
         "1/s"},
        {"compiler.route_s", seconds("compiler.route"), "s"},
        {"compiler.route_iterations", count("compiler.route_iterations"),
         "count"},
        {"compiler.timing_s", seconds("compiler.timing"), "s"},
        {"compiler.pnr_attempts", count("compiler.pnr_attempts"), "count"},
        {"compiler.pnr_useful_ratio",
         ratio(count("compiler.pnr_successes"),
               count("compiler.pnr_attempts")),
         "ratio"},
        {"compiler.place_cost_geomean", geomean(t.placeCosts), "cost"},
        {"compiler.report_s", seconds("compiler.report"), "s"},
        {"verify.compiled_s", seconds("verify.compiled"), "s"},
        {"analysis.profile_s", seconds("analysis.profile"), "s"},
        {"analysis.profile_firings_per_s",
         ratio(count("analysis.profile_firings"),
               seconds("analysis.profile")),
         "1/s"},
        {"analysis.predict_s", seconds("analysis.predict"), "s"},
        {"analysis.predictions_per_s",
         ratio(count("analysis.predictions"), seconds("analysis.predict")),
         "1/s"},
        {"analysis.model_err_pct", mean(t.modelErrPct), "%"},
        {"analysis.unsound_bound_points",
         static_cast<double>(t.unsoundPoints), "count"},
        {"memory.store_reset_s", seconds("memory.store_reset"), "s"},
        {"sim.run_s", seconds("sim.run"), "s"},
        {"sim.firings", count("sim.firings"), "count"},
        {"sim.fabric_cycles", count("sim.fabric_cycles"), "count"},
        {"sim.mem_latency_mean", mean(t.memLatency), "cycles"},
        {"sim.attr_run_s", seconds("sim.attr_run"), "s"},
    };
}

/** Share of each operation's CPU time its direct layer spans cover. */
std::vector<double>
opCoverage(const Tracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    std::vector<double> child = tracer.childSeconds();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::string(spans[i].name) == "op" &&
            spans[i].end > spans[i].start)
            out.push_back(child[i] / (spans[i].end - spans[i].start));
    }
    return out;
}

int
run(const Args &args)
{
    Tracer tracer(args.trace);
    Tally tally;
    std::vector<double> setupSeconds;
    std::unique_ptr<Bench> bench;

    // Set-up is timed in batches: a batch repeats it until the
    // repetitions have taken kSetupBatchSeconds of CPU time (one
    // repetition of sweep's or explain's set-up, a few hundred of
    // compile's sub-millisecond one) and contributes their mean as one
    // sample. At least kMinSetupSamples batches and kSetupSeconds in
    // all; the median sample is reported. Tearing down the previous
    // repetition is not timed.
    double setupTotal = 0.0;
    while (setupSeconds.size() < kMinSetupSamples ||
           setupTotal < kSetupSeconds) {
        double batch = 0.0;
        int reps = 0;
        while (reps == 0 || batch < kSetupBatchSeconds) {
            bench.reset();
            tracer.clear();
            // Each repetition starts from nothing; only its failures
            // carry over, so the aggregates describe the last set-up.
            Tally fresh;
            fresh.correct = tally.correct;
            fresh.problems = std::move(tally.problems);
            tally = std::move(fresh);
            double t0 = cpuSeconds();
            {
                Tracer::Scope s(tracer, "setup");
                bench = makeBench(args.workload, args.seed);
                bench->setup(tracer, tally);
            }
            batch += cpuSeconds() - t0;
            ++reps;
        }
        setupSeconds.push_back(batch / reps);
        setupTotal += batch;
    }
    tally.opSamples.assign(bench->size(), {});
    tally.simSamples.assign(bench->size(), {});
    tally.simFirings.assign(bench->size(), 0);

    // Whole rounds of the basket until the operations have taken
    // --seconds of CPU time, and at least kMinRounds rounds so every
    // operation's median has repeats behind it.
    int rounds = 0;
    int op = 0;
    double measuredOps = 0.0;
    double start = cpuSeconds();
    while (rounds < kMinRounds || measuredOps < args.seconds) {
        for (std::size_t i = 0; i < bench->size(); ++i, ++op) {
            tracer.setOp(op);
            tally.inRound = true;
            bool ok = true;
            double t0 = cpuSeconds();
            {
                Tracer::Scope s(tracer, "op");
                try {
                    bench->operation(i, tracer, tally);
                } catch (const std::exception &e) {
                    ok = false;
                    if (tally.problems.size() < 8)
                        tally.problems.push_back(
                            formatMessage("operation ", i, " failed: ",
                                          e.what()));
                }
            }
            double t1 = cpuSeconds();
            ++tally.attempted;
            if (!ok) {
                ++tally.failed;
                continue;
            }
            tally.opSamples[i].push_back(t1 - t0);
            tally.opLog.emplace_back(i, t1 - t0);
            measuredOps += t1 - t0;
            Tracer::Scope s(tracer, "bench.check");
            bench->check(i, rounds, tracer, tally);
        }
        ++rounds;
    }
    tally.inRound = false;
    double elapsed = cpuSeconds() - start;
    tracer.setOp(-1);
    {
        Tracer::Scope s(tracer, "bench.controls");
        bench->controls(tracer, tally);
    }

    // Each basket entry is timed as the median of its repeats, which
    // a transient slowdown of the host does not move; the throughput
    // and percentiles are taken over those medians.
    std::vector<double> opMedians;
    double simSeconds = 0.0;
    double simFirings = 0.0;
    for (std::size_t i = 0; i < bench->size(); ++i) {
        if (!tally.opSamples[i].empty())
            opMedians.push_back(quantile(tally.opSamples[i], 0.5));
        if (!tally.simSamples[i].empty()) {
            simSeconds += quantile(tally.simSamples[i], 0.5);
            simFirings += static_cast<double>(tally.simFirings[i]);
        }
    }
    if (opMedians.empty()) {
        std::fprintf(stderr, "nupea_perfbench: no operation completed\n");
        for (const std::string &p : tally.problems)
            std::fprintf(stderr, "[perfbench] problem: %s\n", p.c_str());
        return 1;
    }
    std::vector<double> cover = opCoverage(tracer);
    double opsPerS = static_cast<double>(opMedians.size()) / sum(opMedians);
    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = layerMetrics(tracer, tally, rounds);
    } else {
        metrics = {
            {"setup_s", quantile(setupSeconds, 0.5), "s"},
            {"ops_per_s", opsPerS, "1/s"},
            {"op_p50_ms", 1e3 * quantile(opMedians, 0.5), "ms"},
            {"op_p90_ms", 1e3 * quantile(opMedians, 0.9), "ms"},
            {"sim_firings_per_s", simFirings / simSeconds, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_cycles_geomean", geomean(tally.systemCycles), "cycles"},
        };
    }

    if (!args.opsOut.empty()) {
        std::FILE *f = std::fopen(args.opsOut.c_str(), "w");
        if (!f)
            fatal("cannot write ", args.opsOut);
        for (const auto &[i, seconds] : tally.opLog)
            std::fprintf(f, "%s\t%.6f\n", bench->label(i).c_str(),
                         1e3 * seconds);
        std::fclose(f);
    }

    if (args.trace && !args.traceOut.empty()) {
        std::map<std::string, double> summary{
            {"rounds", rounds},
            {"attempted", static_cast<double>(tally.attempted)},
            {"traced_ops_per_s", opsPerS},
            {"op_cover_mean", mean(cover)},
            {"op_cover_min", quantile(cover, 0.0)},
            {"setup_s_median", quantile(setupSeconds, 0.5)}};
        for (const Metric &m : metrics)
            summary["layer." + m.name] = m.value;
        std::map<std::string, double> counts = tally.onceCounts;
        for (const auto &[name, v] : tally.roundCounts)
            counts["rounds." + name] = v;
        if (!tracer.writeJson(args.traceOut, counts, summary))
            std::fprintf(stderr, "cannot write %s\n",
                         args.traceOut.c_str());
    }

    std::fprintf(stderr,
                 "[perfbench] %s seed=%llu: %d rounds, %ld attempted, "
                 "%ld failed, %.3f of %.3f CPU s in operations, setup batches",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), rounds,
                 tally.attempted, tally.failed, measuredOps, elapsed);
    std::fprintf(stderr, " %zu, median %.6f s\n", setupSeconds.size(),
                 quantile(setupSeconds, 0.5));
    if (args.trace)
        std::fprintf(stderr,
                     "[perfbench] traced ops_per_s %.4f, layer spans "
                     "cover %.2f%% of operation CPU time (min %.2f%%)\n",
                     opsPerS, 100.0 * mean(cover),
                     100.0 * quantile(cover, 0.0));
    for (const std::string &p : tally.problems)
        std::fprintf(stderr, "[perfbench] problem: %s\n", p.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                tally.correct ? "true" : "false", tally.attempted,
                tally.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nupea_perfbench: %s\n", e.what());
        return 1;
    }
}
