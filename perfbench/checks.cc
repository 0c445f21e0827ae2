#include "checks.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/log.h"
#include "verify/verify.h"

namespace perfbench
{

using namespace nupea;

Outcome
Outcome::of(const RunResult &r)
{
    Outcome o;
    o.fabricCycles = r.fabricCycles;
    o.systemCycles = r.systemCycles;
    o.firings = r.firings;
    o.loads = r.loads;
    o.stores = r.stores;
    o.energy = r.energy;
    return o;
}

std::string
checkCompiled(const Graph &graph, const Topology &topo,
              const PnrResult &pnr)
{
    if (!pnr.success)
        return "PnR did not succeed: " + pnr.failureReason;
    std::string why;
    if (!placementLegal(graph, topo, pnr.placement, &why))
        return "illegal placement: " + why;
    DiagnosticReport report = verifyCompiled(graph, topo, pnr);
    if (report.hasErrors())
        return formatMessage("verifyCompiled: ", report.errorCount(),
                             " errors: ", report.renderText());
    return {};
}

std::string
checkClean(const RunResult &run)
{
    if (!run.finished)
        return "watchdog expired";
    if (!run.clean)
        return "unclean termination: " + run.problem;
    return {};
}

std::string
checkMemory(const Workload &workload, const BackingStore &store)
{
    std::string why;
    if (!workload.verify(store, &why))
        return "memory differs from the host reference: " + why;
    return {};
}

std::string
checkCounts(const RunResult &run, const ExecutionProfile &profile)
{
    if (!profile.clean)
        return "interpreter profile did not quiesce";
    if (run.loads != profile.loads || run.stores != profile.stores ||
        run.firings != profile.firings)
        return formatMessage("Machine loads/stores/firings ", run.loads,
                             "/", run.stores, "/", run.firings,
                             " != interpreter ", profile.loads, "/",
                             profile.stores, "/", profile.firings);
    return {};
}

std::string
checkThroughputBounds(Cycle fabricCycles, const PerfBounds &bounds)
{
    const struct
    {
        double value;
        const char *name;
    } named[] = {{bounds.nodeThroughput, "node"},
                 {bounds.memThroughput, "mem"},
                 {bounds.portThroughput, "port"},
                 {bounds.bankThroughput, "bank"}};
    for (const auto &b : named) {
        if (b.value > static_cast<double>(fabricCycles))
            return formatMessage(b.name, " throughput bound ", b.value,
                                 " exceeds measured fabric cycles ",
                                 fabricCycles);
    }
    return {};
}

std::string
checkConservation(const RunResult &run)
{
    if (run.nodeStalls.empty())
        return "run carries no stall attribution";
    for (std::size_t id = 0; id < run.nodeStalls.size(); ++id) {
        std::uint64_t sum = run.nodeStalls[id].total();
        if (sum != run.fabricCycles)
            return formatMessage("node ", id, " stall cycles sum to ",
                                 sum, ", fabric cycles ",
                                 run.fabricCycles);
    }
    return {};
}

std::string
checkSameOutcome(const Outcome &run, const Outcome &ref)
{
    if (run.fabricCycles != ref.fabricCycles ||
        run.systemCycles != ref.systemCycles ||
        run.firings != ref.firings || run.loads != ref.loads ||
        run.stores != ref.stores)
        return formatMessage("cycles/firings ", run.fabricCycles, "/",
                             run.systemCycles, "/", run.firings,
                             " != reference ", ref.fabricCycles, "/",
                             ref.systemCycles, "/", ref.firings);
    if (run.energy.compute != ref.energy.compute ||
        run.energy.network != ref.energy.network ||
        run.energy.memory != ref.energy.memory)
        return formatMessage("energy ", run.energy.total(),
                             " != reference ", ref.energy.total());
    return {};
}

bool
unsoundBound(Cycle fabricCycles, const PerfBounds &bounds)
{
    auto measured = static_cast<double>(fabricCycles);
    return bounds.recurrence > measured ||
           bounds.loopBackpressure > measured;
}

namespace
{

/** First word the run changed, or `limit` when it changed none. */
Addr
firstWrittenWord(const BackingStore &store, const BackingStore &image)
{
    std::size_t limit = store.dirtyBytes();
    for (std::size_t a = 0; a + 4 <= limit; a += 4) {
        auto addr = static_cast<Addr>(a);
        Word before = a + 4 <= image.allocated() ? image.loadWord(addr) : 0;
        if (store.loadWord(addr) != before)
            return addr;
    }
    return static_cast<Addr>(limit);
}

/** Two's-complement wrap of an exact 64-bit result to 32 bits. */
Word
wrap32(std::int64_t v)
{
    std::int64_t low = v & 0xffffffffLL;
    return static_cast<Word>(low >= 0x80000000LL ? low - 0x100000000LL
                                                 : low);
}

/** Evaluator that miscomputes one product, for the negative control. */
Word
brokenEval(Op op, Word a, Word b)
{
    Word v = evalBinary(op, a, b);
    return op == Op::Mul && a == 3 && b == 7 ? v + 1 : v;
}

} // namespace

std::string
checkEvaluator(BinaryEval eval)
{
    const Word lo = std::numeric_limits<Word>::min();
    const Word hi = std::numeric_limits<Word>::max();
    const std::vector<Word> operands = {0,  1,   -1,   2,     3,
                                        7,  -5,  16,   24,    100,
                                        -977, 46341, 65536, lo, hi};
    for (Word a : operands) {
        for (Word b : operands) {
            const std::int64_t x = a, y = b;
            std::vector<std::pair<Op, Word>> cases = {
                {Op::Add, wrap32(x + y)},
                {Op::Mul, wrap32(x * y)},
                {Op::Min, std::min(a, b)},
                {Op::Max, std::max(a, b)},
            };
            // Division by zero yields 0. INT_MIN / -1 overflows and is
            // left out: no generator reference divides by a negative.
            if (!(a == lo && b == -1)) {
                cases.push_back({Op::Div, y == 0 ? 0 : wrap32(x / y)});
                cases.push_back(
                    {Op::Rem, y == 0 ? 0 : wrap32(x - (x / y) * y)});
            }
            for (const auto &[op, want] : cases) {
                if (eval(op, a, b) != want)
                    return formatMessage("evaluator: ", opName(op), "(", a,
                                         ", ", b, ") = ", eval(op, a, b),
                                         ", want ", want);
            }
        }
    }
    return "";
}

std::vector<std::string>
negativeControls(const ControlPoint &p)
{
    std::vector<std::string> missed;
    const RunResult &run = *p.attrRun;
    auto expect = [&](bool rejected, const char *what) {
        if (!rejected)
            missed.push_back(what);
    };

    // The unperturbed point must pass, or a rejection proves nothing.
    Outcome same = Outcome::of(run);
    if (!checkMemory(*p.workload, *p.store).empty() ||
        !checkCounts(run, *p.profile).empty() ||
        !checkThroughputBounds(run.fabricCycles, *p.bounds).empty() ||
        !checkConservation(run).empty() ||
        !checkSameOutcome(same, same).empty() ||
        !checkCompiled(*p.graph, *p.topo, *p.pnr).empty() ||
        !checkEvaluator(evalBinary).empty()) {
        missed.push_back("control point does not pass its own checks");
        return missed;
    }

    Addr addr = firstWrittenWord(*p.store, *p.image);
    if (addr + 4 > p.store->dirtyBytes()) {
        missed.push_back("control point wrote no output word");
    } else {
        Word saved = p.store->loadWord(addr);
        p.store->storeWord(addr, saved ^ 1);
        expect(!checkMemory(*p.workload, *p.store).empty(),
               "flipped output word accepted");
        p.store->storeWord(addr, saved);
    }

    double PerfBounds::*const throughput[] = {
        &PerfBounds::nodeThroughput, &PerfBounds::memThroughput,
        &PerfBounds::portThroughput, &PerfBounds::bankThroughput};
    for (double PerfBounds::*b : throughput) {
        PerfBounds raised = *p.bounds;
        raised.*b = static_cast<double>(run.fabricCycles) + 1.0;
        expect(!checkThroughputBounds(run.fabricCycles, raised).empty(),
               "throughput bound above measured cycles accepted");
    }

    RunResult broken = run;
    broken.nodeStalls.back().cycles[static_cast<std::size_t>(
        StallReason::Idle)] += 1;
    expect(!checkConservation(broken).empty(),
           "broken stall conservation accepted");

    broken = run;
    broken.firings += 1;
    expect(!checkCounts(broken, *p.profile).empty(),
           "miscounted firings accepted");

    Outcome drifted = same;
    drifted.energy.memory += 1e-9 * (1.0 + drifted.energy.memory);
    expect(!checkSameOutcome(drifted, same).empty(),
           "changed energy accepted");

    PnrResult crowded = *p.pnr;
    for (Coord &c : crowded.placement.pos)
        c = crowded.placement.pos.front();
    expect(!checkCompiled(*p.graph, *p.topo, crowded).empty(),
           "over-full tile accepted");

    expect(!checkEvaluator(brokenEval).empty(),
           "wrong opcode evaluator accepted");
    return missed;
}

} // namespace perfbench
