/**
 * @file
 * Process-CPU clock and the in-memory span recorder of the benchmark.
 *
 * Every timing in the benchmark is process CPU time
 * (CLOCK_PROCESS_CPUTIME_ID). The benchmark is single-threaded, so on
 * an idle host this equals wall time; on a loaded host it leaves out
 * the time spent waiting for a CPU, and it still counts work the
 * library might move onto helper threads.
 *
 * A Tracer records one span per call into a library layer: name,
 * start, end, parent span and operation id. Disabled, a Scope reads
 * no clock and records nothing, so the timed runs pay one branch.
 */

#ifndef NUPEA_PERFBENCH_SPANS_H
#define NUPEA_PERFBENCH_SPANS_H

#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Process CPU time, in seconds. */
double cpuSeconds();

/** One recorded call. `name` points at a string literal. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 at the root
    int op = -1;     ///< operation id, -1 outside operations
};

/** Per-name aggregate over a set of spans. */
struct LayerTotals
{
    double selfSeconds = 0.0; ///< duration minus direct children
    double totalSeconds = 0.0;
    long calls = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Operation id stamped on spans opened from now on. */
    void setOp(int op) { op_ = op; }

    /** Drop every span recorded so far (no span may be open). */
    void clear() { spans_.clear(); }

    /** RAII span; a no-op when the tracer is disabled. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span, the summed duration of its direct children. */
    std::vector<double> childSeconds() const;

    /**
     * Self and total time per span name over the spans for which
     * `keep(span)` holds (children are subtracted whether or not they
     * are kept, so self time never double-counts).
     */
    template <typename Pred>
    std::map<std::string, LayerTotals> totals(Pred keep) const;

    /**
     * Write every span plus `counts` and `summary` as one JSON object
     * to `path`. Returns false when the file cannot be written.
     */
    bool writeJson(const std::string &path,
                   const std::map<std::string, double> &counts,
                   const std::map<std::string, double> &summary) const;

  private:
    bool enabled_;
    int op_ = -1;
    int open_ = -1; ///< innermost open span
    std::vector<Span> spans_;
};

template <typename Pred>
std::map<std::string, LayerTotals>
Tracer::totals(Pred keep) const
{
    std::vector<double> child = childSeconds();
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!keep(s))
            continue;
        LayerTotals &t = out[s.name];
        t.totalSeconds += s.end - s.start;
        t.selfSeconds += s.end - s.start - child[i];
        ++t.calls;
    }
    return out;
}

} // namespace perfbench

#endif // NUPEA_PERFBENCH_SPANS_H
