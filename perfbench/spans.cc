#include "spans.h"

#include <cstdio>
#include <ctime>

namespace perfbench
{

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer::Scope::Scope(Tracer &tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    index_ = static_cast<int>(tracer_.spans_.size());
    Span s;
    s.name = name;
    s.parent = tracer_.open_;
    s.op = tracer_.op_;
    tracer_.spans_.push_back(s);
    tracer_.open_ = index_;
    // Read the clock last so the bookkeeping above is not charged to
    // the layer.
    tracer_.spans_[static_cast<std::size_t>(index_)].start = cpuSeconds();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &s = tracer_.spans_[static_cast<std::size_t>(index_)];
    s.end = cpuSeconds();
    tracer_.open_ = s.parent;
}

std::vector<double>
Tracer::childSeconds() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    return child;
}

namespace
{

void
writeNumberMap(std::FILE *f, const char *key,
               const std::map<std::string, double> &values)
{
    std::fprintf(f, "\"%s\":{", key);
    bool first = true;
    for (const auto &[name, value] : values) {
        std::fprintf(f, "%s\"%s\":%.9g", first ? "" : ",", name.c_str(),
                     value);
        first = false;
    }
    std::fprintf(f, "}");
}

} // namespace

bool
Tracer::writeJson(const std::string &path,
                  const std::map<std::string, double> &counts,
                  const std::map<std::string, double> &summary) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{");
    writeNumberMap(f, "summary", summary);
    std::fprintf(f, ",");
    writeNumberMap(f, "counts", counts);

    std::map<std::string, LayerTotals> layers =
        totals([](const Span &) { return true; });
    std::fprintf(f, ",\"self_seconds\":{");
    bool first = true;
    for (const auto &[name, t] : layers) {
        std::fprintf(f, "%s\"%s\":{\"self\":%.9f,\"total\":%.9f,"
                        "\"calls\":%ld}",
                     first ? "" : ",", name.c_str(), t.selfSeconds,
                     t.totalSeconds, t.calls);
        first = false;
    }
    std::fprintf(f, "},\"spans\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%s{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                        "\"end\":%.9f,\"parent\":%d,\"op\":%d}",
                     i ? ",\n" : "", i, s.name, s.start, s.end, s.parent,
                     s.op);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
