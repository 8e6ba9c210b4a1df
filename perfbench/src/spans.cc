#include "spans.hh"

#include <cstdio>

#include "common.hh"

namespace perfbench {

Tracer::Tracer() : epoch(nowS()) {}

std::uint32_t
Tracer::open(const std::string &name, int cell)
{
    Span s;
    s.name = name;
    s.startUs = (nowS() - epoch) * 1e6;
    s.id = static_cast<std::uint32_t>(all.size() + 1);
    s.parent = stack.empty() ? 0 : stack.back();
    s.cell = cell;
    if (cell < 0 && s.parent)
        s.cell = all[s.parent - 1].cell;
    all.push_back(std::move(s));
    stack.push_back(all.back().id);
    return all.back().id;
}

void
Tracer::close(std::uint32_t id)
{
    Span &s = all[id - 1];
    s.durUs = (nowS() - epoch) * 1e6 - s.startUs;
    // Scopes nest, so the span being closed is the innermost one.
    stack.pop_back();
}

void
Tracer::aggregate(const std::string &name, double us,
                  std::uint64_t calls)
{
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(all.size() + 1);
    s.parent = stack.empty() ? 0 : stack.back();
    s.cell = s.parent ? all[s.parent - 1].cell : -1;
    s.startUs = s.parent ? all[s.parent - 1].startUs : 0;
    s.durUs = us;
    s.calls = calls;
    s.folded = true;
    all.push_back(std::move(s));
}

std::map<std::string, Tracer::Layer>
Tracer::layers(const std::string &root) const
{
    std::vector<double> childUs(all.size(), 0.0);
    for (const Span &s : all)
        if (s.parent)
            childUs[s.parent - 1] += s.durUs;

    std::map<std::string, Layer> out;
    for (const Span &s : all) {
        const Span *top = &s;
        while (top->parent)
            top = &all[top->parent - 1];
        if (top->name != root)
            continue;
        // The root's own uncovered time is what no layer span timed.
        Layer &l = out[&s == top ? "untimed" : s.name];
        l.selfMs += (s.durUs - childUs[s.id - 1]) / 1e3;
        l.calls += s.calls;
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &process) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                 "\"name\":\"process_name\","
                 "\"args\":{\"name\":\"%s\"}}",
                 process.c_str());
    for (const Span &s : all) {
        if (s.folded) {
            // Folded calls have no position on the timeline; show
            // them as a summary instant at the parent's start.
            std::fprintf(f,
                         ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"name\":\"%s\","
                         "\"args\":{\"id\":%u,\"parent\":%u,"
                         "\"cell\":%d,\"calls\":%llu,"
                         "\"total_us\":%.3f}}",
                         s.startUs, s.name.c_str(), s.id, s.parent,
                         s.cell,
                         static_cast<unsigned long long>(s.calls),
                         s.durUs);
            continue;
        }
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\","
                     "\"args\":{\"id\":%u,\"parent\":%u,"
                     "\"cell\":%d}}",
                     s.startUs, s.durUs, s.name.c_str(), s.id,
                     s.parent, s.cell);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
