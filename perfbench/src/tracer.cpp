#include "tracer.h"

#include <fstream>

#include "common/json_writer.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : on(enabled), origin(std::chrono::steady_clock::now())
{
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

Tracer::Scope::Scope(Tracer &t, const char *name, int cell)
    : tracer(t), index(-1)
{
    if (!tracer.on)
        return;
    index = static_cast<int>(tracer.recorded.size());
    Span s;
    s.name = name;
    s.parent = tracer.open.empty() ? -1 : tracer.open.back();
    s.cell = cell;
    s.startNs = tracer.nowNs();
    tracer.recorded.push_back(std::move(s));
    tracer.open.push_back(index);
}

Tracer::Scope::~Scope()
{
    if (index < 0)
        return;
    tracer.recorded[index].endNs = tracer.nowNs();
    tracer.open.pop_back();
}

bool
Tracer::writeJson(const std::string &path) const
{
    dstrange::JsonWriter w;
    w.beginArray();
    for (const Span &s : recorded) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("start_ns").value(static_cast<std::uint64_t>(s.startNs));
        w.key("end_ns").value(static_cast<std::uint64_t>(s.endNs));
        w.key("parent").value(s.parent);
        w.key("cell").value(s.cell);
        w.endObject();
    }
    w.endArray();
    std::ofstream out(path);
    out << w.str() << '\n';
    out.close();
    return static_cast<bool>(out);
}

} // namespace perfbench
