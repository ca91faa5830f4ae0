/**
 * @file
 * In-memory span recorder for the traced run. Spans wrap the
 * benchmark's calls into the simulator's public API; each records its
 * name, start and end (steady-clock ns since the tracer was made), the
 * enclosing span and the cell it belongs to. Nothing is written until
 * writeJson(), so recording costs one vector append per span.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1; ///< Index of the enclosing span, -1 at top level.
        int cell = -1;   ///< Cell index, -1 outside any cell.
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, int cell);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int index;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return on; }

    /** Write every span as a JSON array to @p path; false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    bool on;
    std::chrono::steady_clock::time_point origin;
    std::vector<Span> recorded;
    std::vector<int> open; ///< Stack of indices of unclosed spans.
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
