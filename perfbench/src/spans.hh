/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a
 * span around every public call it makes into a layer (name, start,
 * end, parent, cell id), keeps the spans in memory and writes them
 * as Chrome-trace JSON at exit. No span is recorded inside src/.
 *
 * The traced run is single-threaded by design (see README.md), so
 * the recorder keeps one open-span stack and needs no locking; a
 * layer's self time is its duration minus its children's.
 */

#ifndef TERP_PERFBENCH_SPANS_HH
#define TERP_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double startUs = 0; //!< relative to the recorder's epoch
    double durUs = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; //!< 0 = root
    int cell = -1;            //!< index in the pass, -1 = none
    /**
     * Calls folded into this record. A layer called hundreds of
     * thousands of times per pass (the sweeper hook) is timed per
     * call but kept as one record per parent, with durUs the summed
     * duration; such a record has no position on the timeline.
     */
    std::uint64_t calls = 1;
    bool folded = false;
};

class Tracer
{
  public:
    Tracer();

    std::uint32_t open(const std::string &name, int cell = -1);
    void close(std::uint32_t id);

    /** Fold @p calls calls totalling @p us into the open span. */
    void aggregate(const std::string &name, double us,
                   std::uint64_t calls);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name, int cell = -1)
            : tr(t), id(t.open(name, cell))
        {
        }
        ~Scope() { tr.close(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tr;
        std::uint32_t id;
    };

    const std::vector<Span> &spans() const { return all; }

    /**
     * Self time (ms) and call count per span name, over the trees
     * whose root is named @p root; the roots' own self time is
     * reported as "untimed".
     */
    struct Layer
    {
        double selfMs = 0;
        std::uint64_t calls = 0;
    };
    std::map<std::string, Layer> layers(const std::string &root) const;

    /** Write every span as Chrome-trace JSON; false on I/O error. */
    bool writeChrome(const std::string &path,
                     const std::string &process) const;

  private:
    double epoch;
    std::vector<Span> all;         //!< index = id - 1
    std::vector<std::uint32_t> stack;
};

} // namespace perfbench

#endif // TERP_PERFBENCH_SPANS_HH
