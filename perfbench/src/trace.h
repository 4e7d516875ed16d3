/**
 * @file
 * In-memory span recorder of the traced run. Spans are recorded by the
 * benchmark around its calls into the library's public functions (the
 * library itself is not instrumented). Each span keeps its name, start,
 * end, the span that was open on the same thread when it began (its
 * parent) and an identifier shared by the spans of one request or
 * token. Nothing is written until the run ends: then the spans go out
 * as Chrome trace-event JSON and a per-layer table of count, busy time
 * and self time.
 *
 * When tracing is off a ScopedSpan costs one relaxed atomic load.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/** One row of the per-layer table. */
struct LayerRow
{
    std::string name;
    uint64_t count = 0;
    double busyMs = 0.0; //!< sum of span durations
    double selfMs = 0.0; //!< busy minus the time covered by children
};

class Tracer
{
  public:
    static Tracer &get();

    bool enabled() const { return on_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { on_.store(on, std::memory_order_relaxed); }

    /** Open a span on the calling thread; returns its index. */
    int begin(const char *name, uint64_t id);
    /** Close span @p idx (must be the innermost open one). */
    void end(int idx);

    /** Record a finished span that did not nest on one thread (a
     *  request from its scheduled send to its answer). */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, uint64_t id);

    /** Forget every recorded span. */
    void clear();

    /** Sum of durations of the spans named @p name, in ms. */
    double busyMs(const std::string &name) const;

    /** Per-name count, busy and self time, sorted by busy time. */
    std::vector<LayerRow> table() const;

    /** Write the spans as Chrome trace-event JSON (chrome://tracing,
     *  Perfetto). Throws std::runtime_error on I/O failure. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int parent; //!< index of the enclosing span, -1 at top level
        uint32_t tid;
        uint64_t id;
    };

    Tracer();

    std::atomic<bool> on_{false};
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span: records nothing when tracing is off. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, uint64_t id = 0)
    {
        Tracer &t = Tracer::get();
        if (t.enabled()) idx_ = t.begin(name, id);
    }
    ~ScopedSpan()
    {
        if (idx_ >= 0) Tracer::get().end(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int idx_ = -1;
};

/** Print the per-layer table as notes and write both trace files
 *  (`<dir>/<stem>.trace.json`, `<dir>/<stem>.layers.tsv`). */
void dumpTrace(const std::string &dir, const std::string &stem);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
