#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

/** Open spans of this thread, innermost last. */
thread_local std::vector<int> t_open;

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

Tracer &
Tracer::get()
{
    static Tracer t;
    return t;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int
Tracer::begin(const char *name, uint64_t id)
{
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    const int parent = t_open.empty() ? -1 : t_open.back();
    int idx;
    {
        std::lock_guard<std::mutex> lock(mu_);
        idx = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, now, now, parent, threadNumber(), id});
    }
    t_open.push_back(idx);
    return idx;
}

void
Tracer::end(int idx)
{
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    if (!t_open.empty() && t_open.back() == idx) t_open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(idx)].endNs = now;
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, uint64_t id)
{
    using std::chrono::duration_cast;
    using std::chrono::nanoseconds;
    const int64_t s = duration_cast<nanoseconds>(start - epoch_).count();
    const int64_t e = duration_cast<nanoseconds>(end - epoch_).count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, s, e, -1, 0, id});
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

double
Tracer::busyMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    int64_t ns = 0;
    for (const Span &s : spans_)
        if (name == s.name) ns += s.endNs - s.startNs;
    return static_cast<double>(ns) / 1e6;
}

std::vector<LayerRow>
Tracer::table() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children of one span run on its thread and nest inside it, so
    // their durations never overlap: self = duration - sum(children).
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, LayerRow> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        LayerRow &r = rows[s.name];
        r.name = s.name;
        ++r.count;
        const int64_t dur = s.endNs - s.startNs;
        r.busyMs += static_cast<double>(dur) / 1e6;
        r.selfMs += static_cast<double>(dur - childNs[i]) / 1e6;
    }
    std::vector<LayerRow> out;
    for (auto &kv : rows) out.push_back(kv.second);
    std::sort(out.begin(), out.end(),
              [](const LayerRow &a, const LayerRow &b) {
                  return a.busyMs > b.busyMs;
              });
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write " + path);
    std::lock_guard<std::mutex> lock(mu_);
    f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %u",
                      static_cast<double>(s.startNs) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3,
                      s.tid);
        f << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", " << buf << ", \"args\": {\"span\": "
          << i << ", \"parent\": " << s.parent << ", \"id\": " << s.id
          << "}}";
    }
    f << "\n]}\n";
    if (!f) throw std::runtime_error("write failed: " + path);
}

void
dumpTrace(const std::string &dir, const std::string &stem)
{
    const Tracer &t = Tracer::get();
    const std::vector<LayerRow> rows = t.table();
    const std::string tsv = dir + "/" + stem + ".layers.tsv";
    std::ofstream f(tsv);
    if (!f) throw std::runtime_error("cannot write " + tsv);
    f << "layer\tcount\tbusy_ms\tself_ms\n";
    note("per-layer table (traced pass): layer, count, busy ms, self ms");
    for (const LayerRow &r : rows) {
        f << r.name << "\t" << r.count << "\t" << fmt(r.busyMs) << "\t"
          << fmt(r.selfMs) << "\n";
        char buf[200];
        std::snprintf(buf, sizeof(buf), "  %-28s %9llu %12.3f %12.3f",
                      r.name.c_str(),
                      static_cast<unsigned long long>(r.count), r.busyMs,
                      r.selfMs);
        note(buf);
    }
    const std::string json = dir + "/" + stem + ".trace.json";
    t.writeChromeTrace(json);
    note("trace written: " + json + ", table: " + tsv);
}

} // namespace perfbench
