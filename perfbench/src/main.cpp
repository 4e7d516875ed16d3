/**
 * @file
 * perfbench: the end-to-end benchmark program of the ANT library.
 *
 *     perfbench --workload compile|serve|decode --seed N --seconds S
 *               --trace 0|1 [--quick] [--work-dir DIR] [--trace-dir DIR]
 *
 * An untraced run (--trace 0) prints every end-to-end metric; a traced
 * run (--trace 1) prints every per-layer metric and writes its spans.
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. A failed correctness check or any
 * error exits non-zero without that line. perfbench/README.md lists
 * the metrics and what they mean on each workload.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

#include "common.h"
#include "tensor/parallel.h"
#include "trace.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/** Concurrent workers (layers, requests, sessions), whatever the host. */
constexpr int kMaxWorkers = 4;

/**
 * parallelFor pool size. One thread: every parallelFor runs inline on
 * its caller. A pooled call can end the process: its completion path
 * notifies a condition variable on the caller's stack after unlocking,
 * and the caller may already have returned. At 4 threads that crashed
 * 1 of 20 decode runs here, so the workloads take their parallelism
 * from concurrent independent work instead. The library's intra-op
 * parallel paths are therefore not measured, and changing this value
 * changes every figure: its runs need a new baseline.
 */
constexpr int kPoolThreads = 1;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload reports each of them. */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},          {"tail_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"first_result_ms", "ms"},
    {"stored_mb", "MB"},
};

/** Per-layer metrics: a workload that does not use a layer reports 0. */
const MetricSpec kPerLayer[] = {
    {"type_selector.busy_ms", "ms/round"},
    {"type_selector.elems", "count/round"},
    {"calibrator.busy_ms", "ms/round"},
    {"qtensor.pack_ms", "ms/round"},
    {"artifact.save_ms", "ms/round"},
    {"artifact.map_ms", "ms/round"},
    {"planner.busy_ms", "ms/round"},
    {"accelerator.busy_ms", "ms/round"},
    {"servable.forward_ms", "ms/batch"},
    {"servable.mean_batch", "rows/batch"},
    {"servable.batches", "count"},
    {"server.wait_ms", "ms/request"},
    {"registry.load_ms", "ms/load"},
    {"registry.hits", "count"},
    {"registry.misses", "count"},
    {"packed_gemm.calls", "count/request"},
    {"packed_gemm.rows_decoded", "count/request"},
    {"generator.late_ms", "ms"},
    {"kv_cache.append_ms", "ms/token"},
    {"kv_cache.appended_rows", "count"},
    {"kv_cache.repacked_rows", "count"},
    {"kv_cache.snapshot_ms", "ms/token"},
    {"decode.attend_ms", "ms/token"},
    {"packed_gemm.gemv_ms", "ms/token"},
    {"qtensor.unpack_calls", "count"},
    {"trace.overhead_pct", "%"},
};

/**
 * Ends a run that has not finished in time (a hung pooled call, say)
 * with exit code 3 and a message, so a hang is reported like a crash
 * instead of running on past the run's time limit.
 */
class Watchdog
{
  public:
    Watchdog(double seconds, fs::path work)
        : work_(std::move(work)),
          thread_([this, seconds] {
              std::unique_lock<std::mutex> lk(mu_);
              if (cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                               [this] { return done_; }))
                  return;
              std::cerr << "perfbench: WATCHDOG: run still going after "
                        << seconds << " s; aborting it\n";
              std::error_code ec;
              fs::remove_all(work_, ec);
              std::_Exit(3);
          })
    {
    }
    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    fs::path work_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

/** Order the report's metrics by @p specs, fill per-layer gaps with 0,
 *  and reject anything unlisted, mis-unit'ed or (end-to-end) zero. */
template <size_t N>
Report
finalize(const Report &r, const MetricSpec (&specs)[N], bool zero_ok)
{
    Report out;
    out.attempted = r.attempted;
    out.failed = r.failed;
    for (const Metric &m : r.metrics) {
        bool known = false;
        for (const MetricSpec &s : specs)
            if (m.name == s.name) {
                known = true;
                check(m.unit == s.unit, "metric " + m.name +
                                            " reported in " + m.unit +
                                            ", expected " + s.unit);
            }
        check(known, "unlisted metric " + m.name);
    }
    for (const MetricSpec &s : specs) {
        double v = 0.0;
        bool found = false;
        for (const Metric &m : r.metrics)
            if (m.name == s.name) {
                v = m.value;
                found = true;
            }
        check(found || zero_ok, std::string("metric ") + s.name +
                                    " was not measured");
        check(std::isfinite(v), std::string("metric ") + s.name +
                                    " is not finite");
        check(zero_ok || v != 0.0,
              std::string("metric ") + s.name + " measured 0");
        out.set(s.name, v, s.unit);
    }
    check(out.attempted >= 1, "no operation was attempted");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    ant::setParallelThreads(kPoolThreads);
    args.workers = std::min(availableCpus(), kMaxWorkers);
    note("workload " + args.workload + ", seed " +
         std::to_string(args.seed) + ", seconds " + fmt(args.seconds) +
         ", trace " + (args.trace ? "1" : "0") +
         (args.quick ? ", quick sizes" : "") + ", parallelFor pool " +
         std::to_string(ant::parallelThreads()) + " thread(s), " +
         std::to_string(args.workers) + " workers (" +
         std::to_string(availableCpus()) + " CPUs)");

    // Artifacts go to a per-process directory, removed on every exit.
    const fs::path work = fs::path(args.workDir) /
                          ("run-" + std::to_string(::getpid()));
    int rc = 0;
    std::string result;
    // 170 s up to a 25 s window; longer windows get more.
    Watchdog watchdog(170.0 + 3.0 * std::max(0.0, args.seconds - 25.0),
                      work);
    try {
        fs::create_directories(work);
        fs::create_directories(args.traceDir);
        Args wargs = args;
        wargs.workDir = work.string();
        Report r;
        Tracer::get().setEnabled(false);
        if (args.workload == "compile")
            runCompile(wargs, r);
        else if (args.workload == "serve")
            runServe(wargs, r);
        else
            runDecode(wargs, r);
        result = args.trace ? resultJson(finalize(r, kPerLayer, true))
                            : resultJson(finalize(r, kEndToEnd, false));
    } catch (const CheckFailure &e) {
        std::cerr << "perfbench: CHECK FAILED: " << e.what() << "\n";
        rc = 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: ERROR: " << e.what() << "\n";
        rc = 1;
    }
    std::error_code ec;
    fs::remove_all(work, ec);
    if (rc != 0) return rc;
    std::cout << result << std::endl;
    return 0;
}
