/**
 * @file
 * Shared plumbing of the end-to-end benchmark: command-line arguments,
 * clocks, order statistics, the run report and its JSON line, and the
 * correctness-check failure type.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed between two steady-clock points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Milliseconds since @p t. */
inline double
msSince(Clock::time_point t)
{
    return msBetween(t, Clock::now());
}

/** Parsed command line of one run. */
struct Args
{
    std::string workload;    //!< compile | serve | decode
    uint64_t seed = 1;       //!< input seed (same seed, same inputs)
    double seconds = 10.0;   //!< measurement window
    bool trace = false;      //!< traced run: per-layer metrics
    bool quick = false;      //!< reduced sizes, for self-tests
    std::string workDir;     //!< scratch directory for artifacts
    std::string traceDir;    //!< where the traced run writes its files
    int workers = 1;         //!< concurrent workers (set by main)
};

/** Parse argv; throws std::invalid_argument with a usage hint. */
Args parseArgs(int argc, char **argv);

/** A failed correctness check: the run must exit non-zero. */
class CheckFailure : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw CheckFailure(@p what) unless @p ok. */
void check(bool ok, const std::string &what);

/** Linear-interpolated percentile (@p q in [0, 100]) of @p v. */
double percentile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double mean(const std::vector<double> &v);

/**
 * Peak resident set size over a measured phase, in MB (2^20 bytes):
 * a thread samples /proc/self/statm every 10 ms between construction
 * and stop(). Construction first hands memory that set-up freed back
 * to the OS (malloc_trim), so the figure is the phase's own footprint
 * rather than the set-up's high-water mark.
 */
class RssSampler
{
  public:
    RssSampler();
    ~RssSampler() { stop(); }
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stop sampling (idempotent) and return the peak. */
    double stop();

  private:
    std::atomic<bool> done_{false};
    std::atomic<long> peakPages_{0};
    std::thread thread_;
};

/** CPUs this process may run on. */
int availableCpus();

/**
 * Run @p fn(i) for every i in [0, n) on @p workers threads of this
 * benchmark, each taking the next index when it finishes one. Rethrows
 * the first exception after every thread has ended.
 */
void forEachConcurrent(int64_t n, int workers,
                       const std::function<void(int64_t)> &fn);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run prints: counts, metrics and human-readable notes. */
struct Report
{
    uint64_t attempted = 0; //!< operations attempted
    uint64_t failed = 0;    //!< of which failed
    std::vector<Metric> metrics;

    /** Set (or overwrite) metric @p name. */
    void set(const std::string &name, double value,
             const std::string &unit);
};

/** Print @p line to stdout, prefixed so it cannot be taken for the
 *  result line. */
void note(const std::string &line);

/** The final JSON line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const Report &r);

/** Number formatted with every significant digit. */
std::string fmt(double v);

/** Collects repeated set-up timings; the median is setup_s. */
class SetupTimer
{
  public:
    void start() { t0_ = Clock::now(); }
    void stop() { samples_.push_back(msSince(t0_) / 1e3); }
    double medianSeconds() const { return median(samples_); }

  private:
    Clock::time_point t0_;
    std::vector<double> samples_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
