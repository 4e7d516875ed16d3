#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

const char *kUsage =
    "usage: perfbench --workload compile|serve|decode --seed N "
    "--seconds S --trace 0|1 [--quick] [--work-dir DIR] "
    "[--trace-dir DIR]";

std::string
takeValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        throw std::invalid_argument(std::string(argv[i]) +
                                    " needs a value; " + kUsage);
    return argv[++i];
}

} // namespace

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--workload") {
            a.workload = takeValue(argc, argv, i);
        } else if (k == "--seed") {
            a.seed = std::stoull(takeValue(argc, argv, i));
        } else if (k == "--seconds") {
            a.seconds = std::stod(takeValue(argc, argv, i));
        } else if (k == "--trace") {
            a.trace = std::stoi(takeValue(argc, argv, i)) != 0;
        } else if (k == "--quick") {
            a.quick = true;
        } else if (k == "--work-dir") {
            a.workDir = takeValue(argc, argv, i);
        } else if (k == "--trace-dir") {
            a.traceDir = takeValue(argc, argv, i);
        } else {
            throw std::invalid_argument("unknown argument " + k + "; " +
                                        kUsage);
        }
    }
    if (a.workload != "compile" && a.workload != "serve" &&
        a.workload != "decode")
        throw std::invalid_argument("bad --workload \"" + a.workload +
                                    "\"; " + kUsage);
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be > 0");
    if (a.workDir.empty()) a.workDir = ".";
    if (a.traceDir.empty()) a.traceDir = a.workDir;
    return a;
}

void
check(bool ok, const std::string &what)
{
    if (!ok) throw CheckFailure(what);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos =
        q / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double f = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * f;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

namespace {

/** Resident pages now (second field of /proc/self/statm), 0 if unknown. */
long
residentPages()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f) return 0;
    long size = 0, resident = 0;
    const int got = std::fscanf(f, "%ld %ld", &size, &resident);
    std::fclose(f);
    return got == 2 ? resident : 0;
}

} // namespace

RssSampler::RssSampler()
{
    malloc_trim(0);
    peakPages_ = residentPages();
    thread_ = std::thread([this] {
        while (!done_) {
            const long p = residentPages();
            if (p > peakPages_) peakPages_ = p;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    });
}

double
RssSampler::stop()
{
    if (thread_.joinable()) {
        done_ = true;
        thread_.join();
        const long p = residentPages();
        if (p > peakPages_) peakPages_ = p;
    }
    return static_cast<double>(peakPages_) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return n;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

void
forEachConcurrent(int64_t n, int workers,
                  const std::function<void(int64_t)> &fn)
{
    std::atomic<int64_t> next{0};
    std::mutex mu;
    std::exception_ptr first;
    auto loop = [&] {
        for (int64_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!first) first = std::current_exception();
                next = n; // the others stop at their next index
            }
        }
    };
    std::vector<std::thread> threads;
    const int64_t extra = std::min<int64_t>(workers, n) - 1;
    for (int64_t t = 0; t < extra; ++t) threads.emplace_back(loop);
    loop();
    for (std::thread &t : threads) t.join();
    if (first) std::rethrow_exception(first);
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    for (Metric &m : metrics)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    metrics.push_back(Metric{name, value, unit});
}

void
note(const std::string &line)
{
    std::cout << "# " << line << std::endl;
}

std::string
fmt(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
resultJson(const Report &r)
{
    std::ostringstream o;
    o << "{\"correct\": true, \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
          << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    o << "}}";
    return o.str();
}

} // namespace perfbench
