#include "tensor/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ant {

namespace {

/** True on pool workers and inside a parallelFor chunk on the caller. */
thread_local bool t_inParallel = false;

int
defaultThreads()
{
    if (const char *env = std::getenv("ANT_THREADS")) {
        const int v = std::atoi(env);
        if (v > 0) return v;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? static_cast<int>(hc) : 1;
}

Schedule
defaultSchedule()
{
    if (const char *env = std::getenv("ANT_SCHED")) {
        if (std::strcmp(env, "stealing") == 0) return Schedule::Stealing;
        if (std::strcmp(env, "static") == 0) return Schedule::Static;
    }
    return Schedule::Static;
}

/** The process-wide Schedule::Auto resolution (never Auto itself). */
Schedule g_schedule = defaultSchedule();

/** Persistent workers draining a shared FIFO of chunk tasks. */
class Pool
{
  public:
    Pool() : target_(defaultThreads()) { spawn(); }

    ~Pool()
    {
        shutdown();
    }

    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    int
    threads()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return target_;
    }

    void
    resize(int n)
    {
        if (n <= 0) n = defaultThreads();
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (n == target_) return;
        }
        shutdown();
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = false;
            target_ = n;
        }
        spawn();
    }

    void
    submit(std::function<void()> fn)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            tasks_.push(std::move(fn));
        }
        cv_.notify_one();
    }

  private:
    void
    spawn()
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (int i = 0; i < target_ - 1; ++i)
            workers_.emplace_back([this] { work(); });
    }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : workers_) t.join();
        workers_.clear();
    }

    void
    work()
    {
        t_inParallel = true; // workers never fan out again
        for (;;) {
            std::function<void()> fn;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk,
                         [this] { return stop_ || !tasks_.empty(); });
                if (stop_) return;
                fn = std::move(tasks_.front());
                tasks_.pop();
            }
            fn();
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> tasks_;
    std::vector<std::thread> workers_;
    int target_;
    bool stop_ = false;
};

/**
 * Completion latch of one parallelFor call: the caller waits on it
 * until every submitted pool task has finished, then rethrows the first
 * error any chunk raised. It lives on the caller's stack, so finish()
 * notifies while still holding the mutex: the caller cannot see the
 * final count (and return, destroying the latch) until the worker has
 * released the lock, after which the worker never touches it again.
 */
class Completion
{
  public:
    /** Record @p e unless an earlier error is already recorded. */
    void
    fail(std::exception_ptr e)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!first_error_) first_error_ = std::move(e);
    }

    /** Mark one pool task done; the task's last touch of the latch. */
    void
    finish()
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++done_;
        cv_.notify_one();
    }

    /** Block until @p submitted tasks have finished, then rethrow the
     *  first recorded error. */
    void
    wait(int64_t submitted)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return done_ == submitted; });
        if (first_error_) std::rethrow_exception(first_error_);
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    int64_t done_ = 0;
    std::exception_ptr first_error_;
};

/**
 * Per-worker index range for the stealing mode. The owner takes
 * grain-sized chunks from the front, thieves take grain-sized chunks
 * from the back; both under the range's own mutex — contention is one
 * uncontended lock per ~100us chunk, and the deque discipline keeps the
 * owner on a contiguous, cache-friendly walk while stolen work comes
 * off the cold end. Ranges only ever shrink, so a worker whose full
 * victim scan comes up empty can retire: no new work ever appears.
 */
struct alignas(64) StealRange
{
    std::mutex mu;
    int64_t next = 0;
    int64_t end = 0;
};

bool
takeFront(StealRange &r, int64_t grain, int64_t &b, int64_t &e)
{
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.next >= r.end) return false;
    b = r.next;
    e = std::min(r.end, b + grain);
    r.next = e;
    return true;
}

bool
stealBack(StealRange &r, int64_t grain, int64_t &b, int64_t &e)
{
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.next >= r.end) return false;
    e = r.end;
    b = std::max(r.next, e - grain);
    r.end = b;
    return true;
}

/** Shared state of one stealing parallelFor invocation. */
struct StealCtl
{
    const std::function<void(int64_t, int64_t)> *body = nullptr;
    std::vector<StealRange> ranges;
    int64_t grain = 1;
    Completion completion;
};

/**
 * Drain own range front-first, then steal chunks from victims
 * (round-robin scan starting after @p me). Returns when a full scan
 * finds every range empty. On a body exception the worker records it
 * and abandons its remaining work (matching the static mode, where an
 * exception abandons the rest of that thread's chunk).
 */
void
stealWorker(StealCtl &ctl, size_t me)
{
    const size_t T = ctl.ranges.size();
    int64_t b, e;
    try {
        for (;;) {
            if (takeFront(ctl.ranges[me], ctl.grain, b, e)) {
                (*ctl.body)(b, e);
                continue;
            }
            bool stole = false;
            for (size_t k = 1; k < T; ++k) {
                const size_t v = (me + k) % T;
                if (stealBack(ctl.ranges[v], ctl.grain, b, e)) {
                    (*ctl.body)(b, e);
                    stole = true;
                    break;
                }
            }
            if (!stole) return;
        }
    } catch (...) {
        ctl.completion.fail(std::current_exception());
    }
}

void
parallelForStealing(int64_t n,
                    const std::function<void(int64_t, int64_t)> &body,
                    int64_t grain, int threads)
{
    const int64_t chunks = (n + grain - 1) / grain;
    const int64_t T =
        std::min<int64_t>(static_cast<int64_t>(threads), chunks);

    StealCtl ctl;
    ctl.body = &body;
    ctl.grain = grain;
    ctl.ranges = std::vector<StealRange>(static_cast<size_t>(T));
    // Initial partition: contiguous ranges of whole chunks, so the
    // front/back chunk boundaries line up across owners and thieves.
    const int64_t chunks_per = (chunks + T - 1) / T;
    for (int64_t t = 0; t < T; ++t) {
        ctl.ranges[static_cast<size_t>(t)].next =
            std::min(n, t * chunks_per * grain);
        ctl.ranges[static_cast<size_t>(t)].end =
            std::min(n, (t + 1) * chunks_per * grain);
    }

    Pool &pool = Pool::instance();
    int64_t submitted = 0;
    for (int64_t t = 1; t < T; ++t) {
        ++submitted;
        pool.submit([&ctl, t] {
            stealWorker(ctl, static_cast<size_t>(t));
            ctl.completion.finish();
        });
    }

    t_inParallel = true;
    stealWorker(ctl, 0);
    t_inParallel = false;

    ctl.completion.wait(submitted);
}

} // namespace

int
parallelThreads()
{
    return Pool::instance().threads();
}

void
setParallelThreads(int n)
{
    Pool::instance().resize(n);
}

Schedule
parallelSchedule()
{
    return g_schedule;
}

void
setParallelSchedule(Schedule s)
{
    g_schedule = s == Schedule::Auto ? defaultSchedule() : s;
}

void
parallelFor(int64_t n, const std::function<void(int64_t, int64_t)> &body,
            int64_t grain, Schedule sched)
{
    if (n <= 0) return;
    grain = std::max<int64_t>(1, grain);
    const int threads = parallelThreads();
    if (threads <= 1 || t_inParallel || n <= grain) {
        const bool was = t_inParallel;
        t_inParallel = true;
        try {
            body(0, n);
        } catch (...) {
            t_inParallel = was;
            throw;
        }
        t_inParallel = was;
        return;
    }

    if (sched == Schedule::Auto) sched = g_schedule;
    if (sched == Schedule::Stealing) {
        parallelForStealing(n, body, grain, threads);
        return;
    }

    const int64_t max_chunks = (n + grain - 1) / grain;
    const int64_t chunks =
        std::min<int64_t>(static_cast<int64_t>(threads), max_chunks);
    const int64_t step = (n + chunks - 1) / chunks;

    Completion completion;
    int64_t submitted = 0;

    Pool &pool = Pool::instance();
    for (int64_t b = step; b < n; b += step) {
        const int64_t e = std::min(n, b + step);
        ++submitted;
        pool.submit([&, b, e] {
            try {
                body(b, e);
            } catch (...) {
                completion.fail(std::current_exception());
            }
            completion.finish();
        });
    }

    // The caller runs the first chunk; nested fan-out goes inline.
    t_inParallel = true;
    try {
        body(0, std::min(n, step));
    } catch (...) {
        completion.fail(std::current_exception());
    }
    t_inParallel = false;

    completion.wait(submitted);
}

} // namespace ant
