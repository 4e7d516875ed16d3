/**
 * @file
 * Tests for the tensor/parallel thread pool underneath the quantization
 * engine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tensor/parallel.h"

namespace ant {
namespace {

/** Restores the default pool size when a test returns. */
struct PoolGuard
{
    explicit PoolGuard(int n) { setParallelThreads(n); }
    ~PoolGuard() { setParallelThreads(0); }
};

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    PoolGuard guard(4);
    const int64_t n = 10007; // prime: uneven chunking
    std::vector<int> hits(static_cast<size_t>(n), 0);
    parallelFor(n, [&](int64_t b, int64_t e) {
        ASSERT_LE(b, e);
        for (int64_t i = b; i < e; ++i)
            ++hits[static_cast<size_t>(i)];
    });
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)], 1) << i;
}

TEST(Parallel, SerialWhenSingleThread)
{
    PoolGuard guard(1);
    EXPECT_EQ(parallelThreads(), 1);
    int calls = 0;
    parallelFor(1000, [&](int64_t b, int64_t e) {
        ++calls;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 1000);
    });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, NestedFanOutRunsInline)
{
    PoolGuard guard(4);
    std::atomic<int64_t> total{0};
    parallelFor(8, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
            // The inner loop must execute fully (inline) on this worker.
            int64_t inner = 0;
            parallelFor(100, [&](int64_t ib, int64_t ie) {
                inner += ie - ib;
            });
            total += inner;
        }
    });
    EXPECT_EQ(total.load(), 8 * 100);
}

TEST(Parallel, PropagatesFirstException)
{
    PoolGuard guard(4);
    EXPECT_THROW(
        parallelFor(64,
                    [&](int64_t b, int64_t) {
                        if (b == 0)
                            throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error);
}

TEST(Parallel, GrainForcesInlineExecution)
{
    PoolGuard guard(4);
    int calls = 0;
    parallelFor(
        100, [&](int64_t, int64_t) { ++calls; }, /*grain=*/1000);
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, EmptyRangeIsNoop)
{
    int calls = 0;
    parallelFor(0, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(Parallel, ResultsIndependentOfThreadCount)
{
    // Bitwise determinism: per-index writes make the reduction order
    // fixed regardless of pool size.
    const int64_t n = 4096;
    std::vector<double> a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    {
        PoolGuard guard(1);
        parallelFor(n, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                a[static_cast<size_t>(i)] =
                    std::sin(static_cast<double>(i)) * 0.37;
        });
    }
    {
        PoolGuard guard(7);
        parallelFor(n, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                b[static_cast<size_t>(i)] =
                    std::sin(static_cast<double>(i)) * 0.37;
        });
    }
    EXPECT_EQ(a, b);
}

TEST(ParallelStealing, CoversEveryIndexExactlyOnce)
{
    PoolGuard guard(4);
    const int64_t n = 10007; // prime: ragged final chunks
    for (int64_t grain : {int64_t{1}, int64_t{13}, int64_t{512}}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto &h : hits) h.store(0);
        parallelFor(
            n,
            [&](int64_t b, int64_t e) {
                ASSERT_LE(b, e);
                for (int64_t i = b; i < e; ++i)
                    hits[static_cast<size_t>(i)].fetch_add(1);
            },
            grain, Schedule::Stealing);
        for (int64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
                << "grain " << grain << ", index " << i;
    }
}

TEST(ParallelStealing, ChunksNeverExceedGrain)
{
    PoolGuard guard(4);
    parallelFor(
        5000,
        [&](int64_t b, int64_t e) { ASSERT_LE(e - b, 64); },
        /*grain=*/64, Schedule::Stealing);
}

TEST(ParallelStealing, SkewedCostStillCoversAndFinishes)
{
    // One index carries almost all the work: thieves must drain the
    // rest while the owner grinds, and the call must still terminate.
    PoolGuard guard(4);
    const int64_t n = 256;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto &h : hits) h.store(0);
    std::atomic<int64_t> work{0};
    parallelFor(
        n,
        [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) {
                if (i == 0) {
                    volatile double x = 1.0;
                    for (int k = 0; k < 2000000; ++k) x = x * 1.0000001;
                    work.fetch_add(1);
                }
                hits[static_cast<size_t>(i)].fetch_add(1);
            }
        },
        /*grain=*/1, Schedule::Stealing);
    EXPECT_EQ(work.load(), 1);
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

TEST(ParallelStealing, PropagatesFirstException)
{
    PoolGuard guard(4);
    EXPECT_THROW(parallelFor(
                     64,
                     [&](int64_t b, int64_t) {
                         if (b == 21)
                             throw std::runtime_error("chunk failed");
                     },
                     /*grain=*/1, Schedule::Stealing),
                 std::runtime_error);
}

TEST(ParallelStealing, NestedFanOutRunsInline)
{
    PoolGuard guard(4);
    std::atomic<int64_t> total{0};
    parallelFor(
        8,
        [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) {
                int64_t inner = 0;
                parallelFor(
                    100,
                    [&](int64_t ib, int64_t ie) { inner += ie - ib; },
                    1, Schedule::Stealing);
                total += inner;
            }
        },
        /*grain=*/1, Schedule::Stealing);
    EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ParallelStealing, ScheduleKnobControlsAutoResolution)
{
    EXPECT_NE(parallelSchedule(), Schedule::Auto);
    setParallelSchedule(Schedule::Stealing);
    EXPECT_EQ(parallelSchedule(), Schedule::Stealing);
    setParallelSchedule(Schedule::Static);
    EXPECT_EQ(parallelSchedule(), Schedule::Static);
    setParallelSchedule(Schedule::Auto); // restore the process default
    EXPECT_NE(parallelSchedule(), Schedule::Auto);
}

TEST(ParallelStealing, ResultsMatchStaticBitwise)
{
    const int64_t n = 4096;
    std::vector<double> a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    const auto fill = [](std::vector<double> &v) {
        return [&v](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                v[static_cast<size_t>(i)] =
                    std::sin(static_cast<double>(i)) * 0.37;
        };
    };
    {
        PoolGuard guard(7);
        parallelFor(n, fill(a), 1, Schedule::Static);
        parallelFor(n, fill(b), 32, Schedule::Stealing);
    }
    EXPECT_EQ(a, b);
}

TEST(ParallelStress, ConcurrentTinyCallsCompleteCleanly)
{
    // Completion-protocol regression: each call's latch lives on its
    // caller's stack, so a worker that still touches it after the
    // caller saw the final count is a use-after-scope. Many tiny
    // calls from many threads make the caller return as early as it
    // ever can; both schedules share the latch.
    PoolGuard guard(4);
    const int callers = 8;
    const int calls = 2000;
    const int64_t n = 4; // grain 1: every call fans out to the pool
    std::atomic<int64_t> wrong{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c)
        threads.emplace_back([&, c] {
            for (int i = 0; i < calls; ++i) {
                int hits[n] = {};
                parallelFor(
                    n,
                    [&](int64_t lo, int64_t hi) {
                        for (int64_t k = lo; k < hi; ++k) ++hits[k];
                    },
                    1,
                    (c + i) % 2 ? Schedule::Stealing : Schedule::Static);
                for (int k = 0; k < n; ++k)
                    if (hits[k] != 1) wrong.fetch_add(1);
            }
        });
    for (std::thread &t : threads) t.join();
    EXPECT_EQ(wrong.load(), 0);
}

} // namespace
} // namespace ant
