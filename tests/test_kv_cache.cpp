/**
 * @file
 * Streaming/offline parity pins for the packed KV cache
 * (core/kv_cache.h), the storage contract the decode path stands on.
 *
 * The central property matrix: appending T timesteps one at a time —
 * and again in ragged batches — must be *bitwise identical* to
 * packFull() of the concatenated [T, d] tensor, across type specs
 * {int3, int4, flint4, pot4u} x group sizes {64, 128, exact-divisor}
 * x thread counts {1, 8} x schedules {Static, Stealing}. "Bitwise"
 * means packed payload words, group scales (exact doubles), and nbytes
 * all agree. The two sides run genuinely different code: append()
 * folds rows into the open group's sketch and encodes serially through
 * QuantKernel::packBatch, while packFull() calibrates each group in one
 * pass and packs through QTensor::pack's parallel word-window path.
 *
 * Also pinned: prefill-then-append == pure streaming on both sides of a
 * group boundary (packFull re-seeds the open group's sketch), copy-on-
 * write snapshot immutability, the analytic footprint twin, and the
 * validation error paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/kv_cache.h"
#include "core/type_registry.h"
#include "tensor/parallel.h"
#include "tensor/random.h"

namespace ant {
namespace {

/** RAII: pin thread count + schedule, restore defaults on exit. */
struct SchedGuard
{
    SchedGuard(int threads, Schedule sched)
    {
        setParallelThreads(threads);
        setParallelSchedule(sched);
    }
    ~SchedGuard()
    {
        setParallelThreads(0);
        setParallelSchedule(Schedule::Auto);
    }
};

/** Distribution-matched KV rows: outlier-heavy Laplace, the attention
 *  projections' family. */
Tensor
makeRows(int64_t t, int64_t d, uint64_t seed)
{
    Rng rng(seed);
    return rng.laplaceOutlierTensor(Shape{t, d}, 1.0f, 0.01, 8.0f);
}

/** One [d] row copied out of a [T, d] tensor. */
Tensor
rowOf(const Tensor &rows, int64_t i, int64_t d)
{
    Tensor r(Shape{d});
    std::copy(rows.data() + i * d, rows.data() + (i + 1) * d, r.data());
    return r;
}

/** A [take, d] slab starting at row @p i. */
Tensor
slabOf(const Tensor &rows, int64_t i, int64_t take, int64_t d)
{
    Tensor r(Shape{take, d});
    std::copy(rows.data() + i * d, rows.data() + (i + take) * d,
              r.data());
    return r;
}

KVCacheConfig
makeConfig(const std::string &spec, int64_t gs,
           ScaleMode mode = ScaleMode::MseSearch)
{
    KVCacheConfig cfg;
    cfg.type = parseType(spec);
    cfg.groupSize = gs;
    cfg.scaleMode = mode;
    return cfg;
}

/** Full bitwise-equality oracle between two caches. */
void
expectBitwiseEqual(const KVCacheTensor &a, const KVCacheTensor &b)
{
    ASSERT_EQ(a.timesteps(), b.timesteps());
    ASSERT_EQ(a.groups(), b.groups());
    ASSERT_EQ(a.nbytes(), b.nbytes());
    for (int64_t g = 0; g < a.groups(); ++g)
        ASSERT_EQ(a.scales()[static_cast<size_t>(g)],
                  b.scales()[static_cast<size_t>(g)])
            << "scale of group " << g;
    if (a.timesteps() == 0)
        return;
    const QTensor pa = a.packed();
    const QTensor pb = b.packed();
    ASSERT_EQ(pa.words().size(), pb.words().size());
    ASSERT_TRUE(pa.words() == pb.words()) << "payload words differ";
    ASSERT_EQ(pa.scales(), pb.scales());
}

// ---------------------------------------------------------------------------
// The property matrix: streaming (row-at-a-time AND ragged batches)
// vs one-shot packFull, across types x group sizes x threads x
// schedule.
// ---------------------------------------------------------------------------

TEST(KVCacheTest, AppendParityMatrix)
{
    const int64_t T = 150, d = 24;
    const std::vector<std::string> specs = {"int3", "int4", "flint4",
                                            "pot4u"};
    // 64 and 128 leave a ragged 22-row tail at T=150; 50 divides
    // exactly (the tail-empty boundary).
    const std::vector<int64_t> group_sizes = {64, 128, 50};
    const std::vector<int> threads = {1, 8};
    const std::vector<Schedule> scheds = {Schedule::Static,
                                          Schedule::Stealing};

    uint64_t seed = 0x77;
    for (const std::string &spec : specs)
        for (int64_t gs : group_sizes) {
            const Tensor rows = makeRows(T, d, ++seed);
            for (int nt : threads)
                for (Schedule sc : scheds) {
                    SCOPED_TRACE(spec + " gs=" + std::to_string(gs) +
                                 " threads=" + std::to_string(nt) +
                                 (sc == Schedule::Static ? " static"
                                                         : " stealing"));
                    SchedGuard guard(nt, sc);
                    const KVCacheConfig cfg = makeConfig(spec, gs);

                    KVCacheTensor one(d, cfg);
                    for (int64_t i = 0; i < T; ++i)
                        one.append(rowOf(rows, i, d));

                    // Ragged batches (7 rows) crossing group
                    // boundaries at every gs in the matrix.
                    KVCacheTensor batched(d, cfg);
                    for (int64_t i = 0; i < T;) {
                        const int64_t take = std::min<int64_t>(7, T - i);
                        batched.append(slabOf(rows, i, take, d));
                        i += take;
                    }

                    const KVCacheTensor oracle =
                        KVCacheTensor::packFull(rows, cfg);
                    expectBitwiseEqual(one, oracle);
                    expectBitwiseEqual(batched, oracle);
                    ASSERT_EQ(one.timesteps(), T);
                }
        }
}

TEST(KVCacheTest, MaxCalibScaleModeParity)
{
    const int64_t T = 90, d = 16, gs = 32;
    const Tensor rows = makeRows(T, d, 0xAB);
    const KVCacheConfig cfg =
        makeConfig("int4", gs, ScaleMode::MaxCalib);

    KVCacheTensor streaming(d, cfg);
    for (int64_t i = 0; i < T; ++i)
        streaming.append(rowOf(rows, i, d));
    expectBitwiseEqual(streaming, KVCacheTensor::packFull(rows, cfg));
}

// ---------------------------------------------------------------------------
// Prefill then decode: packFull of a prefix is a live cache whose
// continued appends land exactly where pure streaming would.
// ---------------------------------------------------------------------------

TEST(KVCacheTest, PackFullPrefixThenAppendMatchesStreaming)
{
    const int64_t T = 150, d = 24, gs = 64;
    const Tensor rows = makeRows(T, d, 0xBEE);
    const KVCacheConfig cfg = makeConfig("int4", gs);

    KVCacheTensor streaming(d, cfg);
    for (int64_t i = 0; i < T; ++i)
        streaming.append(rowOf(rows, i, d));
    const KVCacheTensor oracle = KVCacheTensor::packFull(rows, cfg);

    // Prefixes that leave a ragged open group (1, 100) and that close
    // on a group boundary (64, 128): packFull must rebuild the open
    // group's floats and sketch — or leave them empty — exactly as
    // streaming the prefix would.
    for (int64_t prefix : {1, 64, 100, 128}) {
        SCOPED_TRACE("prefix " + std::to_string(prefix));
        KVCacheTensor prefilled =
            KVCacheTensor::packFull(slabOf(rows, 0, prefix, d), cfg);
        ASSERT_EQ(prefilled.timesteps(), prefix);
        for (int64_t i = prefix; i < T; ++i)
            prefilled.append(rowOf(rows, i, d));

        expectBitwiseEqual(prefilled, streaming);
        expectBitwiseEqual(prefilled, oracle);
    }
}

// ---------------------------------------------------------------------------
// Copy-on-write: an outstanding packed() snapshot is immutable under
// further appends (the tail re-pack clones the payload words).
// ---------------------------------------------------------------------------

TEST(KVCacheTest, SnapshotsAreImmutableUnderAppend)
{
    const int64_t T = 70, extra = 30, d = 16, gs = 32;
    const Tensor rows = makeRows(T + extra, d, 0xE0);
    KVCacheTensor cache(d, makeConfig("int4", gs));
    for (int64_t i = 0; i < T; ++i)
        cache.append(rowOf(rows, i, d));

    const QTensor snap = cache.packed();
    const std::vector<uint64_t> frozen(snap.words().begin(),
                                       snap.words().end());
    const std::vector<double> frozen_scales = snap.scales();
    const Tensor frozen_deq = snap.unpack();

    for (int64_t i = T; i < T + extra; ++i)
        cache.append(rowOf(rows, i, d));

    // The snapshot still reads the pre-append bits...
    ASSERT_EQ(snap.words().size(), frozen.size());
    for (size_t w = 0; w < frozen.size(); ++w)
        ASSERT_EQ(snap.words()[w], frozen[w]) << "word " << w;
    ASSERT_EQ(snap.scales(), frozen_scales);
    const Tensor deq_again = snap.unpack();
    for (int64_t i = 0; i < frozen_deq.numel(); ++i)
        ASSERT_EQ(deq_again[i], frozen_deq[i]);

    // ...while the cache moved on to a fresh payload.
    const QTensor now = cache.packed();
    EXPECT_FALSE(now.sharesPayloadWith(snap));
    ASSERT_EQ(now.shape().dim(0), T + extra);
}

TEST(KVCacheTest, PackedViewLayout)
{
    const int64_t T = 75, d = 16, gs = 32;
    const Tensor rows = makeRows(T, d, 0xF1);
    KVCacheTensor cache(d, makeConfig("flint4", gs));
    cache.append(rows);

    const QTensor p = cache.packed();
    ASSERT_EQ(p.shape(), (Shape{T, d}));
    // PerChannel layout: row t carries its time group's scale.
    ASSERT_EQ(static_cast<int64_t>(p.scales().size()), T);
    for (int64_t t = 0; t < T; ++t)
        ASSERT_EQ(p.scales()[static_cast<size_t>(t)],
                  cache.scales()[static_cast<size_t>(t / gs)]);
    // Two snapshots without an intervening append share the payload.
    EXPECT_TRUE(p.sharesPayloadWith(cache.packed()));
}

// ---------------------------------------------------------------------------
// Footprint accounting: the analytic twin the traffic simulator
// charges must equal a real cache's nbytes.
// ---------------------------------------------------------------------------

TEST(KVCacheTest, FootprintBytesMatchesRealCache)
{
    const struct
    {
        const char *spec;
        int bits;
        int64_t t, d, gs;
    } cases[] = {
        {"int4", 4, 129, 24, 64},
        {"int3", 3, 64, 24, 64},
        {"pot4u", 4, 200, 16, 128},
        {"flint4", 4, 1, 8, 128},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.spec);
        KVCacheTensor cache(c.d, makeConfig(c.spec, c.gs));
        cache.append(makeRows(c.t, c.d, 0x90));
        EXPECT_EQ(
            KVCacheTensor::footprintBytes(c.t, c.d, c.bits, c.gs),
            cache.nbytes());
        // The packed view's footprint differs only by the scale plane
        // replication (one scale per row vs per group).
        EXPECT_EQ(cache.packed().nbytes() +
                      static_cast<size_t>(cache.groups()) * 8,
                  cache.nbytes() + static_cast<size_t>(c.t) * 8);
    }
}

TEST(KVCacheTest, RepackedRowsTracksWriteAmplification)
{
    const int64_t T = 64, d = 8, gs = 32;
    KVCacheTensor cache(d, makeConfig("int4", gs));
    const Tensor rows = makeRows(T, d, 0x91);
    for (int64_t i = 0; i < T; ++i)
        cache.append(rowOf(rows, i, d));
    // Row-at-a-time: group row j is re-encoded on appends j..gs-1,
    // i.e. each full group costs gs*(gs+1)/2 re-encoded rows.
    EXPECT_EQ(cache.repackedRows(),
              static_cast<uint64_t>(2 * gs * (gs + 1) / 2));

    // One-shot append of a full group re-packs each row once.
    KVCacheTensor batched(d, makeConfig("int4", gs));
    batched.append(rows);
    EXPECT_EQ(batched.repackedRows(), static_cast<uint64_t>(T));
}

// ---------------------------------------------------------------------------
// Validation and error paths.
// ---------------------------------------------------------------------------

TEST(KVCacheTest, RejectsBrokenConfigsAndInputs)
{
    KVCacheConfig cfg = makeConfig("int4", 128);

    KVCacheConfig null_type = cfg;
    null_type.type = nullptr;
    EXPECT_THROW(KVCacheTensor(8, null_type), std::invalid_argument);

    KVCacheConfig wide = cfg;
    wide.type = parseType("int12");
    EXPECT_THROW(KVCacheTensor(8, wide), std::invalid_argument);

    KVCacheConfig bad_gs = cfg;
    bad_gs.groupSize = 0;
    EXPECT_THROW(KVCacheTensor(8, bad_gs), std::invalid_argument);

    EXPECT_THROW(KVCacheTensor(0, cfg), std::invalid_argument);

    KVCacheTensor cache(8, cfg);
    EXPECT_THROW(cache.packed(), std::logic_error);
    EXPECT_THROW(cache.dequant(), std::logic_error);

    // Row width must match: 12 floats do not tile rows of 8.
    Rng rng(1);
    EXPECT_THROW(
        cache.append(rng.laplaceOutlierTensor(Shape{12}, 1.f, 0.0, 1.f)),
        std::invalid_argument);
    EXPECT_THROW(KVCacheTensor::packFull(Tensor(Shape{0, 12}), cfg),
                 std::invalid_argument);
}

} // namespace
} // namespace ant
