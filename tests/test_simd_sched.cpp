/**
 * @file
 * Bitwise pins for the PR's two perf rewrites.
 *
 * 1. SIMD-vs-scalar golden parity: every dispatched batch entry point
 *    (quantizeBatch / encodeBatch / unpackBatch / packBatch*) must be
 *    bitwise identical to its public `*Scalar` oracle for every
 *    registered spec at 2–8 bits, over adversarial inputs, multiple
 *    scales (including degenerate), and unaligned bit offsets.
 *
 * 2. Thread-count x schedule invariance: quantize / selectTypePerGroup /
 *    QTensor pack / unpack must produce bitwise identical results for
 *    ANT_THREADS in {1, 2, 7, 8} x {Static, Stealing} on ragged shapes
 *    and heterogeneous group types.
 *
 * On machines without AVX2 (or with ANT_DISABLE_AVX2 builds) part 1
 * degenerates to oracle-vs-oracle — still a valid run, just not an
 * interesting one; CI pairs this suite with an AVX2 runner.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/qtensor.h"
#include "core/quant_kernel.h"
#include "core/quantizer.h"
#include "core/type_selector.h"
#include "tensor/parallel.h"
#include "tensor/random.h"
#include "tensor/vec.h"

namespace ant {
namespace {

/** Every constructible spec family at every width in [2, 8]. */
std::vector<TypePtr>
specMatrix()
{
    std::vector<TypePtr> out;
    const auto tryAdd = [&](auto make) {
        try {
            out.push_back(make());
        } catch (const std::invalid_argument &) {
            // Width/signedness combination this family cannot express
            // (e.g. signed flint-2 has no room for a magnitude bit).
        }
    };
    for (int bits = 2; bits <= 8; ++bits) {
        for (bool is_signed : {false, true}) {
            tryAdd([&] { return makeInt(bits, is_signed); });
            tryAdd([&] { return makePoT(bits, is_signed); });
            tryAdd([&] { return makeFlint(bits, is_signed); });
            tryAdd([&] { return makeDefaultFloat(bits, is_signed); });
        }
    }
    return out;
}

/** Random draws plus grid points, tie midpoints, clamp extremes, both
 *  zeros, and values driving floor()'s -0.0 and overflow behaviour. */
std::vector<float>
adversarialValues(const NumericType &type, double scale)
{
    Rng rng(1234);
    std::vector<float> v;
    for (int i = 0; i < 997; ++i) // odd count: exercises SIMD tails
        v.push_back(rng.gaussian(0.0f, static_cast<float>(
                                           scale * type.maxValue())));
    for (double g : type.grid()) {
        const float f = static_cast<float>(g * scale);
        v.push_back(f);
        v.push_back(
            std::nextafter(f, std::numeric_limits<float>::max()));
        v.push_back(
            std::nextafter(f, -std::numeric_limits<float>::max()));
    }
    const auto &grid = type.grid();
    for (size_t i = 0; i + 1 < grid.size(); ++i)
        v.push_back(static_cast<float>(0.5 * (grid[i] + grid[i + 1]) *
                                       scale));
    v.push_back(0.0f);
    v.push_back(-0.0f);
    v.push_back(1e30f);
    v.push_back(-1e30f);
    v.push_back(1e-30f);
    v.push_back(-1e-30f);
    v.push_back(std::numeric_limits<float>::max());
    v.push_back(-std::numeric_limits<float>::max());
    return v;
}

/** Bitwise float comparison (distinguishes -0.0 from +0.0). */
bool
sameBits(float a, float b)
{
    uint32_t ua, ub;
    std::memcpy(&ua, &a, 4);
    std::memcpy(&ub, &b, 4);
    return ua == ub;
}

bool
sameBits(double a, double b)
{
    uint64_t ua, ub;
    std::memcpy(&ua, &a, 8);
    std::memcpy(&ub, &b, 8);
    return ua == ub;
}

const double kScales[] = {1.0, 0.0371, 3.7e-3, 256.25, 1e-20,
                          0.0,  // degenerate
                          -1.0, // degenerate
                          std::numeric_limits<double>::infinity()};

TEST(SimdParity, QuantizeBatchMatchesScalarOracle)
{
    for (const TypePtr &type : specMatrix()) {
        const QuantKernel kernel(*type);
        for (double scale : kScales) {
            const std::vector<float> in =
                adversarialValues(*type, scale == 0.0 ? 1.0 : scale);
            const int64_t n = static_cast<int64_t>(in.size());
            std::vector<float> got(in.size()), want(in.size());
            const double got_mse =
                kernel.quantizeBatch(in.data(), got.data(), n, scale);
            const double want_mse = kernel.quantizeBatchScalar(
                in.data(), want.data(), n, scale);
            EXPECT_TRUE(sameBits(got_mse, want_mse))
                << type->spec() << " scale=" << scale;
            for (int64_t i = 0; i < n; ++i)
                ASSERT_TRUE(sameBits(got[static_cast<size_t>(i)],
                                     want[static_cast<size_t>(i)]))
                    << type->spec() << " scale=" << scale << " i=" << i
                    << " in=" << in[static_cast<size_t>(i)] << " got="
                    << got[static_cast<size_t>(i)] << " want="
                    << want[static_cast<size_t>(i)];
            // MSE-only call (out = nullptr) takes the same path.
            EXPECT_TRUE(sameBits(
                kernel.mseBatch(in.data(), n, scale), want_mse))
                << type->spec() << " scale=" << scale;
        }
    }
}

TEST(SimdParity, EncodeBatchMatchesScalarOracle)
{
    for (const TypePtr &type : specMatrix()) {
        const QuantKernel kernel(*type);
        for (double scale : kScales) {
            const std::vector<float> in =
                adversarialValues(*type, scale == 0.0 ? 1.0 : scale);
            const int64_t n = static_cast<int64_t>(in.size());
            std::vector<uint32_t> got(in.size()), want(in.size());
            kernel.encodeBatch(in.data(), got.data(), n, scale);
            kernel.encodeBatchScalar(in.data(), want.data(), n, scale);
            for (int64_t i = 0; i < n; ++i)
                ASSERT_EQ(got[static_cast<size_t>(i)],
                          want[static_cast<size_t>(i)])
                    << type->spec() << " scale=" << scale << " i=" << i
                    << " in=" << in[static_cast<size_t>(i)];
        }
    }
}

TEST(SimdParity, NanClampsLowOnEveryPath)
{
    // NaN reaches the grid search as a NaN input or as inf * 0 at a
    // degenerate scale; every path must clamp it to the grid minimum
    // instead of searching (and reading before) the grid.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> in = {nan, -nan, inf, -inf};
    const int64_t n = static_cast<int64_t>(in.size());
    for (const TypePtr &type : specMatrix()) {
        const QuantKernel kernel(*type);
        EXPECT_EQ(kernel.quantizeValue(nan), type->minValue())
            << type->spec();
        EXPECT_EQ(type->quantizeValue(nan), type->minValue())
            << type->spec();
        for (double scale : kScales) {
            std::vector<uint32_t> got(in.size()), want(in.size());
            kernel.encodeBatch(in.data(), got.data(), n, scale);
            kernel.encodeBatchScalar(in.data(), want.data(), n, scale);
            EXPECT_EQ(got, want) << type->spec() << " scale=" << scale;
            EXPECT_EQ(type->codeValue(want[0]), type->minValue())
                << type->spec() << " scale=" << scale;
        }
    }
}

TEST(SimdParity, PackAndUnpackMatchScalarOracleAtEveryOffset)
{
    for (const TypePtr &type : specMatrix()) {
        const QuantKernel kernel(*type);
        const int b = type->bits();
        const double scale = 0.731;
        const std::vector<float> in = adversarialValues(*type, scale);
        const int64_t n = static_cast<int64_t>(in.size());
        // Offsets: word-aligned, element-aligned mid-word, and (for the
        // general path) a bit offset that is not a multiple of b.
        for (int64_t bit_base : {int64_t{0}, int64_t{b * 7}, int64_t{64},
                                 int64_t{65}}) {
            const int64_t total_words = (bit_base + n * b + 63) / 64;
            std::vector<uint64_t> words(
                static_cast<size_t>(total_words), 0);
            kernel.packBatch(in.data(), n, scale, words.data(),
                             bit_base);

            // The packed codes must be what encodeBatch produces.
            std::vector<uint32_t> codes(in.size());
            kernel.encodeBatch(in.data(), codes.data(), n, scale);
            const uint64_t mask = (uint64_t{1} << b) - 1;
            for (int64_t i = 0; i < n; ++i) {
                const int64_t pos = bit_base + i * b;
                const int64_t w = pos >> 6;
                const int off = static_cast<int>(pos & 63);
                uint64_t code =
                    words[static_cast<size_t>(w)] >> off;
                if (off + b > 64)
                    code |= words[static_cast<size_t>(w) + 1]
                            << (64 - off);
                ASSERT_EQ(code & mask,
                          codes[static_cast<size_t>(i)])
                    << type->spec() << " bit_base=" << bit_base
                    << " i=" << i;
            }

            // Dispatched unpack vs the scalar oracle, bitwise.
            std::vector<float> got(in.size()), want(in.size());
            kernel.unpackBatch(words.data(), bit_base, n, scale,
                               got.data());
            kernel.unpackBatchScalar(words.data(), bit_base, n, scale,
                                     want.data());
            for (int64_t i = 0; i < n; ++i)
                ASSERT_TRUE(sameBits(got[static_cast<size_t>(i)],
                                     want[static_cast<size_t>(i)]))
                    << type->spec() << " bit_base=" << bit_base
                    << " i=" << i;

            // Degenerate scale decodes to all +0.0f on both paths.
            kernel.unpackBatch(words.data(), bit_base, n, 0.0,
                               got.data());
            for (int64_t i = 0; i < n; ++i)
                ASSERT_TRUE(
                    sameBits(got[static_cast<size_t>(i)], 0.0f));
        }
    }
}

TEST(SimdParity, PackBatchWindowTilesMatchFullPack)
{
    for (const TypePtr &type : specMatrix()) {
        const QuantKernel kernel(*type);
        const int b = type->bits();
        const double scale = 1.625;
        const std::vector<float> in = adversarialValues(*type, scale);
        const int64_t n = static_cast<int64_t>(in.size());
        const int64_t total_words = (n * b + 63) / 64;
        std::vector<uint64_t> full(static_cast<size_t>(total_words), 0);
        kernel.packBatch(in.data(), n, scale, full.data(), 0);

        // Re-pack through word windows of a prime width; every window
        // re-encodes its edge elements, masked writes keep words
        // disjoint — the result must be identical.
        std::vector<uint64_t> tiled(static_cast<size_t>(total_words),
                                    0);
        const int64_t win = 7;
        for (int64_t w0 = 0; w0 < total_words; w0 += win) {
            const int64_t w1 = std::min(total_words, w0 + win);
            const int64_t e0 = (w0 * 64) / b;
            const int64_t e1 = std::min(n, (w1 * 64 + b - 1) / b);
            kernel.packBatchWindow(in.data() + e0, e1 - e0, scale,
                                   tiled.data(), e0 * b, w0, w1);
        }
        for (int64_t w = 0; w < total_words; ++w)
            ASSERT_EQ(tiled[static_cast<size_t>(w)],
                      full[static_cast<size_t>(w)])
                << type->spec() << " word " << w;
    }
}

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

/** Ragged fixture: 7 channels x 131 elements, group size 16 leaves a
 *  ragged 3-element tail group per channel. */
Tensor
raggedTensor()
{
    Rng rng(77);
    Tensor t{Shape{7, 131}};
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = rng.gaussian(0.0f, 2.5f);
    return t;
}

TEST(SchedInvariance, QuantizePerGroupBitwiseAcrossThreadsAndSchedules)
{
    const Tensor t = raggedTensor();
    QuantConfig cfg;
    cfg.type = makeFlint(4, true);
    cfg.granularity = Granularity::PerGroup;
    cfg.groupSize = 16;

    QuantResult ref;
    {
        SchedGuard guard(1, Schedule::Static);
        ref = quantize(t, cfg);
    }
    for (int threads : {1, 2, 7, 8}) {
        for (Schedule sched : {Schedule::Static, Schedule::Stealing}) {
            SchedGuard guard(threads, sched);
            const QuantResult got = quantize(t, cfg);
            EXPECT_TRUE(sameBits(got.mse, ref.mse))
                << threads << " threads";
            ASSERT_EQ(got.scales.size(), ref.scales.size());
            for (size_t i = 0; i < ref.scales.size(); ++i)
                ASSERT_TRUE(sameBits(got.scales[i], ref.scales[i]))
                    << threads << " threads, scale " << i;
            ASSERT_EQ(got.dequant.numel(), ref.dequant.numel());
            for (int64_t i = 0; i < ref.dequant.numel(); ++i)
                ASSERT_TRUE(sameBits(got.dequant.data()[i],
                                     ref.dequant.data()[i]))
                    << threads << " threads, elem " << i;
        }
    }
}

TEST(SchedInvariance, SelectTypePerGroupBitwiseAcrossThreadsAndSchedules)
{
    const Tensor t = raggedTensor();
    QuantConfig cfg;
    cfg.granularity = Granularity::PerGroup;
    cfg.groupSize = 16;
    const std::vector<TypePtr> candidates = {
        makeInt(4, true), makeFlint(4, true), makePoT(4, true)};

    GroupTypeSelection ref;
    {
        SchedGuard guard(1, Schedule::Static);
        ref = selectTypePerGroup(t, candidates, cfg,
                                 GroupTypeMode::PerGroup);
    }
    for (int threads : {2, 7, 8}) {
        for (Schedule sched : {Schedule::Static, Schedule::Stealing}) {
            SchedGuard guard(threads, sched);
            const GroupTypeSelection got = selectTypePerGroup(
                t, candidates, cfg, GroupTypeMode::PerGroup);
            EXPECT_TRUE(sameBits(got.mse, ref.mse));
            ASSERT_EQ(got.types.size(), ref.types.size());
            for (size_t i = 0; i < ref.types.size(); ++i) {
                ASSERT_EQ(got.types[i]->spec(), ref.types[i]->spec());
                ASSERT_TRUE(sameBits(got.scales[i], ref.scales[i]));
            }
            for (int64_t i = 0; i < ref.dequant.numel(); ++i)
                ASSERT_TRUE(sameBits(got.dequant.data()[i],
                                     ref.dequant.data()[i]));
        }
    }
}

TEST(SchedInvariance, QTensorPackUnpackBitwiseAcrossThreadsAndSchedules)
{
    const Tensor t = raggedTensor();
    QuantConfig cfg;
    cfg.granularity = Granularity::PerGroup;
    cfg.groupSize = 16;
    // Heterogeneous per-group types (the ragged decode case).
    std::vector<TypePtr> candidates = {makeInt(4, true),
                                       makeFlint(4, true)};
    GroupTypeSelection sel;
    std::vector<uint64_t> ref_words;
    std::vector<float> ref_out;
    {
        SchedGuard guard(1, Schedule::Static);
        sel = selectTypePerGroup(t, candidates, cfg,
                                 GroupTypeMode::PerGroup);
        const QTensor q =
            QTensor::pack(t, makeInt(4, true), Granularity::PerGroup,
                          sel.scales, 16, sel.types);
        ref_words.assign(q.words().begin(), q.words().end());
        const Tensor out = q.unpack();
        ref_out.assign(out.data(), out.data() + out.numel());
    }
    for (int threads : {1, 2, 7, 8}) {
        for (Schedule sched : {Schedule::Static, Schedule::Stealing}) {
            SchedGuard guard(threads, sched);
            const QTensor q = QTensor::pack(t, makeInt(4, true),
                                            Granularity::PerGroup,
                                            sel.scales, 16, sel.types);
            ASSERT_EQ(q.words().size(), ref_words.size());
            for (size_t w = 0; w < ref_words.size(); ++w)
                ASSERT_EQ(q.words()[w], ref_words[w])
                    << threads << " threads, word " << w;
            const Tensor out = q.unpack();
            for (int64_t i = 0; i < out.numel(); ++i)
                ASSERT_TRUE(sameBits(out.data()[i],
                                     ref_out[static_cast<size_t>(i)]))
                    << threads << " threads, elem " << i;
        }
    }
}

TEST(SchedInvariance, GrainForCostFollowsTheDocumentedRule)
{
    // ~100us of work per chunk.
    EXPECT_EQ(grainForCost(100.0), 1000);
    EXPECT_EQ(grainForCost(1.0), 100000);
    EXPECT_EQ(grainForCost(1e9), 1);   // one huge item per chunk
    EXPECT_EQ(grainForCost(0.0), 1);   // degenerate estimates clamp
    EXPECT_EQ(grainForCost(-5.0), 1);
}

} // namespace
} // namespace ant
