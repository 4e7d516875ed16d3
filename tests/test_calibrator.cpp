/**
 * @file
 * Tests for the streaming calibration observer: batch-order exactness,
 * agreement with the single-pass reference search, shard merging, and
 * edge cases.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/calibrator.h"
#include "core/type_registry.h"
#include "tensor/random.h"

namespace ant {
namespace {

/** The distributions x types the calibration paths actually see. */
const DistFamily kDists[] = {
    DistFamily::WeightLike,
    DistFamily::Gaussian,
    DistFamily::Laplace,
    DistFamily::LaplaceOutlier,
};

std::vector<TypePtr>
signedCandidates()
{
    return {parseType("int4"), parseType("pot4"), parseType("flint4")};
}

TEST(Observer, StreamingEqualsSingleShot)
{
    // Observing batches b1..bN must leave bit-identical state to
    // observing their concatenation: the log-domain binning is
    // independent of the data seen so far, and accumulation order is
    // the stream order either way.
    Rng rng(61);
    const Tensor all = rng.tensor(Shape{8192}, DistFamily::WeightLike);

    Observer streamed;
    const int64_t chunk = 1000; // deliberately not a divisor of 8192
    for (int64_t off = 0; off < all.numel(); off += chunk)
        streamed.observe(all.data() + off,
                         std::min<int64_t>(chunk, all.numel() - off));

    Observer single;
    single.observe(all);

    EXPECT_EQ(streamed.count(), single.count());
    EXPECT_DOUBLE_EQ(streamed.absMax(), single.absMax());
    QuantConfig cfg;
    for (const TypePtr &t : signedCandidates()) {
        SCOPED_TRACE(t->spec());
        const KernelPtr k = cachedKernel(t);
        for (double s : {0.01, 0.02, 0.05})
            EXPECT_DOUBLE_EQ(streamed.approxMse(*k, s),
                             single.approxMse(*k, s));
        EXPECT_DOUBLE_EQ(streamed.searchScale(*t, cfg),
                         single.searchScale(*t, cfg));
    }
}

TEST(Observer, NBatchCalibrationMatchesConcatenatedExactPass)
{
    // The merge pin: calibrating from N batches picks the same scale
    // as one concatenated in-memory pass at SearchExactness::Exact.
    Rng rng(62);
    for (DistFamily f : kDists) {
        const Tensor all = rng.tensor(Shape{12288}, f);

        Observer obs;
        const int64_t batches = 6;
        const int64_t bs = all.numel() / batches;
        for (int64_t b = 0; b < batches; ++b)
            obs.observe(all.data() + b * bs, bs);

        QuantConfig exact;
        exact.exactness = SearchExactness::Exact;
        for (const TypePtr &t : signedCandidates()) {
            SCOPED_TRACE(std::string(distFamilyName(f)) + "/" +
                         t->spec());
            const double s_stream = obs.searchScale(*t, exact);
            const double s_concat =
                searchScale(all.data(), all.numel(), *t, exact);
            EXPECT_DOUBLE_EQ(s_stream, s_concat);
        }
    }
}

TEST(Observer, SelectTypeMatchesConcatenatedSelectType)
{
    Rng rng(63);
    for (DistFamily f : kDists) {
        SCOPED_TRACE(distFamilyName(f));
        const Tensor all = rng.tensor(Shape{12288}, f);

        Observer obs;
        for (int64_t b = 0; b < 4; ++b)
            obs.observe(all.data() + b * (all.numel() / 4),
                        all.numel() / 4);

        QuantConfig cfg;
        cfg.exactness = SearchExactness::Exact;
        const ObserverSelection sketch =
            obs.selectType(signedCandidates(), cfg);
        const TypeSelection exact =
            selectType(all, signedCandidates(), cfg);
        ASSERT_NE(sketch.type, nullptr);
        EXPECT_EQ(sketch.type->spec(), exact.type->spec());
        ASSERT_EQ(sketch.scores.size(), exact.scores.size());
        // Sketch MSEs track the exact per-candidate MSEs closely.
        for (size_t i = 0; i < sketch.scores.size(); ++i)
            EXPECT_NEAR(sketch.scores[i].mse, exact.scores[i].mse,
                        0.05 * exact.scores[i].mse + 1e-12)
                << sketch.scores[i].type->spec();
    }
}

TEST(Observer, MergeEqualsSequentialQueries)
{
    Rng rng(64);
    const Tensor all = rng.tensor(Shape{8192}, DistFamily::Gaussian);
    const int64_t half = all.numel() / 2;

    Observer seq;
    seq.observe(all);

    Observer shard1, shard2;
    shard1.observe(all.data(), half);
    shard2.observe(all.data() + half, half);
    shard1.merge(shard2);

    EXPECT_EQ(shard1.count(), seq.count());
    EXPECT_DOUBLE_EQ(shard1.absMax(), seq.absMax());
    QuantConfig cfg;
    for (const TypePtr &t : signedCandidates()) {
        SCOPED_TRACE(t->spec());
        // Merging reorders floating-point accumulation, so allow only
        // ulp-level drift in the scored MSEs; the chosen scale must
        // agree outright on non-degenerate data.
        EXPECT_EQ(shard1.searchScale(*t, cfg),
                  seq.searchScale(*t, cfg));
    }
}

TEST(Observer, MergeRejectsMismatchedConfigs)
{
    ObserverConfig a, b;
    b.isSigned = false;
    Observer oa(a), ob(b);
    EXPECT_THROW(oa.merge(ob), std::invalid_argument);
}

TEST(Observer, UnsignedModeClampsNegatives)
{
    // Unsigned grids clamp negatives to zero: they contribute a
    // scale-independent error term and never drive absmax.
    Observer obs(ObserverConfig{false});
    const float data[] = {-4.0f, -1.0f, 0.5f, 1.0f, 2.0f};
    obs.observe(data, 5);
    EXPECT_EQ(obs.count(), 5);
    EXPECT_DOUBLE_EQ(obs.absMax(), 2.0);

    const TypePtr t = parseType("int4u");
    QuantConfig cfg;
    cfg.scaleMode = ScaleMode::MaxCalib;
    const double s = obs.searchScale(*t, cfg);
    EXPECT_DOUBLE_EQ(s, 2.0 / t->maxValue());
    // Sketch MSE includes the (-4)^2 + (-1)^2 clamp error.
    const double mse = obs.approxMse(*cachedKernel(t), s);
    EXPECT_GE(mse, (16.0 + 1.0) / 5.0 - 1e-12);
}

TEST(Observer, EmptyAndZeroInputsAreSafe)
{
    Observer obs;
    EXPECT_TRUE(obs.empty());
    QuantConfig cfg;
    EXPECT_DOUBLE_EQ(obs.searchScale(*parseType("int4"), cfg), 0.0);

    const Tensor z = Tensor::zeros(Shape{64});
    obs.observe(z);
    EXPECT_EQ(obs.count(), 64);
    EXPECT_TRUE(obs.empty()) << "all-zero data has no scale to find";
    EXPECT_DOUBLE_EQ(obs.searchScale(*parseType("int4"), cfg), 0.0);

    const ObserverSelection sel =
        obs.selectType(signedCandidates(), cfg);
    ASSERT_NE(sel.type, nullptr);
    EXPECT_DOUBLE_EQ(sel.scale, 0.0);
}

TEST(Observer, ResetForgetsEverything)
{
    Rng rng(66);
    Observer obs;
    obs.observe(rng.tensor(Shape{1024}, DistFamily::Gaussian));
    EXPECT_FALSE(obs.empty());
    obs.reset();
    EXPECT_TRUE(obs.empty());
    EXPECT_EQ(obs.count(), 0);
    EXPECT_DOUBLE_EQ(obs.absMax(), 0.0);
}

TEST(Observer, PowerOfTwoQueriesPickPowerOfTwoScales)
{
    Rng rng(67);
    Observer obs;
    obs.observe(rng.tensor(Shape{4096}, DistFamily::Gaussian));
    QuantConfig cfg;
    cfg.scaleMode = ScaleMode::PowerOfTwo;
    const double s =
        obs.searchScale(*parseType("float_e4m3"), cfg);
    ASSERT_GT(s, 0.0);
    const double lg = std::log2(s);
    EXPECT_NEAR(lg, std::round(lg), 1e-9);
}

// ---------------------------------------------------------------------
// GroupObserver: streaming per-group sketches
// ---------------------------------------------------------------------

TEST(GroupObserver, StreamingEqualsSingleShot)
{
    // Batch-order exactness lifts to groups: observing row batches
    // b1..bN leaves every group sketch bit-identical to observing the
    // full tensor once, so streamed per-group calibration replays the
    // single-pass reference.
    Rng rng(71);
    const Tensor all =
        rng.laplaceOutlierTensor(Shape{48, 80}, 1.0f, 0.02, 8.0f);
    const int64_t gs = 32; // 80 -> groups of 32/32/16 (ragged)

    GroupObserver streamed(gs);
    for (int64_t r = 0; r < 48; r += 5) { // 5 does not divide 48
        const int64_t rows = std::min<int64_t>(5, 48 - r);
        Tensor batch{Shape{rows, 80}};
        for (int64_t i = 0; i < rows * 80; ++i)
            batch[i] = all[r * 80 + i];
        streamed.observe(batch);
    }
    GroupObserver single(gs);
    single.observe(all);

    ASSERT_EQ(streamed.groups(), 3);
    ASSERT_EQ(single.groups(), 3);
    EXPECT_EQ(streamed.featureDim(), 80);
    EXPECT_EQ(streamed.count(), single.count());

    QuantConfig cfg;
    const GroupObserverSelection a =
        streamed.selectType(signedCandidates(), cfg);
    const GroupObserverSelection b =
        single.selectType(signedCandidates(), cfg);
    ASSERT_EQ(a.types.size(), b.types.size());
    for (size_t g = 0; g < a.types.size(); ++g) {
        EXPECT_EQ(a.types[g]->spec(), b.types[g]->spec());
        EXPECT_EQ(a.scales[g], b.scales[g]); // bitwise
    }
    EXPECT_DOUBLE_EQ(a.mse, b.mse);
}

TEST(GroupObserver, ScalesMatchPerGroupObserverQueries)
{
    // searchScales must answer exactly what a per-group Observer over
    // the same column slices would: the group observer is sugar, not a
    // different estimator.
    Rng rng(72);
    const Tensor t = rng.tensor(Shape{16, 96}, DistFamily::Laplace);
    const int64_t gs = 40; // 96 -> 40/40/16
    GroupObserver gobs(gs);
    gobs.observe(t);

    QuantConfig cfg;
    const TypePtr int4 = parseType("int4");
    const std::vector<double> got = gobs.searchScales(*int4, cfg);
    ASSERT_EQ(got.size(), 3u);
    for (int64_t g = 0; g < 3; ++g) {
        Observer ref;
        const int64_t off = g * gs;
        const int64_t len = std::min<int64_t>(gs, 96 - off);
        for (int64_t r = 0; r < 16; ++r)
            ref.observe(t.data() + r * 96 + off, len);
        EXPECT_EQ(got[static_cast<size_t>(g)],
                  ref.searchScale(*int4, cfg))
            << "group " << g;
    }
}

TEST(GroupObserver, MergeEqualsSequentialObservation)
{
    Rng rng(73);
    const Tensor t1 = rng.tensor(Shape{8, 64}, DistFamily::Gaussian);
    const Tensor t2 = rng.tensor(Shape{8, 64}, DistFamily::Laplace);

    GroupObserver seq(16);
    seq.observe(t1);
    seq.observe(t2);

    GroupObserver shard1(16), shard2(16);
    shard1.observe(t1);
    shard2.observe(t2);
    shard1.merge(shard2);

    QuantConfig cfg;
    const auto a = seq.selectType(signedCandidates(), cfg);
    const auto b = shard1.selectType(signedCandidates(), cfg);
    ASSERT_EQ(a.scales.size(), b.scales.size());
    for (size_t g = 0; g < a.scales.size(); ++g)
        EXPECT_EQ(a.scales[g], b.scales[g]);

    // Merging into an empty shard adopts the other side wholesale.
    GroupObserver empty(16);
    empty.merge(seq);
    EXPECT_EQ(empty.count(), seq.count());
    EXPECT_EQ(empty.groups(), seq.groups());
}

TEST(GroupObserver, SharedModePicksOneTypePerGroupModeMayDiffer)
{
    Rng rng(74);
    const Tensor t =
        rng.laplaceOutlierTensor(Shape{32, 128}, 1.0f, 0.05, 16.0f);
    GroupObserver gobs(32);
    gobs.observe(t);
    QuantConfig cfg;
    const auto shared = gobs.selectType(signedCandidates(), cfg,
                                        GroupTypeMode::Shared);
    for (const TypePtr &ty : shared.types)
        EXPECT_EQ(ty->spec(), shared.types.front()->spec());
    const auto per_group = gobs.selectType(signedCandidates(), cfg,
                                           GroupTypeMode::PerGroup);
    EXPECT_LE(per_group.mse, shared.mse + 1e-15);
}

TEST(GroupObserver, RejectsBadUsage)
{
    EXPECT_THROW(GroupObserver{0}, std::invalid_argument);
    GroupObserver gobs(16);
    QuantConfig cfg;
    EXPECT_THROW(gobs.selectType(signedCandidates(), cfg),
                 std::logic_error); // nothing observed
    Rng rng(75);
    gobs.observe(rng.tensor(Shape{4, 64}, DistFamily::Gaussian));
    EXPECT_THROW(
        gobs.observe(rng.tensor(Shape{4, 32}, DistFamily::Gaussian)),
        std::invalid_argument); // feature dim changed
    GroupObserver other(8);
    EXPECT_THROW(gobs.merge(other), std::invalid_argument);
    // Config mismatch throws on every branch, including adoption into
    // a never-observed shard (whose per-sketch checks can't run).
    ObserverConfig unsigned_cfg;
    unsigned_cfg.isSigned = false;
    GroupObserver fresh(16);
    GroupObserver mismatched(16, unsigned_cfg);
    mismatched.observe(rng.tensor(Shape{2, 64}, DistFamily::Gaussian));
    EXPECT_THROW(fresh.merge(mismatched), std::invalid_argument);
    EXPECT_THROW(gobs.selectType({}, cfg), std::invalid_argument);
    gobs.reset();
    EXPECT_EQ(gobs.groups(), 0);
    EXPECT_EQ(gobs.featureDim(), 0);
}

} // namespace
} // namespace ant
