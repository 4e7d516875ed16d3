/**
 * @file
 * Differential parity harness for the packed-domain execution engine
 * (core/packed_gemm.h): the serving GEMM vs unpack-then-sgemm, bitwise,
 * over a {type} x {granularity} x {shape} matrix including ragged and
 * heterogeneous per-group layouts and the 1-D/empty fallbacks; the
 * integer-datapath GEMM vs a scalar model of the same dataflow
 * (bitwise) and vs the float path (approximately); thread-count
 * invariance; and the end-to-end transformer forward served off a
 * ModelArtifact with no float weight materialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/packed_gemm.h"
#include "core/type_registry.h"
#include "nn/models.h"
#include "nn/qat.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/random.h"

namespace ant {
namespace {

void
expectBitwiseEqual(const Tensor &got, const Tensor &want,
                   const std::string &what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (int64_t i = 0; i < got.numel(); ++i)
        ASSERT_EQ(got[i], want[i]) << what << " elem " << i;
}

/** absmax/maxValue scales in the frozen layout of (g, gs). */
std::vector<double>
layoutScales(const Tensor &t, const TypePtr &type, Granularity g,
             int64_t gs, const std::vector<TypePtr> &gts = {})
{
    const auto amaxOf = [&](int64_t off, int64_t len) {
        double m = 0.0;
        for (int64_t i = 0; i < len; ++i)
            m = std::max(m,
                         std::fabs(static_cast<double>(t[off + i])));
        return m;
    };
    if (g == Granularity::PerTensor || t.ndim() < 2)
        return {amaxOf(0, t.numel()) / type->maxValue()};
    const int64_t channels = t.dim(0);
    const int64_t chunk = t.numel() / channels;
    std::vector<double> scales;
    if (g == Granularity::PerChannel) {
        for (int64_t c = 0; c < channels; ++c)
            scales.push_back(amaxOf(c * chunk, chunk) /
                             type->maxValue());
        return scales;
    }
    const int64_t gpc = (chunk + gs - 1) / gs;
    for (int64_t c = 0; c < channels; ++c)
        for (int64_t gi = 0; gi < gpc; ++gi) {
            const TypePtr &gt =
                gts.empty() ? type
                            : gts[static_cast<size_t>(c * gpc + gi)];
            scales.push_back(
                amaxOf(c * chunk + gi * gs,
                       std::min(gs, chunk - gi * gs)) /
                gt->maxValue());
        }
    return scales;
}

struct Layout
{
    const char *label;
    Granularity g;
    int64_t gs;
};

TEST(PackedGemm, ServingGemmMatchesUnpackThenSgemmBitwise)
{
    // Every type x layout x a shape sweep whose K is sometimes ragged
    // against the group size and whose bit stream straddles word
    // boundaries. The widths (2..8, odd and even) and the 3-element
    // groups reach every QuantKernel::unpackBatch tier: scalar
    // fallback, 8- and 32-entry permute, gather and fused int4.
    Rng rng(90);
    Rng shape_rng(91);
    const Layout layouts[] = {
        {"per-tensor", Granularity::PerTensor, 0},
        {"per-channel", Granularity::PerChannel, 0},
        {"per-group-64", Granularity::PerGroup, 64},
        {"per-group-128", Granularity::PerGroup, 128},
        {"per-group-ragged", Granularity::PerGroup, 48},
        {"per-group-3", Granularity::PerGroup, 3},
    };
    for (const char *spec : {"int4", "flint4", "pot4u", "float_e4m3",
                             "flint2u", "int3", "flint5", "int6",
                             "int8"}) {
        const TypePtr type = parseType(spec);
        for (const Layout &lay : layouts) {
            const int64_t m = shape_rng.randint(1, 6);
            const int64_t n = shape_rng.randint(1, 9);
            const int64_t k = shape_rng.randint(1, 310);
            SCOPED_TRACE(std::string(spec) + "/" + lay.label +
                         " m=" + std::to_string(m) +
                         " n=" + std::to_string(n) +
                         " k=" + std::to_string(k));
            const Tensor w =
                rng.tensor(Shape{n, k}, DistFamily::WeightLike);
            const Tensor a =
                rng.tensor(Shape{m, k}, DistFamily::Gaussian);
            const QTensor q = QTensor::pack(
                w, type, lay.g, layoutScales(w, type, lay.g, lay.gs),
                lay.gs);
            expectBitwiseEqual(packedMatmulBT(a, q),
                               ops::matmulBT(a, q.unpack()), "BT");
        }
    }
}

TEST(PackedGemm, HeterogeneousGroupTypesMatchBitwise)
{
    // Per-group Algorithm 2 output: groups carry their own same-width
    // type; the GEMM must dispatch the right decode table per group.
    Rng rng(92);
    const int64_t n = 3, k = 10, gs = 4, gpc = 3; // ragged last group
    const Tensor w = rng.tensor(Shape{n, k}, DistFamily::Gaussian);
    const Tensor a = rng.tensor(Shape{4, k}, DistFamily::Gaussian);
    const TypePtr rot[] = {parseType("int4"), parseType("pot4"),
                           parseType("flint4")};
    std::vector<TypePtr> gts;
    for (int64_t i = 0; i < n * gpc; ++i)
        gts.push_back(rot[static_cast<size_t>(i % 3)]);
    const QTensor q = QTensor::pack(
        w, parseType("int4"), Granularity::PerGroup,
        layoutScales(w, parseType("int4"), Granularity::PerGroup, gs,
                     gts),
        gs, gts);
    expectBitwiseEqual(packedMatmulBT(a, q),
                       ops::matmulBT(a, q.unpack()), "hetero BT");
}

TEST(PackedGemm, DegenerateScalesDecodeAsPositiveZeros)
{
    // An all-zero channel freezes scale 0; the GEMM's LUT must write
    // +0.0f for it exactly like unpackBatch's degenerate path.
    Rng rng(93);
    Tensor w = rng.tensor(Shape{4, 33}, DistFamily::Gaussian);
    for (int64_t i = 33; i < 66; ++i) w[i] = 0.0f; // channel 1
    const Tensor a = rng.tensor(Shape{3, 33}, DistFamily::Gaussian);
    const TypePtr type = parseType("flint4");
    const std::vector<double> scales =
        layoutScales(w, type, Granularity::PerChannel, 0);
    ASSERT_EQ(scales[1], 0.0);
    const QTensor q =
        QTensor::pack(w, type, Granularity::PerChannel, scales);
    const Tensor y = packedMatmulBT(a, q);
    expectBitwiseEqual(y, ops::matmulBT(a, q.unpack()), "degenerate");
    for (int64_t i = 0; i < a.dim(0); ++i)
        EXPECT_EQ(y[i * 4 + 1], 0.0f);
}

TEST(PackedGemm, OneDAndEmptyFallbacks)
{
    Rng rng(94);
    // 1-D payload: a single packed row (the documented single-scale
    // fallback layout).
    const int64_t k = 77;
    const Tensor w = rng.tensor(Shape{k}, DistFamily::Gaussian);
    const Tensor a = rng.tensor(Shape{5, k}, DistFamily::Gaussian);
    const TypePtr type = parseType("int4");
    const QTensor q = QTensor::pack(
        w, type, Granularity::PerTensor,
        layoutScales(w, type, Granularity::PerTensor, 0));
    const Tensor y = packedMatmulBT(a, q);
    expectBitwiseEqual(y,
                       ops::matmulBT(a, q.unpack().reshaped(
                                            Shape{1, k})),
                       "1-D");

    // Zero-element payload: [m, 0] output, no reads.
    const QTensor empty_q =
        QTensor::pack(Tensor{Shape{0, 4}}, type,
                      Granularity::PerTensor, {0.5});
    const Tensor ye = packedMatmulBT(Tensor{Shape{3, 4}}, empty_q);
    EXPECT_EQ(ye.shape(), (Shape{3, 0}));

    // Shape mismatches fail loudly.
    EXPECT_THROW(packedMatmulBT(Tensor{Shape{2, k + 1}}, q),
                 std::invalid_argument);
    EXPECT_THROW(packedMatmulBT(Tensor{Shape{k}}, q),
                 std::invalid_argument);
    EXPECT_THROW(packedMatmulBT(a, QTensor{}), std::invalid_argument);
}

TEST(PackedGemm, BackwardMatmulMatchesWithZeroSkip)
{
    // packedMatmul must replicate ops::matmul bit for bit, including
    // its skip of zero lhs entries (float accumulation order differs
    // from matmulBT, so this pins the other inner-loop shape too).
    Rng rng(95);
    const int64_t m = 6, n = 9, k = 131;
    const Tensor w = rng.tensor(Shape{n, k}, DistFamily::WeightLike);
    Tensor g = rng.tensor(Shape{m, n}, DistFamily::Gaussian);
    for (int64_t i = 0; i < g.numel(); i += 3) g[i] = 0.0f;
    for (const char *spec : {"int4", "flint4", "float_e4m3", "int3",
                             "flint5", "int6", "int8"})
        for (const int64_t gs : {37, 3}) {
            SCOPED_TRACE(std::string(spec) + " gs=" +
                         std::to_string(gs));
            const TypePtr type = parseType(spec);
            const QTensor q = QTensor::pack(
                w, type, Granularity::PerGroup,
                layoutScales(w, type, Granularity::PerGroup, gs), gs);
            expectBitwiseEqual(packedMatmul(g, q),
                               ops::matmul(g, q.unpack()), "matmul");
        }
}

TEST(PackedGemm, ResultsAreThreadCountInvariant)
{
    Rng rng(96);
    const Tensor w = rng.tensor(Shape{12, 260}, DistFamily::Gaussian);
    const Tensor a = rng.tensor(Shape{40, 260}, DistFamily::Gaussian);
    const TypePtr type = parseType("flint4");
    const QTensor qw = QTensor::pack(
        w, type, Granularity::PerGroup,
        layoutScales(w, type, Granularity::PerGroup, 64), 64);
    const QTensor qa = QTensor::pack(
        a, type, Granularity::PerChannel,
        layoutScales(a, type, Granularity::PerChannel, 0));
    setParallelThreads(1);
    const Tensor bt1 = packedMatmulBT(a, qw);
    const Tensor mm1 = packedMatmul(
        rng.tensor(Shape{3, 12}, DistFamily::Gaussian), qw);
    const Tensor ig1 = packedGemmInt(qa, qw);
    setParallelThreads(8);
    expectBitwiseEqual(packedMatmulBT(a, qw), bt1, "BT threads");
    expectBitwiseEqual(packedGemmInt(qa, qw), ig1, "int threads");
    setParallelThreads(0);
    // (mm1's lhs was consumed above; just check it computed.)
    EXPECT_EQ(mm1.shape(), (Shape{3, 260}));
}

/**
 * Scalar model of the integer datapath, written independently of the
 * kernel's tiling: decode each code to its common-exponent integer via
 * the public DecodedGrid, run each merged-boundary segment as one
 * int64 dot, and rescale once per segment — the documented dataflow.
 */
float
intGemmRefEntry(const QTensor &a, const QTensor &b, int64_t i,
                int64_t j)
{
    const auto planOf = [](const QTensor &q) {
        struct P
        {
            int64_t chunk, gs, gpc;
            Granularity g;
        } p{};
        p.chunk = q.shape().ndim() >= 2
                      ? q.numel() / q.shape().dim(0)
                      : q.numel();
        p.g = q.shape().ndim() < 2 ? Granularity::PerTensor
                                   : q.granularity();
        p.gs = p.g == Granularity::PerGroup ? q.groupSize() : p.chunk;
        p.gpc = p.g == Granularity::PerGroup ? q.groupsPerChannel() : 1;
        return p;
    };
    const auto pa = planOf(a), pb = planOf(b);
    const int64_t k = pa.chunk;
    const auto scaleIdx = [](decltype(pa) p, Granularity g,
                             int64_t row, int64_t pos) -> size_t {
        if (g == Granularity::PerTensor) return 0;
        if (g == Granularity::PerChannel)
            return static_cast<size_t>(row);
        return static_cast<size_t>(row * p.gpc + pos / p.gs);
    };
    const auto gridOf = [](const QTensor &q, size_t si) {
        const TypePtr &t = q.groupTypes().empty() ? q.type()
                                                  : q.groupTypes()[si];
        return cachedDecodedGrid(t);
    };
    double out = 0.0;
    int64_t k0 = 0;
    while (k0 < k) {
        const int64_t k1 = std::min(
            {((k0 / pa.gs) + 1) * pa.gs, ((k0 / pb.gs) + 1) * pb.gs,
             k});
        const size_t sia = scaleIdx(pa, pa.g, i, k0);
        const size_t sib = scaleIdx(pb, pb.g, j, k0);
        const DecodedGridPtr ga = gridOf(a, sia), gb = gridOf(b, sib);
        int64_t acc = 0;
        for (int64_t p = k0; p < k1; ++p)
            acc += ga->intVal[a.codeAt(i * k + p)] *
                   gb->intVal[b.codeAt(j * k + p)];
        out += std::ldexp(static_cast<double>(acc) *
                              (a.scales()[sia] * b.scales()[sib]),
                          ga->normExp + gb->normExp);
        k0 = k1;
    }
    return static_cast<float>(out);
}

TEST(PackedGemm, IntegerGemmMatchesScalarModelBitwise)
{
    Rng rng(97);
    struct Case
    {
        const char *ta, *tb;
        int64_t gsa, gsb;
    };
    // Mismatched group sizes force merged-boundary segmentation; the
    // e4m3 x flint pair exercises dyadic (non-LZD) decode tables.
    const Case cases[] = {{"int4", "int4", 5, 7},
                          {"flint4", "flint4u", 16, 24},
                          {"pot4", "int4", 8, 8},
                          {"float_e4m3", "flint4", 9, 32},
                          {"float_e5m2", "int4", 64, 13}};
    for (const Case &cs : cases) {
        SCOPED_TRACE(std::string(cs.ta) + " x " + cs.tb);
        const int64_t m = 3, n = 4, k = 97;
        const TypePtr ta = parseType(cs.ta), tb = parseType(cs.tb);
        const Tensor wa = rng.tensor(Shape{m, k}, DistFamily::Laplace);
        const Tensor wb =
            rng.tensor(Shape{n, k}, DistFamily::WeightLike);
        const QTensor qa = QTensor::pack(
            wa, ta, Granularity::PerGroup,
            layoutScales(wa, ta, Granularity::PerGroup, cs.gsa),
            cs.gsa);
        const QTensor qb = QTensor::pack(
            wb, tb, Granularity::PerGroup,
            layoutScales(wb, tb, Granularity::PerGroup, cs.gsb),
            cs.gsb);
        const Tensor y = packedGemmInt(qa, qb);
        ASSERT_EQ(y.shape(), (Shape{m, n}));
        for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j)
                ASSERT_EQ(y[i * n + j], intGemmRefEntry(qa, qb, i, j))
                    << "(" << i << ", " << j << ")";

        // And the whole thing tracks the float path to rounding noise.
        const Tensor ref = ops::matmulBT(qa.unpack(), qb.unpack());
        for (int64_t e = 0; e < y.numel(); ++e)
            EXPECT_NEAR(y[e], ref[e],
                        1e-5 * (1.0 + std::fabs(ref[e])));
    }
}

TEST(PackedGemm, IntegerGemmRejectsUnrepresentableRanges)
{
    Rng rng(98);
    const int64_t k = 16;
    const Tensor w = rng.tensor(Shape{2, k}, DistFamily::Gaussian);
    const auto packAs = [&](const char *spec) {
        const TypePtr t = parseType(spec);
        return QTensor::pack(
            w, t, Granularity::PerTensor,
            layoutScales(w, t, Granularity::PerTensor, 0));
    };
    const QTensor i4 = packAs("int4");
    // pot8u's 2^254 dynamic range has no 64-bit fixed-point form.
    EXPECT_THROW(packedGemmInt(packAs("pot8u"), i4),
                 std::invalid_argument);
    // pot6u decodes (maxAbsInt = 2^61) but any product overflows the
    // accumulator budget.
    EXPECT_THROW(packedGemmInt(packAs("pot6u"), i4),
                 std::overflow_error);
    // Mismatched inner dims.
    const Tensor w2 = rng.tensor(Shape{2, k + 1}, DistFamily::Gaussian);
    const TypePtr t4 = parseType("int4");
    const QTensor q2 = QTensor::pack(
        w2, t4, Granularity::PerTensor,
        layoutScales(w2, t4, Granularity::PerTensor, 0));
    EXPECT_THROW(packedGemmInt(i4, q2), std::invalid_argument);
}

TEST(PackedGemm, StatsCountersAdvanceMonotonically)
{
    Rng rng(99);
    const Tensor w = rng.tensor(Shape{4, 32}, DistFamily::Gaussian);
    const TypePtr t = parseType("int4");
    const QTensor q = QTensor::pack(
        w, t, Granularity::PerTensor,
        layoutScales(w, t, Granularity::PerTensor, 0));
    const PackedGemmStats s0 = packedGemmStats();
    (void)packedMatmulBT(Tensor{Shape{2, 32}}, q);
    (void)packedGemmInt(q, q);
    const PackedGemmStats s1 = packedGemmStats();
    EXPECT_EQ(s1.fpGemmCalls, s0.fpGemmCalls + 1);
    EXPECT_EQ(s1.intGemmCalls, s0.intGemmCalls + 1);
    EXPECT_GE(s1.rowsDecoded, s0.rowsDecoded + 4);
}

TEST(PackedGemm, TransformerServesOffArtifactWithNoFloatWeights)
{
    // The acceptance pin: a transformer forward running off a
    // ModelArtifact takes the packed GEMM path — no float weight
    // tensor is ever materialized (QTensor::unpackCalls stays flat
    // while the GEMM counter advances) — and its logits equal the
    // calibrating process's fake-quant forward bit for bit.
    using namespace ant::nn;
    auto ds = makeTokenDataset(TokenTask::EntailLike, 64, 32, 51);
    auto build = [&] {
        return buildBertStyle("mini-bert", ds.numClasses, ds.vocab,
                              ds.seqLen, 9);
    };
    auto a = build();
    QatConfig qc;
    qc.combo = Combo::IPF;
    qc.calibSamples = 32;
    configureQuant(*a, qc);
    calibrateQuant(*a, ds, qc);
    const std::string path =
        testing::TempDir() + "ant_packed_gemm_bert.antq";
    saveArtifact(*a, path);

    auto b = build();
    configureQuant(*b, qc);
    calibrateQuant(*b, ds, qc);
    applyArtifact(*b, ModelArtifact::loadFile(path));
    std::remove(path.c_str());
    size_t packed_layers = 0;
    for (QuantLayer *l : b->quantLayers())
        if (l->weightQ.enabled && l->weightQ.calibrated() &&
            !l->weightQ.packed.empty())
            ++packed_layers;
    ASSERT_GT(packed_layers, 0u);

    const PackedGemmStats s0 = packedGemmStats();
    const uint64_t unpacks0 = QTensor::unpackCalls();
    for (int64_t bi = 0; bi < 2; ++bi) {
        const Batch batch = ds.batch(bi, 8, false);
        const Var ya = a->forward(batch);
        const Var yb = b->forward(batch);
        ASSERT_EQ(ya->value.shape(), yb->value.shape());
        for (int64_t j = 0; j < ya->value.numel(); ++j)
            ASSERT_EQ(ya->value[j], yb->value[j])
                << "batch " << bi << " elem " << j;
    }
    const PackedGemmStats s1 = packedGemmStats();
    // Every packed layer ran the decoder-fused GEMM on every batch...
    EXPECT_GE(s1.fpGemmCalls,
              s0.fpGemmCalls + 2 * static_cast<uint64_t>(packed_layers));
    // ...and no float weight tensor was ever materialized.
    EXPECT_EQ(QTensor::unpackCalls(), unpacks0);
}

} // namespace
} // namespace ant
