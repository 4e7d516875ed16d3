#include "core/packed_gemm.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/type_registry.h"
#include "hw/decoder.h"
#include "tensor/parallel.h"

namespace ant {

namespace {

std::atomic<uint64_t> g_fp_gemm_calls{0};
std::atomic<uint64_t> g_int_gemm_calls{0};
std::atomic<uint64_t> g_rows_decoded{0};

/**
 * Exact dyadic decomposition of a grid double: v == base * 2^expo with
 * the smallest integral base. Every representable grid value is dyadic
 * (int/flint are integers, PoT are powers of two, minifloats are
 * m * 2^e), so the loop always terminates well inside 64 steps.
 */
void
dyadicDecompose(double v, int32_t &base, int16_t &expo)
{
    if (v == 0.0) {
        base = 0;
        expo = 0;
        return;
    }
    int e = 0;
    double m = std::frexp(v, &e); // v = m * 2^e, |m| in [0.5, 1)
    for (int k = 1; k <= 64; ++k) {
        const double t = std::ldexp(m, k);
        if (t == std::trunc(t)) {
            base = static_cast<int32_t>(t);
            expo = static_cast<int16_t>(e - k);
            return;
        }
    }
    throw std::logic_error(
        "dyadicDecompose: non-dyadic grid value " + std::to_string(v));
}

/** Whether hw::decodeIntOperand models this kind/width/signedness. */
bool
hwDecodes(const NumericType &t)
{
    switch (t.kind()) {
      case TypeKind::Int:
        return true;
      case TypeKind::PoT:
        return true;
      case TypeKind::Flint:
        // The signed decoder strips the sign bit and runs the unsigned
        // LZD on bits-1; that needs at least a 2-bit magnitude field.
        return t.isSigned() ? t.bits() >= 3 : t.bits() >= 2;
      case TypeKind::Float:
        return false;
    }
    return false;
}

hw::PeType
peTypeOf(TypeKind k)
{
    switch (k) {
      case TypeKind::Int: return hw::PeType::Int;
      case TypeKind::PoT: return hw::PeType::PoT;
      case TypeKind::Flint: return hw::PeType::Flint;
      case TypeKind::Float: break;
    }
    throw std::logic_error("peTypeOf: no integer PE for this kind");
}

/**
 * Row layout of one payload: rows (dim-0 slices), per-row chunk and
 * the scale segmentation, shared by the float and the integer decode
 * plans. A 0-D/1-D payload is one single-scale row, mirroring
 * QTensor's frozen layouts.
 */
struct RowLayout
{
    const QTensor *q = nullptr;
    int64_t rows = 0;
    int64_t chunk = 0;
    int bits = 0;
    Granularity gran = Granularity::PerTensor;
    int64_t gs = 0;  //!< group size (PerGroup only)
    int64_t gpc = 0; //!< groups per row (1 otherwise)

    explicit RowLayout(const QTensor &qt) : q(&qt), bits(qt.bits())
    {
        if (qt.shape().ndim() >= 2) {
            rows = qt.shape().dim(0);
            chunk = 1;
            for (int d = 1; d < qt.shape().ndim(); ++d)
                chunk *= qt.shape().dim(d);
            gran = qt.granularity();
        } else {
            rows = qt.numel() > 0 ? 1 : 0;
            chunk = qt.numel();
        }
        if (gran == Granularity::PerGroup) {
            gs = qt.groupSize();
            gpc = qt.groupsPerChannel();
        } else {
            gs = chunk;
            gpc = 1;
        }
    }

    /** Scale-plane index of (row, position-in-row). */
    size_t
    scaleIndex(int64_t row, int64_t p) const
    {
        switch (gran) {
          case Granularity::PerTensor: return 0;
          case Granularity::PerChannel:
            return static_cast<size_t>(row);
          case Granularity::PerGroup:
            return static_cast<size_t>(row * gpc + p / gs);
        }
        return 0;
    }
};

/**
 * Float decode plan: the payload's compiled kernels, resolved once, so
 * the GEMM inner loops never touch the registry.
 */
struct RowDecodePlan : RowLayout
{
    KernelPtr mainKernel;
    std::vector<KernelPtr> groupKernels; //!< empty when homogeneous

    explicit RowDecodePlan(const QTensor &qt) : RowLayout(qt)
    {
        mainKernel = cachedKernel(qt.type());
        groupKernels.reserve(qt.groupTypes().size());
        for (const TypePtr &t : qt.groupTypes())
            groupKernels.push_back(cachedKernel(t));
    }

    /**
     * Decode row @p row into floats through QuantKernel::unpackBatch,
     * one call per constant-scale segment — the very calls
     * QTensor::unpack() makes for those elements, so the floats are
     * bitwise identical by construction.
     */
    void
    decodeRowFloat(int64_t row, float *out) const
    {
        const uint64_t *words = q->words().data();
        const std::vector<double> &scales = q->scales();
        for (int64_t s0 = 0; s0 < chunk; s0 += gs) {
            const size_t si = scaleIndex(row, s0);
            const QuantKernel &k =
                groupKernels.empty() ? *mainKernel : *groupKernels[si];
            k.unpackBatch(words, (row * chunk + s0) * bits,
                          std::min(gs, chunk - s0), scales[si],
                          out + s0);
        }
    }
};

/**
 * Integer decode plan (the Fig. 6 datapath): every code decodes to its
 * common-exponent integer through the payload's DecodedGrids.
 */
struct IntDecodePlan : RowLayout
{
    DecodedGridPtr mainGrid;
    std::vector<DecodedGridPtr> groupGrids; //!< empty when homogeneous

    explicit IntDecodePlan(const QTensor &qt) : RowLayout(qt)
    {
        mainGrid = cachedDecodedGrid(qt.type());
        groupGrids.reserve(qt.groupTypes().size());
        for (const TypePtr &t : qt.groupTypes())
            groupGrids.push_back(cachedDecodedGrid(t));
    }

    const DecodedGrid &
    gridAt(size_t scale_idx) const
    {
        return groupGrids.empty() ? *mainGrid : *groupGrids[scale_idx];
    }

    /** Decode row @p row to common-exponent integers (intVal). */
    void
    decodeRowInt(int64_t row, int64_t *out) const
    {
        const uint64_t *words = q->words().data();
        const uint64_t mask = (uint64_t{1} << bits) - 1;
        for (int64_t s0 = 0; s0 < chunk; s0 += gs) {
            const int64_t len = std::min(gs, chunk - s0);
            const DecodedGrid &g = gridAt(scaleIndex(row, s0));
            int64_t pos = (row * chunk + s0) * bits;
            for (int64_t p = 0; p < len; ++p, pos += bits) {
                const int64_t w = pos >> 6;
                const int off = static_cast<int>(pos & 63);
                uint64_t code = words[w] >> off;
                if (off + bits > 64)
                    code |= words[w + 1] << (64 - off);
                out[s0 + p] =
                    g.intVal[static_cast<size_t>(code & mask)];
            }
        }
    }

    /** Largest |intVal| over every grid this payload can decode with. */
    int64_t
    maxAbsInt() const
    {
        int64_t m = mainGrid->maxAbsInt;
        for (const DecodedGridPtr &g : groupGrids)
            m = std::max(m, g->maxAbsInt);
        return m;
    }

    /** Throw unless every grid decodes on the integer datapath. */
    void
    requireIntDomain(const char *who) const
    {
        const auto check = [&](const DecodedGrid &g) {
            if (!g.intDomain)
                throw std::invalid_argument(
                    std::string(who) + ": type " + g.type->spec() +
                    " has no integer-datapath decode (dynamic range "
                    "exceeds 64-bit fixed point)");
        };
        check(*mainGrid);
        for (const DecodedGridPtr &g : groupGrids) check(*g);
    }
};

void
checkPacked(const char *who, const QTensor &q)
{
    if (q.empty())
        throw std::invalid_argument(std::string(who) +
                                    ": empty packed operand");
}

/**
 * C = A @ concat_k(W_0 .. W_{count-1})^T over the k segments of
 * @p plans — the one serving BT kernel; an unsplit weight is one
 * segment. One output column (= packed row) per task: each worker
 * decodes every segment's row at its k offset into one k-float
 * scratch, then runs the exact matmulBT inner product (double
 * accumulation, ascending p). Nothing larger than one row is ever
 * dequantized. Four activation rows run interleaved — four independent
 * accumulator chains over one pass of the decoded row — which changes
 * the instruction-level parallelism but not any output's summation
 * order, so the result stays bitwise identical to the single-row loop.
 */
Tensor
matmulBTSegments(const char *who, const Tensor &a,
                 const RowDecodePlan *plans, size_t count)
{
    const int64_t n = plans[0].rows;
    int64_t k = 0;
    for (size_t s = 0; s < count; ++s) {
        if (plans[s].rows != n)
            throw std::invalid_argument(
                std::string(who) + ": every part must share the "
                "output dim (got " + std::to_string(plans[s].rows) +
                " vs " + std::to_string(n) + ")");
        k += plans[s].chunk;
    }
    if (a.ndim() != 2)
        throw std::invalid_argument(
            std::string(who) + ": activations must be 2-D, got " +
            a.shape().str());
    const int64_t m = a.dim(0);
    if (a.dim(1) != k)
        throw std::invalid_argument(
            std::string(who) + ": inner dim mismatch (" +
            a.shape().str() + " vs packed k=" + std::to_string(k) +
            ")");
    Tensor c{Shape{m, n}};
    g_fp_gemm_calls.fetch_add(1, std::memory_order_relaxed);
    const float *pa = a.data();
    float *pc = c.data();
    parallelFor(n, [&](int64_t jb, int64_t je) {
        std::vector<float> row(static_cast<size_t>(k));
        for (int64_t j = jb; j < je; ++j) {
            int64_t off = 0;
            for (size_t s = 0; s < count; ++s) {
                plans[s].decodeRowFloat(j, row.data() + off);
                off += plans[s].chunk;
            }
            int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const float *a0 = pa + i * k;
                const float *a1 = a0 + k;
                const float *a2 = a1 + k;
                const float *a3 = a2 + k;
                double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                for (int64_t p = 0; p < k; ++p) {
                    const double wv = row[p];
                    s0 += static_cast<double>(a0[p]) * wv;
                    s1 += static_cast<double>(a1[p]) * wv;
                    s2 += static_cast<double>(a2[p]) * wv;
                    s3 += static_cast<double>(a3[p]) * wv;
                }
                pc[i * n + j] = static_cast<float>(s0);
                pc[(i + 1) * n + j] = static_cast<float>(s1);
                pc[(i + 2) * n + j] = static_cast<float>(s2);
                pc[(i + 3) * n + j] = static_cast<float>(s3);
            }
            for (; i < m; ++i) {
                const float *arow = pa + i * k;
                double s = 0.0;
                for (int64_t p = 0; p < k; ++p)
                    s += static_cast<double>(arow[p]) * row[p];
                pc[i * n + j] = static_cast<float>(s);
            }
        }
        g_rows_decoded.fetch_add(static_cast<uint64_t>(je - jb) * count,
                                 std::memory_order_relaxed);
    });
    return c;
}

} // namespace

DecodedGrid
buildDecodedGrid(const TypePtr &type)
{
    if (!type)
        throw std::invalid_argument("buildDecodedGrid: null type");
    DecodedGrid g;
    g.type = type;
    const int n = type->codeCount();
    g.base.resize(static_cast<size_t>(n));
    g.expo.resize(static_cast<size_t>(n));
    const bool use_hw = hwDecodes(*type);
    for (int c = 0; c < n; ++c) {
        const double v = type->codeValue(static_cast<uint32_t>(c));
        int32_t base = 0;
        int16_t expo = 0;
        if (use_hw) {
            // The gate-level LZD decoder (Fig. 6; int and PoT as
            // degenerate cases) is the source of truth for the pair.
            const hw::IntOperand op = hw::decodeIntOperand(
                static_cast<uint32_t>(c), type->bits(),
                peTypeOf(type->kind()), type->isSigned());
            base = op.baseInt;
            expo = static_cast<int16_t>(op.exp);
            if (std::ldexp(static_cast<double>(base), expo) != v)
                throw std::logic_error(
                    "buildDecodedGrid: hw decode of " + type->spec() +
                    " code " + std::to_string(c) +
                    " disagrees with the functional grid");
        } else {
            dyadicDecompose(v, base, expo);
        }
        g.base[static_cast<size_t>(c)] = base;
        g.expo[static_cast<size_t>(c)] = expo;
    }

    // Integer-datapath normalization: fold every pair onto the
    // smallest exponent so a whole group shares one power of two.
    int min_exp = 0;
    bool any = false;
    for (int c = 0; c < n; ++c)
        if (g.base[static_cast<size_t>(c)] != 0) {
            min_exp = any ? std::min(min_exp,
                                     static_cast<int>(
                                         g.expo[static_cast<size_t>(c)]))
                          : g.expo[static_cast<size_t>(c)];
            any = true;
        }
    g.normExp = any ? min_exp : 0;
    g.intVal.assign(static_cast<size_t>(n), 0);
    g.intDomain = true;
    g.maxAbsInt = 0;
    for (int c = 0; c < n && g.intDomain; ++c) {
        const int64_t base = g.base[static_cast<size_t>(c)];
        if (base == 0) continue;
        const int shift = g.expo[static_cast<size_t>(c)] - g.normExp;
        if (shift > 62 ||
            std::abs(base) > (int64_t{1} << (62 - shift))) {
            g.intDomain = false;
            g.intVal.clear();
            g.maxAbsInt = 0;
            break;
        }
        const int64_t v = base * (int64_t{1} << shift);
        g.intVal[static_cast<size_t>(c)] = v;
        g.maxAbsInt = std::max(g.maxAbsInt, std::abs(v));
    }
    return g;
}

DecodedGridPtr
cachedDecodedGrid(const TypePtr &type)
{
    if (!type)
        throw std::invalid_argument("cachedDecodedGrid: null type");
    static std::mutex mu;
    static std::unordered_map<std::string, DecodedGridPtr> cache;
    const std::string key = type->spec();
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = cache.find(key);
        if (it != cache.end()) return it->second;
    }
    auto fresh = std::make_shared<const DecodedGrid>(
        buildDecodedGrid(type));
    std::lock_guard<std::mutex> lock(mu);
    return cache.emplace(key, std::move(fresh)).first->second;
}

Tensor
packedMatmulBT(const Tensor &a, const QTensor &w)
{
    checkPacked("packedMatmulBT", w);
    const RowDecodePlan plan(w);
    return matmulBTSegments("packedMatmulBT", a, &plan, 1);
}

Tensor
packedMatmulBTConcatK(const Tensor &a,
                      const std::vector<QTensor> &parts)
{
    if (parts.empty())
        throw std::invalid_argument(
            "packedMatmulBTConcatK: no weight parts");
    std::vector<RowDecodePlan> plans;
    plans.reserve(parts.size());
    for (const QTensor &p : parts) {
        checkPacked("packedMatmulBTConcatK", p);
        plans.emplace_back(p);
    }
    return matmulBTSegments("packedMatmulBTConcatK", a, plans.data(),
                            plans.size());
}

Tensor
packedMatmul(const Tensor &a, const QTensor &w)
{
    checkPacked("packedMatmul", w);
    RowDecodePlan plan(w);
    if (a.ndim() != 2)
        throw std::invalid_argument(
            "packedMatmul: lhs must be 2-D, got " + a.shape().str());
    const int64_t m = a.dim(0), kk = a.dim(1);
    if (kk != plan.rows)
        throw std::invalid_argument(
            "packedMatmul: inner dim mismatch (" + a.shape().str() +
            " vs packed " + w.shape().str() + ")");
    const int64_t n = plan.chunk;
    Tensor c{Shape{m, n}};
    g_fp_gemm_calls.fetch_add(1, std::memory_order_relaxed);
    const float *pa = a.data();
    float *pc = c.data();
    // ops::matmul order: for each (i, j) the additions run over p
    // ascending with float accumulation, skipping zero activations.
    // Hoisting the row decode outside the i loop preserves that order
    // exactly (i iterations are independent).
    parallelFor(m, [&](int64_t ib, int64_t ie) {
        std::vector<float> row(static_cast<size_t>(n));
        uint64_t decoded = 0;
        for (int64_t p = 0; p < kk; ++p) {
            bool live = false;
            for (int64_t i = ib; i < ie && !live; ++i)
                live = pa[i * kk + p] != 0.0f;
            if (!live) continue;
            plan.decodeRowFloat(p, row.data());
            ++decoded;
            for (int64_t i = ib; i < ie; ++i) {
                const float av = pa[i * kk + p];
                if (av == 0.0f) continue;
                float *crow = pc + i * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += av * row[j];
            }
        }
        g_rows_decoded.fetch_add(decoded, std::memory_order_relaxed);
    });
    return c;
}

Tensor
packedGemmInt(const QTensor &a, const QTensor &b)
{
    checkPacked("packedGemmInt", a);
    checkPacked("packedGemmInt", b);
    IntDecodePlan pa(a), pb(b);
    pa.requireIntDomain("packedGemmInt");
    pb.requireIntDomain("packedGemmInt");
    if (pa.chunk != pb.chunk)
        throw std::invalid_argument(
            "packedGemmInt: inner dim mismatch (" + a.shape().str() +
            " vs " + b.shape().str() + ")");
    const int64_t m = pa.rows, n = pb.rows, k = pa.chunk;

    // Segment the k axis at every group boundary of either operand:
    // within a segment both scales (and both group types) are
    // constant, so the segment runs as one integer dot product with a
    // single rescale at the end.
    std::vector<int64_t> cuts{0};
    {
        int64_t ga = pa.gs > 0 ? pa.gs : k;
        int64_t gb = pb.gs > 0 ? pb.gs : k;
        int64_t next_a = ga, next_b = gb;
        while (cuts.back() < k) {
            const int64_t c = std::min({next_a, next_b, k});
            cuts.push_back(c);
            if (c == next_a) next_a += ga;
            if (c == next_b) next_b += gb;
        }
    }
    const size_t nseg = cuts.size() - 1;

    // Overflow budget: the widest segment of products must fit the
    // accumulator. int32 is the paper's datapath and covers every
    // low-bit ANT type; wide minifloat grids widen to int64.
    int64_t max_seg = 0;
    for (size_t s = 0; s < nseg; ++s)
        max_seg = std::max(max_seg, cuts[s + 1] - cuts[s]);
    const int64_t max_a = pa.maxAbsInt(), max_b = pb.maxAbsInt();
    if (max_a != 0 && max_b != 0 &&
        max_a > (int64_t{1} << 62) / max_b)
        throw std::overflow_error(
            "packedGemmInt: operand ranges overflow the 64-bit "
            "datapath (|int| <= " + std::to_string(max_a) + " x " +
            std::to_string(max_b) + ")");
    const int64_t prod = max_a * max_b;
    if (max_seg != 0 && prod != 0 &&
        prod > (int64_t{1} << 62) / max_seg)
        throw std::overflow_error(
            "packedGemmInt: segment of " + std::to_string(max_seg) +
            " products at |int| <= " + std::to_string(prod) +
            " overflows the 64-bit accumulator");
    const bool acc32 = prod * max_seg < (int64_t{1} << 31);

    Tensor c{Shape{m, n}};
    g_int_gemm_calls.fetch_add(1, std::memory_order_relaxed);
    float *pc = c.data();
    constexpr int64_t kRowTile = 16;
    const int64_t tiles = (m + kRowTile - 1) / kRowTile;
    parallelFor(tiles, [&](int64_t tb, int64_t te) {
        std::vector<int64_t> rows_a(
            static_cast<size_t>(kRowTile * k));
        std::vector<int64_t> row_b(static_cast<size_t>(k));
        uint64_t decoded = 0;
        for (int64_t t = tb; t < te; ++t) {
            const int64_t m0 = t * kRowTile;
            const int64_t m1 = std::min(m, m0 + kRowTile);
            for (int64_t i = m0; i < m1; ++i)
                pa.decodeRowInt(i, rows_a.data() + (i - m0) * k);
            decoded += static_cast<uint64_t>(m1 - m0);
            for (int64_t j = 0; j < n; ++j) {
                pb.decodeRowInt(j, row_b.data());
                ++decoded;
                for (int64_t i = m0; i < m1; ++i) {
                    const int64_t *ra = rows_a.data() + (i - m0) * k;
                    double out = 0.0;
                    for (size_t s = 0; s < nseg; ++s) {
                        const int64_t k0 = cuts[s], k1 = cuts[s + 1];
                        int64_t acc = 0;
                        if (acc32) {
                            int32_t a32 = 0;
                            for (int64_t p = k0; p < k1; ++p)
                                a32 += static_cast<int32_t>(ra[p]) *
                                       static_cast<int32_t>(row_b[p]);
                            acc = a32;
                        } else {
                            for (int64_t p = k0; p < k1; ++p)
                                acc += ra[p] * row_b[p];
                        }
                        const size_t sia = pa.scaleIndex(i, k0);
                        const size_t sib = pb.scaleIndex(j, k0);
                        const double sprod =
                            a.scales()[sia] * b.scales()[sib];
                        const int nexp = pa.gridAt(sia).normExp +
                                         pb.gridAt(sib).normExp;
                        // One rescale per segment per output element
                        // (never per k): ldexp is exact, so the only
                        // roundings are the scale product and the
                        // final multiply.
                        out += std::ldexp(
                            static_cast<double>(acc) * sprod, nexp);
                    }
                    pc[i * n + j] = static_cast<float>(out);
                }
            }
        }
        g_rows_decoded.fetch_add(decoded, std::memory_order_relaxed);
    });
    return c;
}

double
packedWeightMse(const QTensor &q, const Tensor &ref)
{
    checkPacked("packedWeightMse", q);
    if (q.shape() != ref.shape())
        throw std::invalid_argument(
            "packedWeightMse: packed shape " + q.shape().str() +
            " vs reference " + ref.shape().str());
    RowDecodePlan plan(q);
    const int64_t rows = plan.rows, chunk = plan.chunk;
    if (rows == 0 || chunk == 0) return 0.0;
    std::vector<double> errs(static_cast<size_t>(rows), 0.0);
    parallelFor(rows, [&](int64_t rb, int64_t re) {
        std::vector<float> row(static_cast<size_t>(chunk));
        for (int64_t r = rb; r < re; ++r) {
            plan.decodeRowFloat(r, row.data());
            const float *pr = ref.data() + r * chunk;
            double e = 0.0;
            for (int64_t p = 0; p < chunk; ++p) {
                const double d = static_cast<double>(row[p]) - pr[p];
                e += d * d;
            }
            errs[static_cast<size_t>(r)] = e;
        }
    });
    double err = 0.0;
    for (double e : errs) err += e;
    return err / static_cast<double>(q.numel());
}

PackedGemmStats
packedGemmStats()
{
    PackedGemmStats s;
    s.fpGemmCalls = g_fp_gemm_calls.load(std::memory_order_relaxed);
    s.intGemmCalls = g_int_gemm_calls.load(std::memory_order_relaxed);
    s.rowsDecoded = g_rows_decoded.load(std::memory_order_relaxed);
    return s;
}

} // namespace ant
