#include "core/quant_kernel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/parallel.h"
#include "tensor/vec.h"

#if ANT_VEC_AVX2
#include <immintrin.h>
#endif

namespace ant {

namespace {

/**
 * Extract @p n consecutive @p b-bit codes starting at absolute bit
 * @p bit_base from the LSB-first word stream into @p codes. Branch-free
 * inner loops: widths dividing 64 never straddle a word (whole-word
 * unrolled extraction); odd widths walk a 128-bit window so every code
 * is a single shift+mask. Reads words[w + 1] only when a remaining
 * code's bits actually extend past word w, so it never touches memory
 * the scalar extraction would not.
 */
void
unpackCodes(const uint64_t *words, int64_t bit_base, int64_t n, int b,
            uint32_t *codes)
{
    const uint64_t mask = (uint64_t{1} << b) - 1;
    int64_t i = 0;
    int64_t pos = bit_base;
    if (64 % b == 0 && bit_base % b == 0) {
        // Aligned stride: codes tile words exactly, no straddles.
        while (i < n && (pos & 63) != 0) {
            codes[i++] = static_cast<uint32_t>(
                (words[pos >> 6] >> (pos & 63)) & mask);
            pos += b;
        }
        const int cpw = 64 / b;
        while (i + cpw <= n) {
            const uint64_t w = words[pos >> 6];
            for (int k = 0; k < cpw; ++k)
                codes[i + k] =
                    static_cast<uint32_t>((w >> (k * b)) & mask);
            i += cpw;
            pos += 64;
        }
        while (i < n) {
            codes[i++] = static_cast<uint32_t>(
                (words[pos >> 6] >> (pos & 63)) & mask);
            pos += b;
        }
        return;
    }

    const int64_t end_bit = bit_base + n * b;
    while (i < n) {
        const int64_t w = pos >> 6;
        const int64_t base_bit = w << 6;
        unsigned __int128 win = words[w];
        int lim = 64;
        if (end_bit > base_bit + 64) {
            win |= static_cast<unsigned __int128>(words[w + 1]) << 64;
            lim = 128;
        }
        int off = static_cast<int>(pos - base_bit);
        while (off + b <= lim && i < n) {
            codes[i++] = static_cast<uint32_t>(
                static_cast<uint64_t>(win >> off) & mask);
            off += b;
        }
        pos = base_bit + off;
    }
}

/**
 * Branch-free uniform-int quantize chunk: q[i] = clamp(round-half-up
 * (in[i] * inv), lo, hi) * scale, with the exact operation sequence of
 * the AVX2 variant (floor, exact frac compare against 0.5, max-then-min
 * with second-operand tie semantics) so both are bitwise identical to
 * the lower_bound oracle — including the tie rule (ties pick the larger
 * grid value: frac == 0.5 adds 1) and +0.0 normalization (t + 0.0
 * turns a -0.0 floor into the grid's +0.0).
 */
void
quantChunkScalar(const float *in, double *q, int64_t n, double inv,
                 double scale, double lo, double hi)
{
    for (int64_t i = 0; i < n; ++i) {
        const double x = in[i] * inv;
        const double t = std::floor(x);
        const double frac = x - t; // exact: |x - floor(x)| is Sterbenz
        const double r = t + (frac < 0.5 ? 0.0 : 1.0);
        double y = r > lo ? r : lo; // maxpd: ties take the 2nd operand
        y = y < hi ? y : hi;        // minpd: likewise
        q[i] = y * scale;
    }
}

/** Uniform-int encode chunk: grid index (y - lo), same rounding ops. */
void
encodeChunkScalar(const float *in, int32_t *idx, int64_t n, double inv,
                  double lo, double hi)
{
    for (int64_t i = 0; i < n; ++i) {
        const double x = in[i] * inv;
        const double t = std::floor(x);
        const double frac = x - t;
        const double r = t + (frac < 0.5 ? 0.0 : 1.0);
        double y = r > lo ? r : lo;
        y = y < hi ? y : hi;
        idx[i] = static_cast<int32_t>(y - lo);
    }
}

#if ANT_VEC_AVX2

/** AVX2 twin of quantChunkScalar: same per-element double ops (mul,
 *  floor, sub, cmp, blend-add, max, min, mul) — no FMA, no reordering —
 *  so the output is bitwise identical lane for lane. */
__attribute__((target("avx2"))) void
quantChunkAvx2(const float *in, double *q, int64_t n, double inv,
               double scale, double lo, double hi)
{
    const __m256d vinv = _mm256_set1_pd(inv);
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vlo = _mm256_set1_pd(lo);
    const __m256d vhi = _mm256_set1_pd(hi);
    const __m256d vhalf = _mm256_set1_pd(0.5);
    const __m256d vone = _mm256_set1_pd(1.0);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_mul_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(in + i)), vinv);
        const __m256d t = _mm256_floor_pd(x);
        const __m256d frac = _mm256_sub_pd(x, t);
        const __m256d lt = _mm256_cmp_pd(frac, vhalf, _CMP_LT_OQ);
        const __m256d r =
            _mm256_add_pd(t, _mm256_andnot_pd(lt, vone));
        const __m256d y =
            _mm256_min_pd(_mm256_max_pd(r, vlo), vhi);
        _mm256_storeu_pd(q + i, _mm256_mul_pd(y, vscale));
    }
    if (i < n) quantChunkScalar(in + i, q + i, n - i, inv, scale, lo, hi);
}

/** AVX2 twin of encodeChunkScalar (y - lo is an exact small integer,
 *  so the cvtpd2dq rounding mode is irrelevant). */
__attribute__((target("avx2"))) void
encodeChunkAvx2(const float *in, int32_t *idx, int64_t n, double inv,
                double lo, double hi)
{
    const __m256d vinv = _mm256_set1_pd(inv);
    const __m256d vlo = _mm256_set1_pd(lo);
    const __m256d vhi = _mm256_set1_pd(hi);
    const __m256d vhalf = _mm256_set1_pd(0.5);
    const __m256d vone = _mm256_set1_pd(1.0);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_mul_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(in + i)), vinv);
        const __m256d t = _mm256_floor_pd(x);
        const __m256d frac = _mm256_sub_pd(x, t);
        const __m256d lt = _mm256_cmp_pd(frac, vhalf, _CMP_LT_OQ);
        const __m256d r =
            _mm256_add_pd(t, _mm256_andnot_pd(lt, vone));
        const __m256d y =
            _mm256_min_pd(_mm256_max_pd(r, vlo), vhi);
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(idx + i),
            _mm256_cvtpd_epi32(_mm256_sub_pd(y, vlo)));
    }
    if (i < n) encodeChunkScalar(in + i, idx + i, n - i, inv, lo, hi);
}

/** LUT decode via vgatherdps — same float loads as the scalar map.
 *  Used for 6..8-bit codes, whose tables outgrow the register file. */
__attribute__((target("avx2"))) void
decodeLutAvx2(const uint32_t *codes, int64_t n, const float *lut,
              float *out)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(codes + i));
        _mm256_storeu_ps(out + i, _mm256_i32gather_ps(lut, c, 4));
    }
    for (; i < n; ++i) out[i] = lut[codes[i]];
}

/** In-register LUT decode for <= 3-bit codes: the whole table fits one
 *  YMM register, so a single vpermps replaces the gather (which costs
 *  several cycles per lane on most cores, vpermps costs one total). */
__attribute__((target("avx2"))) void
decodePerm8Avx2(const uint32_t *codes, int64_t n, const float *lut,
                float *out)
{
    const __m256 t0 = _mm256_loadu_ps(lut); // codes < 8 index one table
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(codes + i));
        _mm256_storeu_ps(out + i, _mm256_permutevar8x32_ps(t0, c));
    }
    for (; i < n; ++i) out[i] = lut[codes[i]];
}

/** 4-bit in-register decode: two vpermps tables selected by code bit 3
 *  (shifted into the float sign for blendv). vpermps only reads the low
 *  three index bits, so both permutes share the raw code vector. */
__attribute__((target("avx2"))) __m256
decode16(__m256i c, __m256 t0, __m256 t1)
{
    const __m256 lo = _mm256_permutevar8x32_ps(t0, c);
    const __m256 hi = _mm256_permutevar8x32_ps(t1, c);
    const __m256 sel =
        _mm256_castsi256_ps(_mm256_slli_epi32(c, 28));
    return _mm256_blendv_ps(lo, hi, sel);
}

/** 5-bit in-register decode: four tables, two blendv levels (code bits
 *  3 and 4 shifted into the sign position). */
__attribute__((target("avx2"))) void
decodePerm32Avx2(const uint32_t *codes, int64_t n, const float *lut,
                 float *out)
{
    const __m256 t0 = _mm256_loadu_ps(lut);
    const __m256 t1 = _mm256_loadu_ps(lut + 8);
    const __m256 t2 = _mm256_loadu_ps(lut + 16);
    const __m256 t3 = _mm256_loadu_ps(lut + 24);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(codes + i));
        const __m256 sel3 =
            _mm256_castsi256_ps(_mm256_slli_epi32(c, 28));
        const __m256 sel4 =
            _mm256_castsi256_ps(_mm256_slli_epi32(c, 27));
        const __m256 v01 =
            _mm256_blendv_ps(_mm256_permutevar8x32_ps(t0, c),
                             _mm256_permutevar8x32_ps(t1, c), sel3);
        const __m256 v23 =
            _mm256_blendv_ps(_mm256_permutevar8x32_ps(t2, c),
                             _mm256_permutevar8x32_ps(t3, c), sel3);
        _mm256_storeu_ps(out + i, _mm256_blendv_ps(v01, v23, sel4));
    }
    for (; i < n; ++i) out[i] = lut[codes[i]];
}

/**
 * Fused extract + decode for word-aligned 4-bit streams (the int4 hot
 * path): each 64-bit word is split into halves, vpsrlvd fans each half
 * out to eight nibble lanes, and decode16 maps them through the
 * register-resident table — no intermediate code buffer at all.
 * Requires bit_base % 4 == 0 (every caller packs element i at bit i*4).
 */
__attribute__((target("avx2"))) void
unpackDecode4Avx2(const uint64_t *words, int64_t bit_base, int64_t n,
                  const float *lut, float *out)
{
    const __m256 t0 = _mm256_loadu_ps(lut);
    const __m256 t1 = _mm256_loadu_ps(lut + 8);
    const __m256i shifts =
        _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
    const __m256i m15 = _mm256_set1_epi32(15);
    int64_t i = 0;
    int64_t pos = bit_base;
    // Scalar prologue up to a word boundary (pos stays nibble-aligned).
    while (i < n && (pos & 63) != 0) {
        out[i++] = lut[(words[pos >> 6] >> (pos & 63)) & 15];
        pos += 4;
    }
    for (; i + 16 <= n; i += 16, pos += 64) {
        const uint64_t w = words[pos >> 6];
        const __m256i lo32 =
            _mm256_set1_epi32(static_cast<int32_t>(w));
        const __m256i hi32 =
            _mm256_set1_epi32(static_cast<int32_t>(w >> 32));
        const __m256i c0 = _mm256_and_si256(
            _mm256_srlv_epi32(lo32, shifts), m15);
        const __m256i c1 = _mm256_and_si256(
            _mm256_srlv_epi32(hi32, shifts), m15);
        _mm256_storeu_ps(out + i, decode16(c0, t0, t1));
        _mm256_storeu_ps(out + i + 8, decode16(c1, t0, t1));
    }
    for (; i < n; ++i, pos += 4)
        out[i] = lut[(words[pos >> 6] >> (pos & 63)) & 15];
}

#endif // ANT_VEC_AVX2

} // namespace

QuantKernel::QuantKernel(const NumericType &type)
    : type_(&type), grid_(type.grid()), lo_(type.minValue()),
      hi_(type.maxValue()), signed_(type.isSigned())
{
    // Code of each grid point: the first matching code, replicating
    // encodeNearest's linear scan. Iterating codes in ascending order
    // and keeping only the first hit per grid point gives the same
    // answer in O(codeCount log grid).
    codes_.assign(grid_.size(), 0);
    std::vector<bool> assigned(grid_.size(), false);
    for (uint32_t c = 0;
         c < static_cast<uint32_t>(type.codeCount()); ++c) {
        const double v = type.codeValue(c);
        const size_t i = static_cast<size_t>(
            std::lower_bound(grid_.begin(), grid_.end(), v) -
            grid_.begin());
        if (!assigned[i]) {
            assigned[i] = true;
            codes_[i] = c;
        }
    }

    magGrid_.reserve(grid_.size());
    for (double v : grid_)
        if (v >= 0.0) magGrid_.push_back(v);

    // Uniform-int detection gates the branch-free quantize/encode form:
    // the grid must be exactly {lo_, lo_+1, ..., hi_} (checked, not
    // assumed from the kind tag, so a future non-unit-step int variant
    // degrades to the oracle instead of silently mis-rounding).
    if (type.kind() == TypeKind::Int) {
        uniformInt_ = true;
        for (size_t i = 0; i < grid_.size(); ++i)
            if (grid_[i] != lo_ + static_cast<double>(i)) {
                uniformInt_ = false;
                break;
            }
    }

    // Bucket table accelerating lowerBound: ~4 buckets per grid point
    // keeps the forward scan at a step or two.
    const double span = hi_ - lo_;
    if (grid_.size() >= 2 && span > 0.0 && std::isfinite(span)) {
        bucketCount_ = static_cast<int64_t>(grid_.size()) * 4;
        invStep_ = static_cast<double>(bucketCount_) / span;
        start_.assign(static_cast<size_t>(bucketCount_) + 1, 0);
        size_t i = 0;
        for (int64_t b = 0; b <= bucketCount_; ++b) {
            while (i < grid_.size() && bucketOf(grid_[i]) < b) ++i;
            start_[static_cast<size_t>(b)] =
                static_cast<uint16_t>(i);
        }
    }
}

double
QuantKernel::quantizeBatchScalar(const float *in, float *out, int64_t n,
                                 double scale) const
{
    if (scale <= 0.0 || !std::isfinite(scale)) {
        // Degenerate (all-zero) input: pass through zeros.
        double err = 0.0;
        for (int64_t i = 0; i < n; ++i) {
            if (out) out[i] = 0.0f;
            err += static_cast<double>(in[i]) * in[i];
        }
        return n ? err / static_cast<double>(n) : 0.0;
    }
    const double inv = 1.0 / scale;
    double err = 0.0;
    if (out) {
        for (int64_t i = 0; i < n; ++i) {
            const double q = quantizeValue(in[i] * inv) * scale;
            out[i] = static_cast<float>(q);
            const double d = q - in[i];
            err += d * d;
        }
    } else {
        for (int64_t i = 0; i < n; ++i) {
            const double q = quantizeValue(in[i] * inv) * scale;
            const double d = q - in[i];
            err += d * d;
        }
    }
    return n ? err / static_cast<double>(n) : 0.0;
}

double
QuantKernel::quantizeUniformInt(const float *in, float *out, int64_t n,
                                double inv, double scale) const
{
    constexpr int64_t kChunk = 1024;
    double q[kChunk];
    double err = 0.0;
    for (int64_t base = 0; base < n; base += kChunk) {
        const int64_t len = std::min(kChunk, n - base);
#if ANT_VEC_AVX2
        if (vecUseAvx2())
            quantChunkAvx2(in + base, q, len, inv, scale, lo_, hi_);
        else
            quantChunkScalar(in + base, q, len, inv, scale, lo_, hi_);
#else
        quantChunkScalar(in + base, q, len, inv, scale, lo_, hi_);
#endif
        // Error reduction stays scalar and in index order so the MSE is
        // bitwise identical for every dispatch path.
        if (out) {
            for (int64_t i = 0; i < len; ++i) {
                out[base + i] = static_cast<float>(q[i]);
                const double d = q[i] - in[base + i];
                err += d * d;
            }
        } else {
            for (int64_t i = 0; i < len; ++i) {
                const double d = q[i] - in[base + i];
                err += d * d;
            }
        }
    }
    return n ? err / static_cast<double>(n) : 0.0;
}

double
QuantKernel::quantizeBatch(const float *in, float *out, int64_t n,
                           double scale) const
{
    if (uniformInt_ && scale > 0.0 && std::isfinite(scale))
        return quantizeUniformInt(in, out, n, 1.0 / scale, scale);
    return quantizeBatchScalar(in, out, n, scale);
}

void
QuantKernel::encodeBatchScalar(const float *in, uint32_t *out, int64_t n,
                               double scale) const
{
    const double inv =
        (scale > 0.0 && std::isfinite(scale)) ? 1.0 / scale : 0.0;
    const double *g = grid_.data();
    for (int64_t i = 0; i < n; ++i) {
        const double x = in[i] * inv;
        size_t idx;
        // NaN (a NaN input, or inf * 0 at a degenerate scale) takes the
        // low clamp, as the uniform-int encode's max/min sequence does.
        if (!(x > lo_)) {
            idx = 0;
        } else if (x >= hi_) {
            idx = grid_.size() - 1;
        } else {
            const size_t first = lowerBound(g, x);
            idx = (x - g[first - 1] < g[first] - x) ? first - 1 : first;
        }
        out[i] = codes_[idx];
    }
}

void
QuantKernel::encodeUniformInt(const float *in, uint32_t *out, int64_t n,
                              double inv) const
{
    constexpr int64_t kChunk = 1024;
    int32_t idx[kChunk];
    for (int64_t base = 0; base < n; base += kChunk) {
        const int64_t len = std::min(kChunk, n - base);
#if ANT_VEC_AVX2
        if (vecUseAvx2())
            encodeChunkAvx2(in + base, idx, len, inv, lo_, hi_);
        else
            encodeChunkScalar(in + base, idx, len, inv, lo_, hi_);
#else
        encodeChunkScalar(in + base, idx, len, inv, lo_, hi_);
#endif
        for (int64_t i = 0; i < len; ++i)
            out[base + i] = codes_[static_cast<size_t>(idx[i])];
    }
}

void
QuantKernel::encodeBatch(const float *in, uint32_t *out, int64_t n,
                         double scale) const
{
    if (uniformInt_) {
        const double inv =
            (scale > 0.0 && std::isfinite(scale)) ? 1.0 / scale : 0.0;
        encodeUniformInt(in, out, n, inv);
        return;
    }
    encodeBatchScalar(in, out, n, scale);
}

namespace {

int64_t
checkGroupLayout(const char *who, int64_t n, int64_t group_size,
                 size_t scale_count)
{
    if (group_size < 1)
        throw std::invalid_argument(std::string(who) +
                                    ": group_size must be >= 1 (got " +
                                    std::to_string(group_size) + ")");
    const int64_t groups = (n + group_size - 1) / group_size;
    if (static_cast<int64_t>(scale_count) != groups)
        throw std::invalid_argument(
            std::string(who) + ": " + std::to_string(scale_count) +
            " scales for " + std::to_string(groups) + " groups (n=" +
            std::to_string(n) + ", group_size=" +
            std::to_string(group_size) + ")");
    return groups;
}

} // namespace

double
QuantKernel::quantizeGroups(const float *in, float *out, int64_t n,
                            int64_t group_size,
                            const std::vector<double> &scales) const
{
    const int64_t groups = checkGroupLayout(
        "QuantKernel::quantizeGroups", n, group_size, scales.size());
    if (groups == 0) return 0.0;
    std::vector<double> errs(static_cast<size_t>(groups), 0.0);
    // ~4 ns/element of quantize work per group sets the chunk grain.
    const int64_t grain =
        grainForCost(4.0 * static_cast<double>(group_size));
    parallelFor(
        groups,
        [&](int64_t b, int64_t e) {
            for (int64_t g = b; g < e; ++g) {
                const int64_t off = g * group_size;
                const int64_t len = std::min(group_size, n - off);
                errs[static_cast<size_t>(g)] =
                    quantizeBatch(in + off, out ? out + off : nullptr,
                                  len,
                                  scales[static_cast<size_t>(g)]) *
                    static_cast<double>(len);
            }
        },
        grain);
    double err = 0.0;
    for (double e : errs) err += e;
    return err / static_cast<double>(n);
}

void
QuantKernel::encodeGroups(const float *in, uint32_t *out, int64_t n,
                          int64_t group_size,
                          const std::vector<double> &scales) const
{
    const int64_t groups = checkGroupLayout(
        "QuantKernel::encodeGroups", n, group_size, scales.size());
    const int64_t grain =
        grainForCost(4.0 * static_cast<double>(group_size));
    parallelFor(
        groups,
        [&](int64_t b, int64_t e) {
            for (int64_t g = b; g < e; ++g) {
                const int64_t off = g * group_size;
                const int64_t len = std::min(group_size, n - off);
                encodeBatch(in + off, out + off, len,
                            scales[static_cast<size_t>(g)]);
            }
        },
        grain);
}

void
QuantKernel::packBatch(const float *in, int64_t n, double scale,
                       uint64_t *words, int64_t bit_base) const
{
    const int b = type_->bits();
    const uint64_t mask = (uint64_t{1} << b) - 1;
    // Encode through the shared batch path (so packing can never drift
    // from encodeBatch), then OR the codes into the word stream.
    constexpr int64_t kChunk = 512;
    uint32_t buf[kChunk];
    const bool aligned = 64 % b == 0 && bit_base % b == 0;
    for (int64_t base = 0; base < n; base += kChunk) {
        const int64_t len = std::min(kChunk, n - base);
        encodeBatch(in + base, buf, len, scale);
        int64_t pos = bit_base + base * b;
        if (aligned) {
            // Aligned stride: no code ever straddles a word.
            for (int64_t i = 0; i < len; ++i, pos += b)
                words[pos >> 6] |=
                    static_cast<uint64_t>(buf[i] & mask) << (pos & 63);
            continue;
        }
        for (int64_t i = 0; i < len; ++i, pos += b) {
            const uint64_t code = buf[i] & mask;
            const int64_t w = pos >> 6;
            const int off = static_cast<int>(pos & 63);
            words[w] |= code << off;
            if (off + b > 64) words[w + 1] |= code >> (64 - off);
        }
    }
}

void
QuantKernel::packBatchWindow(const float *in, int64_t n, double scale,
                             uint64_t *words, int64_t bit_base,
                             int64_t word_lo, int64_t word_hi) const
{
    if (n <= 0) return;
    const int b = type_->bits();
    // Fully-contained ranges (every word the range's bits touch is
    // owned) skip the per-word window masks entirely — that is the
    // common case under the word-window parallel pack, where only the
    // two edge segments of a worker's window are partial.
    const int64_t w_first = bit_base >> 6;
    const int64_t w_last = (bit_base + n * b - 1) >> 6;
    if (w_first >= word_lo && w_last < word_hi) {
        packBatch(in, n, scale, words, bit_base);
        return;
    }
    const uint64_t mask = (uint64_t{1} << b) - 1;
    constexpr int64_t kChunk = 512;
    uint32_t buf[kChunk];
    for (int64_t base = 0; base < n; base += kChunk) {
        const int64_t len = std::min(kChunk, n - base);
        encodeBatch(in + base, buf, len, scale);
        int64_t pos = bit_base + base * b;
        for (int64_t i = 0; i < len; ++i, pos += b) {
            const uint64_t code = buf[i] & mask;
            const int64_t w = pos >> 6;
            const int off = static_cast<int>(pos & 63);
            if (w >= word_lo && w < word_hi)
                words[w] |= code << off;
            if (off + b > 64 && w + 1 >= word_lo && w + 1 < word_hi)
                words[w + 1] |= code >> (64 - off);
        }
    }
}

void
QuantKernel::buildDecodeLut(double scale, float *lut) const
{
    const int nc = type_->codeCount();
    for (int c = 0; c < nc; ++c)
        lut[c] = static_cast<float>(type_->codeValue(c) * scale);
}

void
QuantKernel::unpackBatchScalar(const uint64_t *words, int64_t bit_base,
                               int64_t n, double scale, float *out) const
{
    if (!(scale > 0.0 && std::isfinite(scale))) {
        // Degenerate scale: quantizeBatch writes +0.0f, so must we
        // (codeValue * 0.0 could produce -0.0 for negative grid points).
        for (int64_t i = 0; i < n; ++i) out[i] = 0.0f;
        return;
    }
    const int b = type_->bits();
    const uint64_t mask = (uint64_t{1} << b) - 1;
    int64_t pos = bit_base;
    for (int64_t i = 0; i < n; ++i, pos += b) {
        const int64_t w = pos >> 6;
        const int off = static_cast<int>(pos & 63);
        uint64_t code = words[w] >> off;
        if (off + b > 64) code |= words[w + 1] << (64 - off);
        code &= mask;
        out[i] = static_cast<float>(
            type_->codeValue(static_cast<uint32_t>(code)) * scale);
    }
}

void
QuantKernel::unpackBatch(const uint64_t *words, int64_t bit_base,
                         int64_t n, double scale, float *out) const
{
    if (!(scale > 0.0 && std::isfinite(scale))) {
        for (int64_t i = 0; i < n; ++i) out[i] = 0.0f;
        return;
    }
    const int b = type_->bits();
    // LUT decode: per-scale flat table of the exact per-element product
    // (float)(codeValue * scale), amortized when the range is not tiny
    // relative to the table. Bitwise identical to the scalar oracle by
    // construction; below the threshold the oracle is simply faster.
    if (b <= 8 && n >= (int64_t{1} << b) / 4) {
        float lut[256];
        buildDecodeLut(scale, lut);
#if ANT_VEC_AVX2
        if (vecUseAvx2() && b == 4 && bit_base % 4 == 0) {
            unpackDecode4Avx2(words, bit_base, n, lut, out);
            return;
        }
#endif
        constexpr int64_t kChunk = 1024;
        uint32_t codes[kChunk];
        for (int64_t base = 0; base < n; base += kChunk) {
            const int64_t len = std::min(kChunk, n - base);
            unpackCodes(words, bit_base + base * b, len, b, codes);
#if ANT_VEC_AVX2
            if (vecUseAvx2()) {
                if (b <= 3)
                    decodePerm8Avx2(codes, len, lut, out + base);
                else if (b <= 5)
                    decodePerm32Avx2(codes, len, lut, out + base);
                else
                    decodeLutAvx2(codes, len, lut, out + base);
                continue;
            }
#endif
            for (int64_t i = 0; i < len; ++i)
                out[base + i] = lut[codes[i]];
        }
        return;
    }
    unpackBatchScalar(words, bit_base, n, scale, out);
}

MagnitudeHistogram::MagnitudeHistogram(const float *in, int64_t n,
                                       bool is_signed, int bins)
    : bins_(std::max(1, bins)), n_(n)
{
    double m = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const double v =
            is_signed ? std::fabs(static_cast<double>(in[i]))
                      : std::max(0.0, static_cast<double>(in[i]));
        m = std::max(m, v);
    }
    amax_ = m;

    cnt_.assign(static_cast<size_t>(bins_) + 1, 0.0);
    sum_.assign(static_cast<size_t>(bins_) + 1, 0.0);
    sumsq_.assign(static_cast<size_t>(bins_) + 1, 0.0);
    if (empty()) return;

    invWidth_ = static_cast<double>(bins_) / amax_;
    for (int64_t i = 0; i < n; ++i) {
        const double x = in[i];
        double v;
        if (is_signed) {
            v = std::fabs(x);
        } else if (x < 0.0) {
            // Unsigned grids clamp negatives to 0: error x^2 at every
            // scale, so it never affects the ranking.
            constErr_ += x * x;
            continue;
        } else {
            v = x;
        }
        const size_t b = static_cast<size_t>(
            std::min(static_cast<double>(bins_ - 1), v * invWidth_));
        cnt_[b + 1] += 1.0;
        sum_[b + 1] += v;
        sumsq_[b + 1] += v * v;
    }
    for (size_t b = 1; b <= static_cast<size_t>(bins_); ++b) {
        cnt_[b] += cnt_[b - 1];
        sum_[b] += sum_[b - 1];
        sumsq_[b] += sumsq_[b - 1];
    }
}

double
MagnitudeHistogram::approxMse(const QuantKernel &kernel,
                              double scale) const
{
    if (n_ == 0) return 0.0;
    if (empty() || scale <= 0.0 || !std::isfinite(scale))
        return (sumsq_[static_cast<size_t>(bins_)] + constErr_) /
               static_cast<double>(n_);

    const std::vector<double> &g = kernel.magGrid();
    const size_t K = g.size();
    double err = constErr_;
    size_t b0 = 0;
    for (size_t i = 0; i < K; ++i) {
        // Magnitudes quantizing to q = g[i]*scale extend up to the
        // midpoint with the next grid level (or infinity at the top).
        size_t b1;
        if (i + 1 < K) {
            const double t = 0.5 * (g[i] + g[i + 1]) * scale;
            b1 = static_cast<size_t>(std::min(
                static_cast<double>(bins_),
                std::max(0.0, t * invWidth_)));
            b1 = std::max(b1, b0);
        } else {
            b1 = static_cast<size_t>(bins_);
        }
        if (b1 > b0) {
            const double C = cnt_[b1] - cnt_[b0];
            if (C != 0.0) {
                const double q = g[i] * scale;
                err += q * q * C - 2.0 * q * (sum_[b1] - sum_[b0]) +
                       (sumsq_[b1] - sumsq_[b0]);
            }
            b0 = b1;
        }
        if (b0 == static_cast<size_t>(bins_)) break;
    }
    return err / static_cast<double>(n_);
}

} // namespace ant
