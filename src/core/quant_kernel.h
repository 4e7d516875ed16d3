/**
 * @file
 * The batched quantization engine: compiled per-type kernels and the
 * histogram MSE sketch.
 *
 * A QuantKernel snapshots a NumericType's value grid into flat arrays so
 * the hot loops run devirtualized and branch-light; its batch ops are
 * bit-exact with the scalar reference (NumericType::quantizeValue /
 * encodeNearest applied element-wise).
 *
 * The batch entry points (quantizeBatch / encodeBatch / unpackBatch)
 * are *dispatched*: uniform-int grids take a branch-free arithmetic
 * form (floor + half-compare + clamp — no lower_bound), sub-9-bit
 * decodes go through a per-scale flat LUT, and both get explicit AVX2
 * variants behind the tensor/vec.h guards. Every dispatched path is
 * bitwise identical to its `*Scalar` oracle counterpart, which is kept
 * public both as the fallback and as the pin for the SIMD parity suite
 * (tests/test_simd_sched.cpp).
 *
 * A MagnitudeHistogram is a one-pass sketch of a range's magnitudes from
 * which the quantization MSE of *any* (type, scale) pair is evaluated in
 * O(grid) per candidate — independent of the element count — via per-bin
 * count/sum/sum-of-squares prefix tables. The scale search in
 * core/quantizer.cpp uses it to rank the clip-ratio sweep of Algorithm 2
 * without re-walking the tensor once per candidate; exactness is
 * controlled by QuantConfig::exactness (see quantizer.h).
 */

#ifndef ANT_CORE_QUANT_KERNEL_H
#define ANT_CORE_QUANT_KERNEL_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/numeric_type.h"

namespace ant {

/**
 * Flat, devirtualized snapshot of one NumericType's grid.
 *
 * Construction is O(codeCount); the kernel borrows the NumericType by
 * reference, so the type must outlive the kernel.
 */
class QuantKernel
{
  public:
    explicit QuantKernel(const NumericType &type);

    const NumericType &type() const { return *type_; }
    bool isSigned() const { return signed_; }
    double maxValue() const { return hi_; }
    double minValue() const { return lo_; }

    /**
     * Bit-exact scalar analogue of NumericType::quantizeValue: clamp to
     * the grid, round to nearest (same tie rule), no virtual dispatch.
     * NaN clamps low.
     */
    double
    quantizeValue(double x) const
    {
        if (!(x > lo_)) return lo_;
        if (x >= hi_) return hi_;
        const double *g = grid_.data();
        const size_t first = lowerBound(g, x);
        const double hi = g[first];
        const double lo = g[first - 1];
        return (x - lo < hi - x) ? lo : hi;
    }

    /**
     * Quantize a flat range with a fixed scale; writes dequantized
     * values to @p out (may be null or alias @p in) and returns the MSE.
     * Bit-exact with the scalar reference path, including the
     * degenerate-scale (all-zero) behaviour. Dispatches to the
     * branch-free / AVX2 form for uniform-int grids; the MSE is always
     * accumulated in index order, so it is bitwise identical to
     * quantizeBatchScalar on every path.
     */
    double quantizeBatch(const float *in, float *out, int64_t n,
                         double scale) const;

    /**
     * The undithered scalar oracle of quantizeBatch: one lower_bound
     * per element, no SIMD, no LUTs. The dispatched paths are pinned
     * bitwise against this across the full spec matrix.
     */
    double quantizeBatchScalar(const float *in, float *out, int64_t n,
                               double scale) const;

    /** MSE only (no output written). */
    double
    mseBatch(const float *in, int64_t n, double scale) const
    {
        return quantizeBatch(in, nullptr, n, scale);
    }

    /**
     * Codes of the nearest grid points: bit-exact with
     * type.encodeNearest(in[i] * (1.0 / scale)) per element — the same
     * reciprocal-multiply convention the quantize path uses. Dispatched
     * (uniform-int grids encode arithmetically); bitwise identical to
     * encodeBatchScalar.
     */
    void encodeBatch(const float *in, uint32_t *out, int64_t n,
                     double scale) const;

    /** Scalar oracle of encodeBatch (bucket-LUT lower_bound loop). */
    void encodeBatchScalar(const float *in, uint32_t *out, int64_t n,
                           double scale) const;

    /**
     * Group-strided quantize (Granularity::PerGroup): the flat range is
     * split into contiguous groups of @p group_size elements (the last
     * group is ragged when group_size does not divide @p n), group g
     * quantized with scales[g]. @p scales must hold exactly
     * ceil(n / group_size) entries. Groups fan out over the engine's
     * thread pool; each group's elements are bit-exact with
     * quantizeBatch on that slice, and the returned MSE is the
     * deterministic group-index-order reduction over @p n elements.
     * @p out may be null (MSE only) or alias @p in.
     */
    double quantizeGroups(const float *in, float *out, int64_t n,
                          int64_t group_size,
                          const std::vector<double> &scales) const;

    /** Group-strided encodeBatch: group g encoded with scales[g]. Same
     *  layout contract as quantizeGroups. */
    void encodeGroups(const float *in, uint32_t *out, int64_t n,
                      int64_t group_size,
                      const std::vector<double> &scales) const;

    /**
     * Encode a flat range (bit-exact with encodeBatch) and bit-pack the
     * codes into a word stream: element i of the range occupies the
     * type's bits() bits starting at absolute bit position
     * @p bit_base + i * bits(), LSB-first within each `uint64_t` word,
     * straddling word boundaries when bits() does not divide 64.
     * @p words must be zero-initialized over the touched span (the
     * writer ORs bits in, so ranges packed back to back may share a
     * boundary word — which also means adjacent ranges must not be
     * packed concurrently).
     */
    void packBatch(const float *in, int64_t n, double scale,
                   uint64_t *words, int64_t bit_base) const;

    /**
     * packBatch restricted to a word window: encodes the same codes at
     * the same bit positions but ORs in only the bits that land in
     * words [word_lo, word_hi). This is what makes packing
     * parallelizable — workers repartition the element stream on word
     * boundaries, each re-encoding the (at most one) element straddling
     * its edge, and no two workers ever write the same word. Bit-exact
     * with packBatch: masking happens per destination word, after
     * the identical encode.
     */
    void packBatchWindow(const float *in, int64_t n, double scale,
                         uint64_t *words, int64_t bit_base,
                         int64_t word_lo, int64_t word_hi) const;

    /**
     * Decode a packed range back to dequantized floats: code ->
     * unscaled grid value * @p scale, bitwise identical to what
     * quantizeBatch writes for the original data at the same scale
     * (both sides multiply the same grid double by the same scale).
     * A degenerate scale (<= 0 or non-finite) writes zeros, matching
     * quantizeBatch's degenerate path. Safe to call concurrently.
     * Dispatched: <= 8-bit codes decode through a per-scale flat float
     * LUT (SoA two-pass: branchless bit extraction, then LUT map /
     * AVX2 gather); bitwise identical to unpackBatchScalar.
     */
    void unpackBatch(const uint64_t *words, int64_t bit_base, int64_t n,
                     double scale, float *out) const;

    /** Scalar oracle of unpackBatch (per-element extract + decode). */
    void unpackBatchScalar(const uint64_t *words, int64_t bit_base,
                           int64_t n, double scale, float *out) const;

    /**
     * Non-negative grid values (signed grids folded to magnitudes).
     * This is the decision lattice the histogram sketch sweeps.
     */
    const std::vector<double> &magGrid() const { return magGrid_; }

  private:
    /**
     * Index of the first grid value >= x, for x strictly inside
     * (lo_, hi_): a uniform-bucket table jumps to the bracket, a short
     * forward scan finishes. bucketOf is monotone in x, so every grid
     * point before start_[bucketOf(x)] is < x and the scan lands on
     * exactly the index std::lower_bound would return.
     */
    size_t
    lowerBound(const double *g, double x) const
    {
        size_t first;
        if (invStep_ > 0.0) {
            const int64_t raw =
                static_cast<int64_t>((x - lo_) * invStep_);
            const size_t b = static_cast<size_t>(
                std::min<int64_t>(raw, bucketCount_ - 1));
            first = start_[b];
        } else {
            first = 1; // two-point grid or degenerate span
        }
        while (g[first] < x) ++first;
        return first;
    }

    int64_t
    bucketOf(double v) const
    {
        const int64_t raw = static_cast<int64_t>((v - lo_) * invStep_);
        return std::min<int64_t>(raw, bucketCount_ - 1);
    }

    /** Fill @p lut (codeCount() floats) with code -> (float)(value *
     *  scale) — exactly what the decode paths compute per element. */
    void buildDecodeLut(double scale, float *lut) const;

    double quantizeUniformInt(const float *in, float *out, int64_t n,
                              double inv, double scale) const;
    void encodeUniformInt(const float *in, uint32_t *out, int64_t n,
                          double inv) const;

    const NumericType *type_;
    std::vector<double> grid_;     //!< sorted unique values
    std::vector<uint32_t> codes_;  //!< code of each grid point
    std::vector<double> magGrid_;  //!< sorted unique values >= 0
    std::vector<uint16_t> start_;  //!< bucket -> first grid idx therein
    double lo_;                    //!< grid front
    double hi_;                    //!< grid back
    double invStep_ = 0.0;         //!< buckets per unit of value
    int64_t bucketCount_ = 0;
    bool signed_;
    bool uniformInt_ = false;      //!< grid is {lo_, lo_+1, ..., hi_}
};

/**
 * One-pass magnitude histogram of a flat range with prefix-summed
 * count/sum/sum-of-squares per bin.
 *
 * The sketch treats the quantized value as constant within a bin, which
 * holds exactly except in the O(grid) bins a decision boundary crosses;
 * the approximation is therefore ranking-quality, not bit-exact, and the
 * engine re-scores the top-ranked scales exactly (QuantConfig::
 * exactness) before committing.
 */
class MagnitudeHistogram
{
  public:
    /**
     * Build from a flat range. @p is_signed selects the magnitude
     * convention of the scale search: |x| for signed grids, max(0, x)
     * for unsigned grids (negative values then clamp to zero and
     * contribute a scale-independent error term).
     */
    MagnitudeHistogram(const float *in, int64_t n, bool is_signed,
                       int bins);

    /** Largest magnitude seen (the absmax the scale search starts from). */
    double absMax() const { return amax_; }

    int64_t count() const { return n_; }

    /** True when there is nothing to sketch (empty or all-zero range). */
    bool empty() const { return n_ == 0 || amax_ == 0.0; }

    /**
     * Approximate MSE of quantizing the sketched range with @p kernel at
     * @p scale. O(kernel.magGrid().size()) — independent of the range
     * length.
     */
    double approxMse(const QuantKernel &kernel, double scale) const;

  private:
    int bins_;
    int64_t n_ = 0;
    double amax_ = 0.0;
    double invWidth_ = 0.0;
    double constErr_ = 0.0; //!< clamp error of negatives, unsigned grids
    // Prefix tables over bins: e.g. cnt_[i] = #elements in bins [0, i).
    std::vector<double> cnt_, sum_, sumsq_;
};

} // namespace ant

#endif // ANT_CORE_QUANT_KERNEL_H
