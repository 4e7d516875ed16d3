/**
 * @file
 * Streaming calibration observers.
 *
 * An Observer accumulates a fixed-binning magnitude sketch (plus the
 * exact absmax and element count) over arbitrarily many batches, then
 * answers searchScale/selectType queries from the merged sketch — no
 * concatenated calibration tensor is ever materialized, so a server can
 * calibrate from a rolling traffic sample in O(bins) memory.
 * GroupObserver keeps one Observer per feature group; the KV cache
 * (kv_cache.h) keeps one Observer for its open time group.
 *
 * Unlike MagnitudeHistogram (quant_kernel.h), whose linear binning is
 * relative to one tensor's absmax, the observer bins log-domain:
 * each power-of-two octave is split into kBinsPerOctave linear
 * sub-bins, so the binning is independent of the data seen so far.
 * That makes accumulation order-exact: observing batches b1, b2, ...
 * produces bit-identical state to observing their concatenation, which
 * is what pins streaming calibration to the single-pass reference
 * (tests/test_calibrator.cpp).
 */

#ifndef ANT_CORE_CALIBRATOR_H
#define ANT_CORE_CALIBRATOR_H

#include <vector>

#include "core/quant_kernel.h"
#include "core/type_selector.h"
#include "tensor/tensor.h"

namespace ant {

/** Static configuration of one Observer. */
struct ObserverConfig
{
    /**
     * Magnitude convention of the sketch: |x| for signed target grids,
     * max(0, x) for unsigned grids (negatives then clamp to zero and
     * contribute a scale-independent error term). Must match the
     * signedness of the types later queried.
     */
    bool isSigned = true;
};

/** Outcome of an Algorithm 2 query answered from the sketch. */
struct ObserverSelection
{
    TypePtr type;    //!< argmin sketch-MSE candidate
    double scale = 0.0;
    double mse = 0.0; //!< sketch MSE at the chosen (type, scale)
    std::vector<CandidateScore> scores; //!< sketch MSE per candidate
};

/**
 * Streaming magnitude observer.
 *
 * Not thread-safe: use one observer per tensor role and merge() shards
 * if batches are observed concurrently. Queries (const methods) may be
 * interleaved with further observe() calls; each query reflects
 * everything observed so far.
 */
class Observer
{
  public:
    /**
     * Linear sub-bins per power-of-two octave: enough resolution that
     * the sketch's scale picks coincide with the exact in-memory sweep
     * on every distribution family in the test matrix
     * (tests/test_calibrator.cpp); halving it starts to flip near-tied
     * candidates in flat MSE valleys.
     */
    static constexpr int kBinsPerOctave = 128;

    /** Octave clamp range: magnitudes below 2^kMinExp fall into the
     *  first bin, magnitudes in [2^kMaxExp, 2^(kMaxExp+1)) into the
     *  last. */
    static constexpr int kMinExp = -44;
    static constexpr int kMaxExp = 20;

    explicit Observer(ObserverConfig cfg = ObserverConfig{});

    const ObserverConfig &config() const { return cfg_; }

    /** Accumulate a flat range into the sketch. */
    void observe(const float *x, int64_t n);

    /** Accumulate a whole tensor. */
    void observe(const Tensor &t);

    /** Total elements observed (including zeros and clamped values). */
    int64_t count() const { return n_; }

    /** Largest magnitude observed so far (exact, not binned). */
    double absMax() const { return amax_; }

    /** True when nothing useful has been observed (no data, or all
     *  zero / all clamped-to-zero). */
    bool empty() const { return n_ == 0 || amax_ == 0.0; }

    /** Forget everything (config is kept). */
    void reset();

    /**
     * Fold another observer's accumulation into this one. Both must
     * share the same signedness. Merging shards is associative
     * but, being floating-point, not bit-order-independent — merge in a
     * fixed shard order for reproducible results.
     */
    void merge(const Observer &other);

    /**
     * Sketch MSE of quantizing everything observed with @p kernel at
     * @p scale. O(bins + grid), independent of count().
     */
    double approxMse(const QuantKernel &kernel, double scale) const;

    /**
     * Scale search answered from the sketch: the same candidate set as
     * the in-memory search (candidateScales), every candidate scored
     * via approxMse, first strict argmin wins — mirroring the exact
     * sweep's tie-breaking. MaxCalib and PowerOfTwo modes are
     * supported; cfg.exactness is ignored (there is no buffered data
     * to re-score, the sketch is all three modes' evidence).
     */
    double searchScale(const NumericType &type,
                       const QuantConfig &cfg) const;

    /** Kernel-reusing overload for callers sweeping many observers
     *  with the same type (GroupObserver, KVCacheTensor); cfg.type is
     *  ignored. */
    double
    searchScale(const QuantKernel &kernel, const QuantConfig &cfg) const
    {
        return searchScaleKernel(kernel, cfg);
    }

    /**
     * Algorithm 2 from the sketch: rank every candidate by its
     * best-scale sketch MSE and return the argmin with its scale.
     * @p base_cfg.type is ignored.
     */
    ObserverSelection selectType(const std::vector<TypePtr> &candidates,
                                 const QuantConfig &base_cfg) const;

  private:
    size_t binOf(double v) const;
    double thresholdPos(double t) const;
    size_t bins() const { return cnt_.size(); }
    double searchScaleKernel(const QuantKernel &kernel,
                             const QuantConfig &cfg) const;
    void refreshPrefix() const;

    ObserverConfig cfg_;
    int64_t n_ = 0;
    double amax_ = 0.0;
    double constErr_ = 0.0; //!< clamp error of negatives, unsigned mode
    std::vector<double> cnt_, sum_, sumsq_; //!< per-bin accumulators

    // Prefix tables derived from the accumulators, rebuilt lazily on
    // query after new observations (pcnt_[i] = count in bins [0, i)).
    mutable bool prefixDirty_ = true;
    mutable std::vector<double> pcnt_, psum_, psumsq_;
};

/** Outcome of a per-group Algorithm 2 query answered from sketches. */
struct GroupObserverSelection
{
    int64_t groupSize = 0;      //!< configured group length
    int64_t groups = 0;         //!< groups tiling the feature dim
    std::vector<TypePtr> types; //!< argmin type per group
    std::vector<double> scales; //!< searched scale per group
    double mse = 0.0;           //!< element-weighted sketch MSE
};

/**
 * Streaming per-group magnitude observer (Granularity::PerGroup for
 * activations): groups tile the *innermost* (feature) dimension in
 * contiguous runs of groupSize, shared across rows — the layout a
 * GPT-style linear layer needs for static per-group activation scales.
 * One Observer sketch per group; every batch streamed in splits each
 * row across the group sketches, so accumulation inherits the
 * order-exactness of Observer. The feature dimension is fixed by the
 * first observe() call (a later batch with a different innermost dim
 * throws). Like Observer, not thread-safe; merge() shards instead.
 */
class GroupObserver
{
  public:
    explicit GroupObserver(int64_t group_size,
                           ObserverConfig cfg = ObserverConfig{});

    int64_t groupSize() const { return gs_; }

    /** Innermost dimension seen so far (0 before the first batch). */
    int64_t featureDim() const { return dim_; }

    /** Group sketches allocated (0 before the first batch). */
    int64_t groups() const { return static_cast<int64_t>(obs_.size()); }

    /** One group's sketch, for diagnostics or custom queries. */
    const Observer &group(int64_t g) const;

    /** Total elements observed across all groups. */
    int64_t count() const;

    /** True when no group has observed anything useful. */
    bool empty() const;

    /** Forget everything, including the feature dimension. */
    void reset();

    /** Fold another group observer's sketches into this one. Both must
     *  share group size, signedness, and (once seen) feature
     *  dimension. */
    void merge(const GroupObserver &other);

    /**
     * Accumulate a batch: the tensor's innermost dimension is the
     * feature axis; every leading dimension is flattened into rows.
     * Group g sketches columns [g*groupSize, (g+1)*groupSize) of every
     * row (the last group is ragged when groupSize does not divide the
     * feature dim).
     */
    void observe(const Tensor &t);

    /** Per-group scale search for one fixed type (cfg.type ignored). */
    std::vector<double> searchScales(const NumericType &type,
                                     const QuantConfig &cfg) const;

    /**
     * Per-group Algorithm 2 from the sketches. GroupTypeMode::Shared
     * picks one type for all groups (argmin of the element-weighted
     * sketch MSE summed over groups); PerGroup runs the argmin
     * independently per group. PerChannel is meaningless here — the
     * group axis already is the innermost one — and is treated as
     * Shared. @p base_cfg.type is ignored.
     */
    GroupObserverSelection
    selectType(const std::vector<TypePtr> &candidates,
               const QuantConfig &base_cfg,
               GroupTypeMode mode = GroupTypeMode::PerGroup) const;

  private:
    int64_t gs_;
    int64_t dim_ = 0;
    ObserverConfig cfg_;
    std::vector<Observer> obs_;
};

} // namespace ant

#endif // ANT_CORE_CALIBRATOR_H
