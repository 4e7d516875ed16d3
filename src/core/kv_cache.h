/**
 * @file
 * Append-only packed KV-cache tensor: the storage side of the
 * autoregressive decode scenario (M-ANT's per-group KV quantization).
 *
 * A decode loop appends one [d] key/value row per token, so the natural
 * group axis is *time*: KVCacheTensor keeps one scale per group of
 * `groupSize` consecutive timesteps and stores the codes in QTensor's
 * word-packed layout for a [T, d] row-major tensor. Appending a row
 * extends the bit stream in place; closed groups are frozen bits plus
 * a final scale, and only the *open* (ragged tail) group is ever
 * re-encoded:
 *
 *  - while the group is open its scale is the MaxCalib pick of its
 *    rows so far (absmax / the type's largest value, exactly what
 *    Observer::searchScale returns under ScaleMode::MaxCalib). A new
 *    row is encoded once at that scale; the tail is re-encoded only
 *    when the row raises the absmax;
 *  - when the group's last row arrives, the configured search
 *    (KVCacheConfig::scaleMode) runs once over the retained tail
 *    floats, and the group is re-encoded once if that scale differs.
 *
 * The open group's float rows and their running absmax are the only
 * calibration state retained — O(groupSize * d), independent of
 * sequence length; no sketch outlives the close that needs it.
 *
 * The central contract is streaming/offline parity, pinned by
 * tests/test_kv_cache.cpp: after appending any prefix of a sequence
 * row by row (in any batch sizes), the cache's packed words and group
 * scales are *bitwise identical* to packFull() of the concatenated
 * prefix — which itself packs through the independent one-shot path
 * (the same per-group scale rules + QTensor::pack). Closed groups
 * agree because both sides run the same search over the same rows;
 * the open tail agrees because the absmax is order-independent and
 * the tail's codes always sit at its current scale.
 *
 * packed() exposes the cache as a zero-copy QTensor *view* in the
 * PerChannel layout (row t carries its group's scale), so the packed
 * execution engine attends over it unchanged: packedMatmulBT for
 * q @ K^T, packedMatmul for probs @ V — no float K/V materialization
 * (serve/decode.h). Snapshots stay immutable under further appends via
 * copy-on-write of the payload words.
 */

#ifndef ANT_CORE_KV_CACHE_H
#define ANT_CORE_KV_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/qtensor.h"
#include "core/quantizer.h"
#include "core/type_registry.h"

namespace ant {

/** Static configuration of one KVCacheTensor. */
struct KVCacheConfig
{
    /** Storage type of the packed codes (required; bits in [2, 8]). */
    TypePtr type;

    /** Timesteps per scale group (the M-ANT sweep's g; 128 default). */
    int64_t groupSize = 128;

    /** How a closed group's scale is searched from its rows (an
     *  Observer sketch built once, at close). MseSearch replays the
     *  observer's candidate sweep; MaxCalib uses the exact absmax. The
     *  open group always uses the MaxCalib pick. */
    ScaleMode scaleMode = ScaleMode::MseSearch;
    int searchSteps = 40;   //!< clip-ratio grid points for MseSearch
    double searchLo = 0.30; //!< smallest clip ratio explored

    /** Reject broken fields with std::invalid_argument naming the
     *  offending one: null type, type bits outside [2, 8] (the packed
     *  codec's range), groupSize < 1, and the scale-search knobs via
     *  QuantConfig::validate. */
    void validate() const;

    /** The scale-search view of this config: what each closing
     *  group's searchScale query runs with. */
    QuantConfig searchConfig() const;
};

class KVCacheTensor
{
  public:
    /** Empty cache for rows of width @p feature_dim. Validates @p cfg. */
    KVCacheTensor(int64_t feature_dim, KVCacheConfig cfg);

    const KVCacheConfig &config() const { return cfg_; }
    int64_t featureDim() const { return d_; }

    /** Rows appended so far. */
    int64_t timesteps() const { return t_; }

    /** Scale groups so far: ceil(timesteps / groupSize). */
    int64_t groups() const
    {
        return static_cast<int64_t>(scales_.size());
    }

    /** Timesteps per scale group. */
    int64_t groupSize() const { return cfg_.groupSize; }

    /** One scale per time group; entry g covers rows [g * groupSize,
     *  (g+1) * groupSize). The last entry is live until its group
     *  closes: the MaxCalib pick of the rows so far, replaced by the
     *  configured search when the group's last row arrives. */
    const std::vector<double> &scales() const { return scales_; }

    /**
     * Fold rows into the cache: @p rows is one [d] row or a [R, d]
     * batch (leading dimensions flattened into timestep rows). New rows
     * are encoded at the open group's scale; the open group is
     * re-encoded only when its scale moves (its absmax grows, or the
     * closing search picks another scale). Closed groups are never
     * touched. Non-finite values never raise the absmax (NaN codes as
     * the grid's low clamp). Appending a batch is bitwise identical to
     * appending its rows one at a time.
     */
    void append(const Tensor &rows);

    /**
     * The cache as a packed QTensor over shape [timesteps, featureDim]
     * in the PerChannel layout: row t carries scale
     * scales()[t / groupSize]. Zero-copy: the view shares the cache's
     * payload words (and keeps them alive); a later append()
     * copies-on-write, so outstanding snapshots stay immutable and
     * bitwise stable. Throws std::logic_error on an empty cache.
     */
    QTensor packed() const;

    /** Dequantized [timesteps, featureDim] tensor — packed().unpack(),
     *  for diagnostics and MSE probes (counts as an unpack; the decode
     *  path never calls it). */
    Tensor dequant() const;

    /** True serving footprint: packed payload words of the current
     *  timestep count plus 8 bytes per group scale (the retained tail
     *  floats are working state, not storage). */
    size_t nbytes() const;

    /** Cumulative rows encoded by append(): every row once, plus the
     *  open group's rows again each time its scale moves (an absmax
     *  rise, or a closing search that differs from the MaxCalib pick).
     *  The write amplification of streaming; packFull counts none. */
    uint64_t repackedRows() const { return repacked_; }

    /**
     * nbytes() of a cache of @p timesteps rows of width @p feature_dim
     * at @p bits per code, one scale per @p group_size timesteps —
     * the analytic form the decode-traffic simulator charges
     * (sim/decode.h), pinned against a real cache's nbytes().
     */
    static size_t footprintBytes(int64_t timesteps, int64_t feature_dim,
                                 int bits, int64_t group_size);

    /**
     * The offline oracle: calibrate and pack the whole [T, d] tensor
     * in one shot — the closing search for every complete group, the
     * MaxCalib pick for a ragged tail, QTensor::pack of the codes. The
     * result is a fully functional cache (its open group's floats and
     * absmax are rebuilt from @p kv), so decode can keep appending
     * after a prefill. Streaming parity with append() is the class
     * contract.
     */
    static KVCacheTensor packFull(const Tensor &kv, KVCacheConfig cfg);

  private:
    /** Make the payload uniquely owned (copy-on-write vs outstanding
     *  packed() views) and zero-extended to @p nwords words. */
    void ensureOwnedWords(int64_t nwords);

    /** Encode the open group @p g's rows [from, timesteps) against
     *  scales_[g], over whatever bits they held. */
    void encodeTail(int64_t g, int64_t from);

    /** Largest magnitude of @p x under the type's convention (|x|
     *  signed, positive x unsigned), skipping non-finite values — the
     *  absMax() an Observer of the same values reports. */
    double absMaxOf(const float *x, int64_t n) const;

    /** The configured search over a complete group's rows, through a
     *  sketch that lives only for this call. */
    double closedScale(const float *x, int64_t n) const;

    KVCacheConfig cfg_;
    KernelPtr kernel_;
    QuantConfig searchCfg_;
    int64_t d_ = 0;
    int64_t t_ = 0;
    double tailMax_ = 0.0; //!< absMaxOf the open group's rows
    std::vector<double> scales_;
    std::vector<float> tail_; //!< float rows of the open ragged group
    std::shared_ptr<std::vector<uint64_t>> words_;
    uint64_t repacked_ = 0;
};

} // namespace ant

#endif // ANT_CORE_KV_CACHE_H
