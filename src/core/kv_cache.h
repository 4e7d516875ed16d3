/**
 * @file
 * Append-only packed KV-cache tensor: the storage side of the
 * autoregressive decode scenario (M-ANT's per-group KV quantization).
 *
 * A decode loop appends one [d] key/value row per token, so the natural
 * group axis is *time*: KVCacheTensor keeps one scale per group of
 * `groupSize` consecutive timesteps and stores the codes in QTensor's
 * word-packed layout for a [T, d] row-major tensor. Appending a row
 * extends the bit stream in place; only the current *open* (ragged
 * tail) group is ever re-encoded (its scale tightens as its rows
 * arrive, so its codes are re-packed against the refreshed scale),
 * closed groups are frozen bits plus a final scale. The open group's
 * float rows and one Observer sketch of them are the only calibration
 * state retained — O(groupSize * d + bins), independent of sequence
 * length; the sketch is reset the moment its group closes.
 *
 * The central contract is streaming/offline parity, pinned by
 * tests/test_kv_cache.cpp: after appending any prefix of a sequence
 * row by row (in any batch sizes), the cache's packed words and group
 * scales are *bitwise identical* to packFull() of the concatenated
 * prefix — which itself packs through the independent one-shot path
 * (one Observer pass per group + QTensor::pack). Calibration inherits
 * Observer's order-exactness; codes agree because closed groups'
 * scales are final the moment their last row arrives, and the tail is
 * always re-encoded against the scale packFull would pick for the same
 * rows.
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

#include "core/calibrator.h"
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

    /** How each group's scale is derived from its streaming sketch.
     *  MseSearch replays the observer's candidate sweep; MaxCalib uses
     *  the exact absmax. */
    ScaleMode scaleMode = ScaleMode::MseSearch;
    int searchSteps = 40;   //!< clip-ratio grid points for MseSearch
    double searchLo = 0.30; //!< smallest clip ratio explored

    /** Reject broken fields with std::invalid_argument naming the
     *  offending one: null type, type bits outside [2, 8] (the packed
     *  codec's range), groupSize < 1, and the scale-search knobs via
     *  QuantConfig::validate. */
    void validate() const;

    /** The scale-search view of this config: what each group sketch's
     *  searchScale query runs with. */
    QuantConfig searchConfig() const;
};

class KVCacheTensor
{
  public:
    /** Empty cache for rows of width @p feature_dim. Validates @p cfg;
     *  the open group's sketch takes the type's signedness. */
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
     *  closes — it tightens as the group's remaining rows arrive. */
    const std::vector<double> &scales() const { return scales_; }

    /**
     * Fold rows into the cache: @p rows is one [d] row or a [R, d]
     * batch (leading dimensions flattened into timestep rows). Each
     * row is observed into the open group's sketch, the group's scale
     * is re-searched from it, and the open group is re-encoded against
     * the new scale; closed groups are never touched. Appending a batch is
     * bitwise identical to appending its rows one at a time.
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

    /** Cumulative rows re-encoded by tail re-packs — the write
     *  amplification of streaming (a row in a group of g is re-encoded
     *  once per later arrival in its group, ~g/2 times on average). */
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
     * in one shot — one Observer pass and scale search per group,
     * QTensor::pack of the codes. The result is a fully functional
     * cache (its open group's floats and sketch are rebuilt from
     * @p kv), so decode can keep appending after a prefill. Streaming
     * parity with append() is the class contract.
     */
    static KVCacheTensor packFull(const Tensor &kv, KVCacheConfig cfg);

  private:
    /** Make the payload uniquely owned (copy-on-write vs outstanding
     *  packed() views) and zero-extended to @p nwords words. */
    void ensureOwnedWords(int64_t nwords);

    /** Re-encode the tail group's rows against scales_[g]. */
    void repackTail(int64_t g);

    KVCacheConfig cfg_;
    KernelPtr kernel_;
    QuantConfig searchCfg_;
    int64_t d_ = 0;
    int64_t t_ = 0;
    Observer open_; //!< sketch of the open group's rows
    std::vector<double> scales_;
    std::vector<float> tail_; //!< float rows of the open ragged group
    std::shared_ptr<std::vector<uint64_t>> words_;
    uint64_t repacked_ = 0;
};

} // namespace ant

#endif // ANT_CORE_KV_CACHE_H
