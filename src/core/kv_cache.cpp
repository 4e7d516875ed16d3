#include "core/kv_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/calibrator.h"
#include "core/type_registry.h"

namespace ant {

void
KVCacheConfig::validate() const
{
    if (!type)
        throw std::invalid_argument("KVCacheConfig.type: null type");
    if (groupSize < 1)
        throw std::invalid_argument(
            "KVCacheConfig.groupSize: must be >= 1 (got " +
            std::to_string(groupSize) + ")");
    // Bit range and the search knobs share the quantizer's contract.
    searchConfig().validate();
}

QuantConfig
KVCacheConfig::searchConfig() const
{
    QuantConfig qc;
    qc.type = type;
    qc.granularity = Granularity::PerTensor; // per-sketch queries
    qc.scaleMode = scaleMode;
    qc.searchSteps = searchSteps;
    qc.searchLo = searchLo;
    return qc;
}

namespace {

/** Validate the config before any member construction can touch the
 *  type. */
KVCacheConfig
validatedConfig(KVCacheConfig cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

KVCacheTensor::KVCacheTensor(int64_t feature_dim, KVCacheConfig cfg)
    : cfg_(validatedConfig(std::move(cfg))),
      kernel_(cachedKernel(cfg_.type)),
      searchCfg_(cfg_.searchConfig()),
      d_(feature_dim)
{
    if (d_ < 1)
        throw std::invalid_argument(
            "KVCacheTensor: feature_dim must be >= 1 (got " +
            std::to_string(d_) + ")");
}

void
KVCacheTensor::ensureOwnedWords(int64_t nwords)
{
    if (!words_) {
        words_ = std::make_shared<std::vector<uint64_t>>();
    } else if (words_.use_count() > 1) {
        // An outstanding packed() view shares the payload: snapshots
        // are immutable, so mutation forces a fresh copy.
        words_ = std::make_shared<std::vector<uint64_t>>(*words_);
    }
    if (static_cast<int64_t>(words_->size()) < nwords)
        words_->resize(static_cast<size_t>(nwords), 0);
}

void
KVCacheTensor::encodeTail(int64_t g, int64_t from)
{
    const int bits = cfg_.type->bits();
    const int64_t bit0 = from * d_ * bits;
    const int64_t need = QTensor::wordCount(t_ * d_, bits);
    ensureOwnedWords(need);
    std::vector<uint64_t> &w = *words_;
    // Zero the bit range [bit0, end of stream): the boundary word may
    // carry frozen bits of earlier rows below bit offset off0, which
    // must survive; everything above gets (re-)encoded. Words past the
    // stream end are already zero.
    const int64_t w0 = bit0 / 64;
    const int off0 = static_cast<int>(bit0 % 64);
    w[static_cast<size_t>(w0)] &=
        off0 ? ((uint64_t{1} << off0) - 1) : uint64_t{0};
    for (int64_t i = w0 + 1; i < need; ++i)
        w[static_cast<size_t>(i)] = 0;
    const int64_t skip = (from - g * cfg_.groupSize) * d_;
    kernel_->packBatch(tail_.data() + skip,
                       static_cast<int64_t>(tail_.size()) - skip,
                       scales_[static_cast<size_t>(g)], w.data(), bit0);
    repacked_ += static_cast<uint64_t>(t_ - from);
}

double
KVCacheTensor::absMaxOf(const float *x, int64_t n) const
{
    // Observer::observe's rule: unsigned grids clamp negatives to zero
    // (they never raise the max), non-finite values are skipped.
    const bool is_signed = cfg_.type->isSigned();
    float m = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
        const float v = is_signed ? std::fabs(x[i]) : x[i];
        if (v > m && v <= std::numeric_limits<float>::max()) m = v;
    }
    return static_cast<double>(m);
}

double
KVCacheTensor::closedScale(const float *x, int64_t n) const
{
    Observer obs(ObserverConfig{cfg_.type->isSigned()});
    obs.observe(x, n);
    return obs.searchScale(*kernel_, searchCfg_);
}

void
KVCacheTensor::append(const Tensor &rows)
{
    if (rows.ndim() < 1 || rows.numel() == 0)
        throw std::invalid_argument("KVCacheTensor::append: empty rows");
    const int64_t d = rows.dim(rows.ndim() - 1);
    if (d != d_)
        throw std::invalid_argument(
            "KVCacheTensor::append: row width " + std::to_string(d) +
            " != feature dim " + std::to_string(d_));
    const int64_t n = rows.numel() / d_;
    const float *src = rows.data();
    const int64_t gs = cfg_.groupSize;
    // Process the batch one group-run at a time. Within one run only
    // the final scale survives, so encoding the run's rows once at it
    // is bitwise identical to appending the rows one at a time — the
    // batch-parity contract.
    int64_t done = 0;
    while (done < n) {
        const int64_t g = t_ / gs;
        const int64_t take = std::min(n - done, gs - (t_ - g * gs));
        const float *run = src + done * d_;
        tail_.insert(tail_.end(), run, run + take * d_);
        tailMax_ = std::max(tailMax_, absMaxOf(run, take * d_));
        const int64_t t0 = t_;
        t_ += take;
        if (static_cast<int64_t>(scales_.size()) <= g)
            scales_.resize(static_cast<size_t>(g) + 1, 0.0);
        // An open group carries the MaxCalib pick of its rows so far; a
        // closing one gets the configured search over all its rows —
        // the query packFull issues, so closed scales are final and
        // bit-equal to the offline pick.
        const bool closes = t_ % gs == 0;
        const double scale =
            closes ? closedScale(tail_.data(),
                                 static_cast<int64_t>(tail_.size()))
                   : tailMax_ / kernel_->maxValue();
        // A moved scale re-encodes the whole open group; otherwise its
        // earlier codes stay valid and only the new rows are encoded.
        double &cur = scales_[static_cast<size_t>(g)];
        const int64_t from = scale != cur ? g * gs : t0;
        cur = scale;
        encodeTail(g, from);
        if (closes) {
            // The group closed: its scale is final, its codes frozen.
            tail_.clear();
            tailMax_ = 0.0;
        }
        done += take;
    }
}

QTensor
KVCacheTensor::packed() const
{
    if (t_ == 0)
        throw std::logic_error("KVCacheTensor::packed: empty cache");
    const int bits = cfg_.type->bits();
    const int64_t gs = cfg_.groupSize;
    std::vector<double> row_scales;
    row_scales.reserve(static_cast<size_t>(t_));
    for (int64_t t = 0; t < t_; ++t)
        row_scales.push_back(scales_[static_cast<size_t>(t / gs)]);
    return QTensor::fromView(
        Shape{t_, d_}, cfg_.type, Granularity::PerChannel,
        /*group_size=*/0, std::move(row_scales), words_->data(),
        static_cast<size_t>(QTensor::wordCount(t_ * d_, bits)), words_);
}

Tensor
KVCacheTensor::dequant() const
{
    return packed().unpack();
}

size_t
KVCacheTensor::nbytes() const
{
    return footprintBytes(t_, d_, cfg_.type->bits(), cfg_.groupSize);
}

size_t
KVCacheTensor::footprintBytes(int64_t timesteps, int64_t feature_dim,
                              int bits, int64_t group_size)
{
    if (timesteps < 0 || feature_dim < 1 || bits < 1 || group_size < 1)
        throw std::invalid_argument(
            "KVCacheTensor::footprintBytes: bad arguments");
    const int64_t words = QTensor::wordCount(timesteps * feature_dim,
                                             bits);
    const int64_t groups = (timesteps + group_size - 1) / group_size;
    return static_cast<size_t>(words) * sizeof(uint64_t) +
           static_cast<size_t>(groups) * sizeof(double);
}

KVCacheTensor
KVCacheTensor::packFull(const Tensor &kv, KVCacheConfig cfg)
{
    if (kv.ndim() < 1 || kv.numel() == 0)
        throw std::invalid_argument(
            "KVCacheTensor::packFull: empty tensor");
    const int64_t d = kv.dim(kv.ndim() - 1);
    const int64_t T = kv.numel() / d;
    KVCacheTensor c(d, std::move(cfg));
    const int64_t gs = c.cfg_.groupSize;

    // Offline calibration, per group: the closing search for every
    // complete group and the MaxCalib pick for a ragged tail — the
    // scales streaming ends on, so appends after a prefill continue
    // where streaming would.
    for (int64_t r0 = 0; r0 < T; r0 += gs) {
        const float *x = kv.data() + r0 * d;
        const int64_t rows = std::min(gs, T - r0);
        c.scales_.push_back(rows == gs
                                ? c.closedScale(x, rows * d)
                                : c.absMaxOf(x, rows * d) /
                                      c.kernel_->maxValue());
    }

    // One-shot pack through QTensor's parallel word-window path (a
    // genuinely different encoder than append's packBatch, which is
    // what makes the bitwise pin meaningful).
    std::vector<double> row_scales;
    row_scales.reserve(static_cast<size_t>(T));
    for (int64_t t = 0; t < T; ++t)
        row_scales.push_back(c.scales_[static_cast<size_t>(t / gs)]);
    const QTensor q =
        QTensor::pack(kv.reshaped(Shape{T, d}), c.cfg_.type,
                      Granularity::PerChannel, std::move(row_scales));
    const WordSpan span = q.words();
    c.words_ = std::make_shared<std::vector<uint64_t>>(span.begin(),
                                                       span.end());
    c.t_ = T;

    // Rebuild the open group's float rows and absmax too.
    const int64_t tail_rows = T % gs;
    if (tail_rows > 0) {
        const float *first = kv.data() + (T - tail_rows) * d;
        c.tail_.assign(first, first + tail_rows * d);
        c.tailMax_ = c.absMaxOf(first, tail_rows * d);
    }
    return c;
}

} // namespace ant
