#include "core/kv_cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>

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
      d_(feature_dim),
      open_(ObserverConfig{cfg_.type->isSigned()})
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
KVCacheTensor::repackTail(int64_t g)
{
    const int bits = cfg_.type->bits();
    const int64_t gs = cfg_.groupSize;
    const int64_t bit0 = g * gs * d_ * bits;
    const int64_t need = QTensor::wordCount(t_ * d_, bits);
    ensureOwnedWords(need);
    std::vector<uint64_t> &w = *words_;
    // Zero the tail group's bit range [bit0, end of stream): the
    // boundary word may carry frozen bits of the previous group below
    // bit offset off0, which must survive; everything above is the
    // tail's and gets re-encoded. Words past the stream end are
    // already zero.
    const int64_t w0 = bit0 / 64;
    const int off0 = static_cast<int>(bit0 % 64);
    w[static_cast<size_t>(w0)] &=
        off0 ? ((uint64_t{1} << off0) - 1) : uint64_t{0};
    for (int64_t i = w0 + 1; i < need; ++i)
        w[static_cast<size_t>(i)] = 0;
    kernel_->packBatch(tail_.data(),
                       static_cast<int64_t>(tail_.size()), scales_[g],
                       w.data(), bit0);
    repacked_ += static_cast<int64_t>(tail_.size()) / d_;
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
    // the final scale survives (each arrival would overwrite the
    // previous repack), so folding the run's rows together and
    // re-encoding once is bitwise identical to appending the rows one
    // at a time — the batch-parity contract.
    int64_t done = 0;
    while (done < n) {
        const int64_t g = t_ / gs;
        const int64_t take = std::min(n - done, gs - (t_ - g * gs));
        const float *run = src + done * d_;
        open_.observe(run, take * d_);
        tail_.insert(tail_.end(), run, run + take * d_);
        t_ += take;
        if (static_cast<int64_t>(scales_.size()) <= g)
            scales_.resize(static_cast<size_t>(g) + 1, 0.0);
        // The group's scale is re-searched over exactly the rows seen
        // so far — the same query packFull issues once the group is
        // complete, so a closed group's scale is final and bit-equal
        // to the offline pick.
        scales_[static_cast<size_t>(g)] =
            open_.searchScale(*kernel_, searchCfg_);
        repackTail(g);
        if (t_ % gs == 0) {
            // The group closed: its scale is final, its codes frozen.
            tail_.clear();
            open_.reset();
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

    // Offline calibration: a one-shot observer pass and scale search
    // per group — the reference the streaming path is pinned against.
    // The last pass leaves the open observer holding the ragged tail's
    // sketch, so appends after a prefill continue where streaming
    // would.
    for (int64_t r0 = 0; r0 < T; r0 += gs) {
        c.open_.reset();
        c.open_.observe(kv.data() + r0 * d, std::min(gs, T - r0) * d);
        c.scales_.push_back(c.open_.searchScale(*c.kernel_, c.searchCfg_));
    }
    if (T % gs == 0) c.open_.reset();

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

    // Rebuild the open group's float rows too.
    const int64_t tail_rows = T % gs;
    if (tail_rows > 0) {
        const float *first = kv.data() + (T - tail_rows) * d;
        c.tail_.assign(first, first + tail_rows * d);
    }
    return c;
}

} // namespace ant
