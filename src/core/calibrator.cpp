#include "core/calibrator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/type_registry.h"

namespace ant {

Observer::Observer(ObserverConfig cfg) : cfg_(cfg)
{
    const size_t nbins = static_cast<size_t>(kMaxExp - kMinExp + 1) *
                         static_cast<size_t>(kBinsPerOctave);
    cnt_.assign(nbins, 0.0);
    sum_.assign(nbins, 0.0);
    sumsq_.assign(nbins, 0.0);
}

size_t
Observer::binOf(double v) const
{
    // v > 0: v = f * 2^e with f in [0.5, 1), i.e. v lies in octave
    // e-1; the fractional position 2f-1 in [0, 1) picks the sub-bin.
    int e;
    const double f = std::frexp(v, &e);
    const int octave = e - 1;
    if (octave < kMinExp) return 0;
    if (octave > kMaxExp) return bins() - 1;
    const int sub = std::min(
        kBinsPerOctave - 1,
        static_cast<int>((2.0 * f - 1.0) *
                         static_cast<double>(kBinsPerOctave)));
    return static_cast<size_t>(octave - kMinExp) *
               static_cast<size_t>(kBinsPerOctave) +
           static_cast<size_t>(sub);
}

double
Observer::thresholdPos(double t) const
{
    // Fractional bin position of a decision threshold: floor(pos) is
    // the bin containing t and frac(pos) the position of t inside it,
    // so a region bound splits its boundary bin proportionally (the
    // mass is treated as uniform within the bin) instead of assigning
    // the whole bin to one side. Monotone and consistent with binOf.
    if (!(t > 0.0)) return 0.0;
    if (!std::isfinite(t)) return static_cast<double>(bins());
    int e;
    const double f = std::frexp(t, &e);
    const int octave = e - 1;
    if (octave < kMinExp) return 0.0;
    if (octave > kMaxExp) return static_cast<double>(bins());
    const double sub =
        std::min(static_cast<double>(kBinsPerOctave),
                 (2.0 * f - 1.0) * static_cast<double>(kBinsPerOctave));
    return static_cast<double>(octave - kMinExp) *
               static_cast<double>(kBinsPerOctave) +
           sub;
}

void
Observer::observe(const float *x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const double raw = static_cast<double>(x[i]);
        double v;
        if (cfg_.isSigned) {
            v = std::fabs(raw);
        } else if (raw < 0.0) {
            // Unsigned grids clamp negatives to zero: error raw^2 at
            // every scale — scale-independent, so tracked separately.
            constErr_ += raw * raw;
            ++n_;
            continue;
        } else {
            v = raw;
        }
        ++n_;
        if (v == 0.0) continue; // zero quantizes to zero at any scale
        amax_ = std::max(amax_, v);
        const size_t b = binOf(v);
        cnt_[b] += 1.0;
        sum_[b] += v;
        sumsq_[b] += v * v;
    }
    if (n > 0) prefixDirty_ = true;
}

void
Observer::observe(const Tensor &t)
{
    observe(t.data(), t.numel());
}

void
Observer::reset()
{
    n_ = 0;
    amax_ = 0.0;
    constErr_ = 0.0;
    std::fill(cnt_.begin(), cnt_.end(), 0.0);
    std::fill(sum_.begin(), sum_.end(), 0.0);
    std::fill(sumsq_.begin(), sumsq_.end(), 0.0);
    prefixDirty_ = true;
}

void
Observer::merge(const Observer &other)
{
    if (cfg_.isSigned != other.cfg_.isSigned)
        throw std::invalid_argument(
            "Observer::merge: mismatched signedness");
    n_ += other.n_;
    amax_ = std::max(amax_, other.amax_);
    constErr_ += other.constErr_;
    for (size_t b = 0; b < bins(); ++b) {
        cnt_[b] += other.cnt_[b];
        sum_[b] += other.sum_[b];
        sumsq_[b] += other.sumsq_[b];
    }
    prefixDirty_ = true;
}

void
Observer::refreshPrefix() const
{
    if (!prefixDirty_) return;
    const size_t nb = bins();
    pcnt_.assign(nb + 1, 0.0);
    psum_.assign(nb + 1, 0.0);
    psumsq_.assign(nb + 1, 0.0);
    for (size_t b = 0; b < nb; ++b) {
        pcnt_[b + 1] = pcnt_[b] + cnt_[b];
        psum_[b + 1] = psum_[b] + sum_[b];
        psumsq_[b + 1] = psumsq_[b] + sumsq_[b];
    }
    prefixDirty_ = false;
}

double
Observer::approxMse(const QuantKernel &kernel, double scale) const
{
    if (n_ == 0) return 0.0;
    refreshPrefix();
    if (empty() || scale <= 0.0 || !std::isfinite(scale))
        return (psumsq_[bins()] + constErr_) / static_cast<double>(n_);

    // Same region logic as MagnitudeHistogram::approxMse — magnitudes
    // up to the midpoint threshold between adjacent grid levels
    // quantize to the lower level — but with fractional region bounds:
    // a boundary bin's aggregates are split proportionally between the
    // two levels, so the only residual error is within-bin covariance
    // in the O(grid) boundary bins.
    const auto at = [&](const std::vector<double> &prefix,
                        const std::vector<double> &per_bin,
                        double pos) {
        const size_t b = static_cast<size_t>(pos);
        if (b >= bins()) return prefix[bins()];
        return prefix[b] + (pos - static_cast<double>(b)) * per_bin[b];
    };

    const std::vector<double> &g = kernel.magGrid();
    const size_t K = g.size();
    const double end = static_cast<double>(bins());
    double err = constErr_;
    double b0 = 0.0;
    for (size_t i = 0; i < K; ++i) {
        double b1;
        if (i + 1 < K) {
            const double t = 0.5 * (g[i] + g[i + 1]) * scale;
            b1 = std::max(thresholdPos(t), b0);
        } else {
            b1 = end;
        }
        if (b1 > b0) {
            const double C = at(pcnt_, cnt_, b1) - at(pcnt_, cnt_, b0);
            if (C != 0.0) {
                const double q = g[i] * scale;
                err += q * q * C -
                       2.0 * q *
                           (at(psum_, sum_, b1) - at(psum_, sum_, b0)) +
                       (at(psumsq_, sumsq_, b1) -
                        at(psumsq_, sumsq_, b0));
            }
            b0 = b1;
        }
        if (b0 >= end) break;
    }
    return err / static_cast<double>(n_);
}

double
Observer::searchScaleKernel(const QuantKernel &kernel,
                            const QuantConfig &cfg) const
{
    if (empty()) return 0.0;
    const double full = amax_ / kernel.maxValue();
    if (cfg.scaleMode == ScaleMode::MaxCalib) return full;

    if (cfg.scaleMode == ScaleMode::PowerOfTwo) {
        // Same exponent window as the in-memory search (quantizer.cpp),
        // scored by the sketch.
        const double fnorm =
            std::max(full, std::numeric_limits<double>::min());
        const int k0 = std::clamp(
            static_cast<int>(std::ceil(std::log2(fnorm))), -1021, 1023);
        double best_s = std::ldexp(1.0, k0);
        double best_e = approxMse(kernel, best_s);
        for (int k = k0 - 3; k <= k0 + 1; ++k) {
            const double s = std::ldexp(1.0, k);
            const double e = approxMse(kernel, s);
            if (e < best_e) {
                best_e = e;
                best_s = s;
            }
        }
        return best_s;
    }

    const std::vector<double> scales = candidateScales(cfg, full);
    double best_s = scales.front();
    double best_e = std::numeric_limits<double>::infinity();
    for (double s : scales) {
        const double e = approxMse(kernel, s);
        if (e < best_e) {
            best_e = e;
            best_s = s;
        }
    }
    return best_s;
}

double
Observer::searchScale(const NumericType &type,
                      const QuantConfig &cfg) const
{
    return searchScaleKernel(
        *TypeRegistry::instance().kernelFor(type), cfg);
}

// ---------------------------------------------------------------------
// GroupObserver
// ---------------------------------------------------------------------

GroupObserver::GroupObserver(int64_t group_size, ObserverConfig cfg)
    : gs_(group_size), cfg_(cfg)
{
    if (gs_ < 1)
        throw std::invalid_argument(
            "GroupObserver: group_size must be >= 1 (got " +
            std::to_string(gs_) + ")");
}

const Observer &
GroupObserver::group(int64_t g) const
{
    if (g < 0 || g >= groups())
        throw std::invalid_argument(
            "GroupObserver::group: index out of range");
    return obs_[static_cast<size_t>(g)];
}

int64_t
GroupObserver::count() const
{
    int64_t n = 0;
    for (const Observer &o : obs_) n += o.count();
    return n;
}

bool
GroupObserver::empty() const
{
    for (const Observer &o : obs_)
        if (!o.empty()) return false;
    return true;
}

void
GroupObserver::reset()
{
    dim_ = 0;
    obs_.clear();
}

void
GroupObserver::merge(const GroupObserver &other)
{
    if (gs_ != other.gs_)
        throw std::invalid_argument(
            "GroupObserver::merge: mismatched group size");
    // Signedness equality is a precondition on every branch — including
    // the empty-side adoption below, where the per-sketch
    // Observer::merge check would otherwise never run.
    if (cfg_.isSigned != other.cfg_.isSigned)
        throw std::invalid_argument(
            "GroupObserver::merge: mismatched signedness");
    if (other.dim_ == 0) return; // nothing observed on the other side
    if (dim_ == 0) {
        dim_ = other.dim_;
        obs_ = other.obs_;
        return;
    }
    if (dim_ != other.dim_)
        throw std::invalid_argument(
            "GroupObserver::merge: mismatched feature dimension");
    for (size_t g = 0; g < obs_.size(); ++g) obs_[g].merge(other.obs_[g]);
}

void
GroupObserver::observe(const Tensor &t)
{
    if (t.ndim() < 1 || t.numel() == 0)
        throw std::invalid_argument(
            "GroupObserver::observe: empty tensor");
    const int64_t d = t.dim(t.ndim() - 1);
    if (dim_ == 0) {
        dim_ = d;
        const int64_t g = (d + gs_ - 1) / gs_;
        obs_.assign(static_cast<size_t>(g), Observer(cfg_));
    } else if (dim_ != d) {
        throw std::invalid_argument(
            "GroupObserver::observe: feature dim changed between "
            "batches (" +
            std::to_string(dim_) + " -> " + std::to_string(d) + ")");
    }
    const int64_t rows = t.numel() / d;
    for (int64_t r = 0; r < rows; ++r) {
        const float *row = t.data() + r * d;
        for (int64_t g = 0; g < groups(); ++g) {
            const int64_t off = g * gs_;
            obs_[static_cast<size_t>(g)].observe(
                row + off, std::min(gs_, d - off));
        }
    }
}

std::vector<double>
GroupObserver::searchScales(const NumericType &type,
                            const QuantConfig &cfg) const
{
    const KernelPtr kernel = TypeRegistry::instance().kernelFor(type);
    std::vector<double> s;
    s.reserve(obs_.size());
    for (const Observer &o : obs_) s.push_back(o.searchScale(*kernel, cfg));
    return s;
}

GroupObserverSelection
GroupObserver::selectType(const std::vector<TypePtr> &candidates,
                          const QuantConfig &base_cfg,
                          GroupTypeMode mode) const
{
    if (candidates.empty())
        throw std::invalid_argument(
            "GroupObserver::selectType: empty candidate list");
    base_cfg.validate(/*require_type=*/false);
    if (dim_ == 0)
        throw std::logic_error(
            "GroupObserver::selectType: nothing observed");

    const size_t ng = obs_.size();
    GroupObserverSelection sel;
    sel.groupSize = gs_;
    sel.groups = static_cast<int64_t>(ng);
    sel.types.assign(ng, nullptr);
    sel.scales.assign(ng, 0.0);

    std::vector<KernelPtr> kernels;
    kernels.reserve(candidates.size());
    for (const TypePtr &c : candidates) kernels.push_back(cachedKernel(c));

    // Per-candidate per-group (scale, sketch MSE) grids, computed once.
    std::vector<std::vector<double>> cand_s(candidates.size()),
        cand_e(candidates.size());
    for (size_t k = 0; k < candidates.size(); ++k) {
        cand_s[k].assign(ng, 0.0);
        cand_e[k].assign(ng, 0.0);
        for (size_t g = 0; g < ng; ++g) {
            const double s =
                obs_[g].searchScale(*kernels[k], base_cfg);
            cand_s[k][g] = s;
            cand_e[k][g] = obs_[g].approxMse(*kernels[k], s);
        }
    }

    double total_n = 0.0;
    for (const Observer &o : obs_)
        total_n += static_cast<double>(o.count());

    double err_sum = 0.0;
    if (mode == GroupTypeMode::PerGroup) {
        for (size_t g = 0; g < ng; ++g) {
            double best = std::numeric_limits<double>::infinity();
            size_t best_k = 0;
            for (size_t k = 0; k < candidates.size(); ++k)
                if (cand_e[k][g] < best) {
                    best = cand_e[k][g];
                    best_k = k;
                }
            sel.types[g] = candidates[best_k];
            sel.scales[g] = cand_s[best_k][g];
            err_sum += cand_e[best_k][g] *
                       static_cast<double>(obs_[g].count());
        }
    } else {
        // Shared (and PerChannel, which degenerates to it here): one
        // type minimizing the element-weighted sketch MSE over all
        // groups; scales stay per group.
        double best = std::numeric_limits<double>::infinity();
        size_t best_k = 0;
        for (size_t k = 0; k < candidates.size(); ++k) {
            double e = 0.0;
            for (size_t g = 0; g < ng; ++g)
                e += cand_e[k][g] *
                     static_cast<double>(obs_[g].count());
            if (e < best) {
                best = e;
                best_k = k;
            }
        }
        for (size_t g = 0; g < ng; ++g) {
            sel.types[g] = candidates[best_k];
            sel.scales[g] = cand_s[best_k][g];
        }
        err_sum = best;
    }
    sel.mse = total_n > 0.0 ? err_sum / total_n : 0.0;
    return sel;
}

ObserverSelection
Observer::selectType(const std::vector<TypePtr> &candidates,
                     const QuantConfig &base_cfg) const
{
    if (candidates.empty())
        throw std::invalid_argument(
            "Observer::selectType: empty candidate list");
    base_cfg.validate(/*require_type=*/false);

    ObserverSelection sel;
    double best = std::numeric_limits<double>::infinity();
    for (const TypePtr &cand : candidates) {
        const KernelPtr kernel = cachedKernel(cand);
        QuantConfig cfg = base_cfg;
        cfg.type = cand;
        const double s = searchScaleKernel(*kernel, cfg);
        const double e = approxMse(*kernel, s);
        sel.scores.push_back({cand, e});
        if (e < best) {
            best = e;
            sel.type = cand;
            sel.scale = s;
            sel.mse = e;
        }
    }
    return sel;
}

} // namespace ant
