#include "reference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace ref {

namespace {

/** Scale and type of element (@p row, @p col) under @p q's layout. */
struct RangeOf
{
    double scale;
    const ant::NumericType *type;
};

RangeOf
rangeOf(const ant::QTensor &q, int64_t row, int64_t col)
{
    size_t s = 0;
    switch (q.granularity()) {
      case ant::Granularity::PerTensor: s = 0; break;
      case ant::Granularity::PerChannel:
        s = static_cast<size_t>(row);
        break;
      case ant::Granularity::PerGroup:
        s = static_cast<size_t>(row * q.groupsPerChannel() +
                                col / q.groupSize());
        break;
    }
    const ant::NumericType *t = q.groupTypes().empty()
                                    ? q.type().get()
                                    : q.groupTypes()[s].get();
    return RangeOf{q.scales()[s], t};
}

} // namespace

void
dequantizeRows(const ant::QTensor &q, int64_t r0, int64_t r1,
               double *out)
{
    const int64_t rows = q.shape().ndim() >= 2 ? q.shape().dim(0) : 1;
    const int64_t chunk = q.numel() / rows;
    for (int64_t r = r0; r < r1; ++r)
        for (int64_t c = 0; c < chunk; ++c) {
            const RangeOf g = rangeOf(q, r, c);
            const int64_t i = r * chunk + c;
            out[(r - r0) * chunk + c] =
                g.type->codeValue(q.codeAt(i)) * g.scale;
        }
}

std::vector<double>
dequantize(const ant::QTensor &q)
{
    std::vector<double> out(static_cast<size_t>(q.numel()));
    const int64_t rows = q.shape().ndim() >= 2 ? q.shape().dim(0) : 1;
    dequantizeRows(q, 0, rows, out.data());
    return out;
}

void
gemmBT(const double *a, int64_t m, int64_t k, const double *w,
       int64_t n, double *c)
{
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            double s = 0.0;
            const double *ar = a + i * k;
            const double *wr = w + j * k;
            for (int64_t p = 0; p < k; ++p) s += ar[p] * wr[p];
            c[i * n + j] = s;
        }
}

double
gelu(double x)
{
    const double kA = std::sqrt(2.0 / std::acos(-1.0));
    return 0.5 * x * (1.0 + std::tanh(kA * (x + 0.044715 * x * x * x)));
}

std::vector<double>
attention(const double *q, const double *keys, const double *values,
          int64_t T, int64_t d, double scale)
{
    std::vector<double> s(static_cast<size_t>(T));
    double mx = -INFINITY;
    for (int64_t t = 0; t < T; ++t) {
        double dot = 0.0;
        for (int64_t p = 0; p < d; ++p) dot += q[p] * keys[t * d + p];
        s[static_cast<size_t>(t)] = dot * scale;
        mx = std::max(mx, s[static_cast<size_t>(t)]);
    }
    double z = 0.0;
    for (double &v : s) {
        v = std::exp(v - mx);
        z += v;
    }
    std::vector<double> ctx(static_cast<size_t>(d), 0.0);
    for (int64_t t = 0; t < T; ++t) {
        const double p = s[static_cast<size_t>(t)] / z;
        for (int64_t j = 0; j < d; ++j)
            ctx[static_cast<size_t>(j)] += p * values[t * d + j];
    }
    return ctx;
}

double
mse(const float *a, const float *b, int64_t n)
{
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const double e = static_cast<double>(a[i]) - b[i];
        s += e * e;
    }
    return n > 0 ? s / static_cast<double>(n) : 0.0;
}

double
gridMse(const float *x, int64_t n, const ant::NumericType &type,
        double scale)
{
    const std::vector<double> &g = type.grid();
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        double q = 0.0;
        if (scale > 0.0) {
            const double v = std::clamp(static_cast<double>(x[i]) / scale,
                                        g.front(), g.back());
            // Nearest of the two bracketing grid points; on a tie keep
            // the larger magnitude.
            const auto hi = std::lower_bound(g.begin(), g.end(), v);
            double best = hi == g.end() ? g.back() : *hi;
            if (hi != g.begin()) {
                const double lo = *(hi - 1);
                const double el = v - lo, eh = std::fabs(best - v);
                if (el < eh || (el == eh && std::fabs(lo) > std::fabs(best)))
                    best = lo;
            }
            q = best * scale;
        }
        const double e = static_cast<double>(x[i]) - q;
        s += e * e;
    }
    return n > 0 ? s / static_cast<double>(n) : 0.0;
}

double
maxRelErr(const float *a, const double *b, int64_t n)
{
    double num = 0.0, den = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        num = std::max(num, std::fabs(static_cast<double>(a[i]) - b[i]));
        den = std::max(den, std::fabs(b[i]));
    }
    return num / (den + 1e-30);
}

} // namespace ref
} // namespace perfbench
