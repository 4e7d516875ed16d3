/**
 * @file
 * Reference computations of the benchmark's checks, written apart from
 * the library's compute paths: nothing here calls `ops::`, the packed
 * GEMMs, the quantizer or QTensor::unpack. Packed tensors are decoded
 * code by code (QTensor::codeAt + NumericType::codeValue times the
 * scale of the element's range) and every sum runs in double.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <vector>

#include "core/numeric_type.h"
#include "core/qtensor.h"

namespace perfbench {
namespace ref {

/** Dequantize @p q in double from its codes and scale plane. */
std::vector<double> dequantize(const ant::QTensor &q);

/** Dequantize rows [r0, r1) of a 2-D @p q into @p out (row-major). */
void dequantizeRows(const ant::QTensor &q, int64_t r0, int64_t r1,
                    double *out);

/** c[m, n] = a[m, k] * w[n, k]^T, naive, double. */
void gemmBT(const double *a, int64_t m, int64_t k, const double *w,
            int64_t n, double *c);

/** GELU, tanh form (the BERT/GPT-2 approximation), in double. */
double gelu(double x);

/**
 * Softmax attention of one query row over T cached rows:
 * softmax(q K^T * scale) V, every step in double.
 */
std::vector<double> attention(const double *q, const double *keys,
                              const double *values, int64_t T,
                              int64_t d, double scale);

/** Mean squared error between two float ranges, summed in double. */
double mse(const float *a, const float *b, int64_t n);

/**
 * MSE of quantizing @p x at @p scale onto @p type's grid by a plain
 * nearest-grid search in double (ties away from zero, clamped).
 */
double gridMse(const float *x, int64_t n, const ant::NumericType &type,
               double scale);

/** max_i |a_i - b_i| / (max_i |b_i| + 1e-30). */
double maxRelErr(const float *a, const double *b, int64_t n);

} // namespace ref
} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
