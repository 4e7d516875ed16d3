/**
 * @file
 * Packed-domain execution engine: the software realization of the ANT
 * decoder-fused datapath (paper Sec. V-VI). Weights stay bit-packed
 * (core/qtensor.h); GEMMs decode codes on the fly inside the kernel, so
 * a forward pass never materializes a float weight tensor.
 *
 * Two datapaths, mirroring the paper's two TypeFusion PE families:
 *
 *  - **Serving GEMM** (`packedMatmulBT` / `packedMatmul`): the
 *    float-multiplier path of Fig. 5. Each weight row is decoded by
 *    `QuantKernel::unpackBatch`, one call per constant-scale segment —
 *    the same decode `QTensor::unpack` runs — and multiply-accumulated
 *    in the same order and precision as `ops::matmulBT` /
 *    `ops::matmul`. The result is therefore **bitwise identical** to
 *    unpack-then-sgemm (pinned by tests/test_packed_gemm.cpp) while
 *    only ever holding one decoded weight row in cache. This is the
 *    default path behind `nn::QuantState` when a packed payload is
 *    present.
 *
 *  - **Integer GEMM** (`packedGemmInt`): the int-multiplier path of
 *    Fig. 6. Both operands are packed code streams; every code decodes
 *    to a `(base int, exponent)` pair via the gate-level LZD logic
 *    (`hw::decodeIntOperand`, int and PoT as degenerate cases), the
 *    inner product runs as an integer dot (int32 datapath, widening to
 *    int64 only when the type's dynamic range demands it), and the
 *    per-group scale product is applied **once per output-tile
 *    segment** instead of per element. Deterministic for any thread
 *    count and bitwise-pinned against a scalar model of the same
 *    dataflow.
 *
 * The integer datapath's decoder front-end is `DecodedGrid`: one
 * batch-decode table per registered type, cached process-wide like
 * compiled QuantKernels. The float GEMMs do not use it.
 */

#ifndef ANT_CORE_PACKED_GEMM_H
#define ANT_CORE_PACKED_GEMM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/qtensor.h"
#include "tensor/tensor.h"

namespace ant {

/**
 * Integer-datapath decode table of one NumericType: every code as an
 * exact `(base, exponent)` pair with
 * `codeValue(c) == base[c] * 2^expo[c]`.
 *
 * For Int/PoT/Flint kinds the pairs come straight from the gate-level
 * decoder model (`hw::decodeIntOperand`) — the software GEMM and the
 * modeled hardware cannot drift apart (pinned exhaustively by
 * tests/test_packed_decoder.cpp). Float kinds use the equivalent
 * dyadic decomposition (every minifloat grid value is m * 2^e).
 *
 * When the whole grid fits a 64-bit fixed-point datapath, `intDomain`
 * is true and `intVal[c] = base[c] << (expo[c] - normExp)` gives the
 * common-exponent integer form the integer GEMM accumulates:
 * `codeValue(c) == intVal[c] * 2^normExp`.
 */
struct DecodedGrid
{
    TypePtr type;
    std::vector<int32_t> base; //!< signed base integer per code
    std::vector<int16_t> expo; //!< power-of-two exponent per code

    bool intDomain = false;      //!< grid fits the int64 datapath
    int normExp = 0;             //!< common exponent of intVal
    std::vector<int64_t> intVal; //!< codeValue / 2^normExp, exact
    int64_t maxAbsInt = 0;       //!< max |intVal| (overflow budgeting)
};

using DecodedGridPtr = std::shared_ptr<const DecodedGrid>;

/** Build a decode table (no caching; prefer cachedDecodedGrid). */
DecodedGrid buildDecodedGrid(const TypePtr &type);

/**
 * Process-wide decode-table cache keyed by canonical spec, the
 * decoder-side analogue of cachedKernel(): the integer GEMM never
 * rebuilds tables.
 */
DecodedGridPtr cachedDecodedGrid(const TypePtr &type);

/**
 * Serving GEMM: C = A @ W^T for float A:[m,k] against packed W:[n,k]
 * (a 1-D payload of k elements serves as n=1), decoding W on the fly.
 *
 * Bitwise identical to `ops::matmulBT(a, w.unpack())` — same per-code
 * float value, same double accumulation in the same order — without
 * ever materializing the float weight tensor: the only decoded state
 * is one row (k floats) per worker. Rows fan out over
 * tensor::parallelFor; results are thread-count invariant.
 */
Tensor packedMatmulBT(const Tensor &a, const QTensor &w);

/**
 * Serving GEMM over a k-wise split weight: C = A @ concat_k(parts)^T
 * for float A:[m, sum k_p] against row-parallel shards parts[p]:[n,k_p]
 * (core/tp_split.h). It is the same kernel as packedMatmulBT, with
 * one k segment per part: each shard's row segment decodes into its
 * slice of ONE k-wide row buffer before the inner product runs.
 * Because per-group splits cut at scale-segment boundaries, each
 * shard decodes the identical floats the monolithic row held at that
 * offset — so the result is **bitwise identical** to
 * `packedMatmulBT(a, w)` of the unsplit weight, realizing the TP
 * all-reduce sum in the monolithic summation order instead of adding
 * independently rounded partials (which float non-associativity could
 * never make bitwise). Every part must share n; throws
 * std::invalid_argument on ragged rows or a k mismatch.
 */
Tensor packedMatmulBTConcatK(const Tensor &a,
                             const std::vector<QTensor> &parts);

/**
 * C = A @ W for float A:[m,n] against packed W:[n,k]; the backward
 * companion of packedMatmulBT (dx = dy @ W). Bitwise identical to
 * `ops::matmul(a, w.unpack())`, including its skip of zero
 * activations.
 */
Tensor packedMatmul(const Tensor &a, const QTensor &w);

/**
 * Integer-datapath GEMM: C = A @ B^T for packed A:[m,k] and packed
 * B:[n,k] (row-major code streams; 1-D payloads serve as one row).
 *
 * Dataflow per output tile: the k axis is segmented at every group
 * boundary of either operand; each segment is an integer dot product
 * of decoded `intVal` codes (int32 accumulation when
 * maxAbsInt_A * maxAbsInt_B * seg_len fits, int64 otherwise), and the
 * segment's combined scale `sA * sB * 2^(normExpA + normExpB)` is
 * applied once to the segment sum — never per element. Segment
 * contributions add in ascending-k order into a double accumulator, so
 * the result is deterministic for any thread count and tile size.
 *
 * Requires both operand types (and every heterogeneous group type) to
 * be int-domain decodable; throws std::invalid_argument otherwise
 * (e.g. pot8u, whose 2^254 range no integer datapath holds), or on a
 * k mismatch. Overflow of the int64 segment budget throws
 * std::overflow_error naming the offending widths.
 */
Tensor packedGemmInt(const QTensor &a, const QTensor &b);

/**
 * Quantization MSE of a packed payload against the live float tensor
 * it froze (shape must match), computed by decoding blocks on the fly
 * — no unpacked tensor is built. Deterministic block-order reduction.
 */
double packedWeightMse(const QTensor &q, const Tensor &ref);

/**
 * Monotonic process-wide counters of the packed execution engine, for
 * tests and serving telemetry ("did this forward really run packed?").
 * `fpGemmCalls` counts packedMatmulBT/packedMatmul invocations,
 * `intGemmCalls` counts packedGemmInt, `rowsDecoded` counts weight
 * rows decoded on the fly. Snapshot via packedGemmStats(); readings
 * are monotone, so "no float materialization" is pinned by
 * QTensor::unpackCalls() staying flat while fpGemmCalls advances.
 */
struct PackedGemmStats
{
    uint64_t fpGemmCalls = 0;
    uint64_t intGemmCalls = 0;
    uint64_t rowsDecoded = 0;
};

PackedGemmStats packedGemmStats();

} // namespace ant

#endif // ANT_CORE_PACKED_GEMM_H
