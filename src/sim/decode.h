/**
 * @file
 * KV-cache DRAM traffic model for autoregressive decode: the
 * sequence-length-dependent cost the layer simulator
 * (sim/accelerator.h) does not see, because decode re-reads the whole
 * cached history every token. At step t each attention block streams
 * its K and V caches of t rows from DRAM; cumulative read traffic is
 * therefore quadratic in sequence length and quickly dominates the
 * (linear) weight traffic — which is exactly where the packed
 * per-time-group representation pays off.
 *
 * The model charges:
 *  - reads: per step t, both caches' resident footprint — packed
 *    bytes via KVCacheTensor::footprintBytes (codes + one 8-byte
 *    scale per time group), fp16 baseline at 2 bytes/element;
 *  - writes: each cache byte once (fp16 writes a row per step; the
 *    packed cache keeps its open tail group resident in the
 *    accelerator's SRAM buffer — it fits by construction, checked
 *    against SimConfig::bufferBytes — and spills a group's codes at
 *    group close, so the tail's encodes never hit DRAM: once per row,
 *    again when its absmax grows, once more at close).
 *
 * The quality side of the trade is measured, not asserted: MSE of the
 * packed cache built by KVCacheTensor::packFull over a
 * distribution-matched sample of attention activations
 * (DistFamily::LaplaceOutlier, the KV projections' family), next to
 * the fp16 round-trip MSE of the same sample. Both numbers are
 * deterministic (seeded) and pinned in the bench snapshot
 * (tools/check_bench_snapshot.py) together with the traffic ratio.
 */

#ifndef ANT_SIM_DECODE_H
#define ANT_SIM_DECODE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/accelerator.h"
#include "workloads/workloads.h"

namespace ant {
namespace sim {

/** KV-cache quantization under simulation. */
struct KvCacheSimSpec
{
    std::string typeSpec = "int4"; //!< registered storage type
    int64_t groupSize = 128;       //!< timesteps per scale group
    int64_t mseSampleTimesteps = 256; //!< rows of the MSE probe
    uint64_t seed = 0xCAC4E;       //!< probe RNG seed
};

/** One sampled point of the cumulative-traffic curve. */
struct DecodeTrafficPoint
{
    int64_t timestep = 0;
    double antBytes = 0.0;  //!< cumulative packed-cache DRAM bytes
    double fp16Bytes = 0.0; //!< cumulative fp16-cache DRAM bytes
};

/** Decode-traffic outcome for one workload at one sequence length. */
struct DecodeTrafficReport
{
    std::string workload;
    int64_t seq = 0;      //!< decoded tokens
    int64_t dModel = 0;   //!< KV row width (k-projection output)
    int64_t kvBlocks = 0; //!< attention blocks holding a K and V cache

    double antReadBytes = 0.0, fp16ReadBytes = 0.0;
    double antWriteBytes = 0.0, fp16WriteBytes = 0.0;
    double antTotalBytes = 0.0, fp16TotalBytes = 0.0;

    /** fp16TotalBytes / antTotalBytes — the memory-traffic win. */
    double trafficRatio = 0.0;

    /** Resident bytes of one block's K+V pair at the final step. */
    double antResidentBytes = 0.0, fp16ResidentBytes = 0.0;

    /** Packed-cache MSE of the distribution-matched probe, and the
     *  fp16 round-trip MSE of the same probe (the iso-quality frame
     *  the ratio is quoted at). */
    double mse = 0.0;
    double fp16Mse = 0.0;

    /** Cumulative traffic sampled at power-of-two timesteps (and the
     *  final step), for traffic-vs-length curves. */
    std::vector<DecodeTrafficPoint> curve;
};

/**
 * Charge the KV DRAM traffic of decoding @p seq tokens of @p w under
 * @p spec. The workload's attention blocks are located by their
 * k-projection layers (LayerKind::Attention, name ending ".k"); a
 * workload without any (the conv nets) throws std::invalid_argument,
 * as does an unknown type spec or a non-positive @p seq. The tail
 * group's SRAM residency is validated against @p cfg.bufferBytes.
 */
DecodeTrafficReport
planDecodeTraffic(const workloads::Workload &w, int64_t seq,
                  const KvCacheSimSpec &spec,
                  const SimConfig &cfg = SimConfig{});

} // namespace sim
} // namespace ant

#endif // ANT_SIM_DECODE_H
