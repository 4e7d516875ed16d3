#include "sim/decode.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/kv_cache.h"
#include "core/type_registry.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace ant {
namespace sim {

namespace {

/**
 * IEEE fp16 round trip of one float (round-to-nearest-even, denormals
 * and infinities handled): the baseline precision the traffic ratio is
 * quoted against.
 */
float
fp16RoundTrip(float x)
{
    uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    const uint32_t sign = u & 0x80000000u;
    const int32_t exp = static_cast<int32_t>((u >> 23) & 0xFF) - 127;
    uint32_t mant = u & 0x7FFFFFu;

    uint16_t h;
    if (exp == 128) { // inf / nan
        h = static_cast<uint16_t>((sign >> 16) | 0x7C00u |
                                  (mant ? 0x200u : 0u));
    } else if (exp > 15) { // overflow -> inf
        h = static_cast<uint16_t>((sign >> 16) | 0x7C00u);
    } else if (exp >= -14) { // normal
        // 13 dropped mantissa bits, round to nearest even.
        uint32_t m = mant + 0xFFFu + ((mant >> 13) & 1u);
        uint32_t e = static_cast<uint32_t>(exp + 15);
        if (m & 0x800000u) { // mantissa carry bumps the exponent
            m = 0;
            ++e;
        }
        h = static_cast<uint16_t>((sign >> 16) | (e << 10) |
                                  (m >> 13));
        if (e >= 31) // rounding overflowed to inf
            h = static_cast<uint16_t>((sign >> 16) | 0x7C00u);
    } else if (exp >= -24) { // subnormal half
        const uint32_t full = mant | 0x800000u; // implicit bit
        const int shift = -exp - 14 + 13;       // 14..23
        const uint32_t m = full >> shift;
        const uint32_t rem = full & ((1u << shift) - 1);
        const uint32_t half = 1u << (shift - 1);
        uint32_t r = m;
        if (rem > half || (rem == half && (m & 1u))) ++r;
        h = static_cast<uint16_t>((sign >> 16) | r);
    } else { // underflow -> signed zero
        h = static_cast<uint16_t>(sign >> 16);
    }

    // Back to float.
    const uint32_t hs = static_cast<uint32_t>(h >> 15) << 31;
    const uint32_t he = (h >> 10) & 0x1F;
    const uint32_t hm = h & 0x3FF;
    uint32_t out;
    if (he == 0) {
        if (hm == 0) {
            out = hs;
        } else { // subnormal: renormalize
            int e = -1;
            uint32_t m = hm;
            do {
                ++e;
                m <<= 1;
            } while (!(m & 0x400u));
            out = hs | (static_cast<uint32_t>(127 - 15 - e) << 23) |
                  ((m & 0x3FFu) << 13);
        }
    } else if (he == 31) {
        out = hs | 0x7F800000u | (hm << 13);
    } else {
        out = hs | ((he + 127 - 15) << 23) | (hm << 13);
    }
    float f;
    std::memcpy(&f, &out, sizeof(f));
    return f;
}

} // namespace

DecodeTrafficReport
planDecodeTraffic(const workloads::Workload &w, int64_t seq,
                  const KvCacheSimSpec &spec, const SimConfig &cfg)
{
    if (seq < 1)
        throw std::invalid_argument(
            "planDecodeTraffic: seq must be >= 1");
    const TypePtr type = parseType(spec.typeSpec);
    if (spec.groupSize < 1)
        throw std::invalid_argument(
            "planDecodeTraffic: groupSize must be >= 1");
    const int bits = type->bits();

    // Every attention block contributes one K and one V cache; the
    // block is located by its k-projection layer, whose output width
    // is the cached row width.
    std::vector<int64_t> widths;
    for (const workloads::Layer &l : w.layers)
        if (l.kind == workloads::LayerKind::Attention &&
            l.name.size() >= 2 &&
            l.name.compare(l.name.size() - 2, 2, ".k") == 0)
            widths.push_back(l.n);
    if (widths.empty())
        throw std::invalid_argument(
            "planDecodeTraffic: workload '" + w.name +
            "' has no attention k-projection layers to cache");

    DecodeTrafficReport r;
    r.workload = w.name;
    r.seq = seq;
    r.dModel = widths.front();
    r.kvBlocks = static_cast<int64_t>(widths.size());

    // The open tail group's encodes work out of on-chip SRAM (once
    // per row, again when its absmax grows, once more at close): its
    // float rows must fit the accelerator's buffer, or the spec is not
    // servable on this design.
    const double tail_bytes =
        static_cast<double>(spec.groupSize) * r.dModel * sizeof(float);
    if (tail_bytes > static_cast<double>(cfg.bufferBytes))
        throw std::invalid_argument(
            "planDecodeTraffic: tail group (" +
            std::to_string(static_cast<int64_t>(tail_bytes)) +
            " bytes) exceeds the design's buffer (" +
            std::to_string(cfg.bufferBytes) + " bytes)");

    // Reads: at step t both caches stream their resident footprint.
    // Writes: every cache byte once (fp16 appends rows; the packed
    // cache spills codes at group close, tail encodes stay in SRAM).
    int64_t next_curve = 1;
    double ant_reads = 0.0, fp16_reads = 0.0;
    for (int64_t t = 1; t <= seq; ++t) {
        for (const int64_t d : widths) {
            ant_reads +=
                2.0 * static_cast<double>(KVCacheTensor::footprintBytes(
                          t, d, bits, spec.groupSize));
            fp16_reads += 2.0 * static_cast<double>(t) * d * 2.0;
        }
        if (t == next_curve || t == seq) {
            double ant_w = 0.0, fp16_w = 0.0;
            for (const int64_t d : widths) {
                ant_w += 2.0 *
                         static_cast<double>(KVCacheTensor::footprintBytes(
                             t, d, bits, spec.groupSize));
                fp16_w += 2.0 * static_cast<double>(t) * d * 2.0;
            }
            r.curve.push_back({t, ant_reads + ant_w, fp16_reads + fp16_w});
            while (next_curve <= t) next_curve *= 2;
        }
    }
    for (const int64_t d : widths) {
        r.antWriteBytes +=
            2.0 * static_cast<double>(KVCacheTensor::footprintBytes(
                      seq, d, bits, spec.groupSize));
        r.fp16WriteBytes += 2.0 * static_cast<double>(seq) * d * 2.0;
        r.antResidentBytes +=
            2.0 * static_cast<double>(KVCacheTensor::footprintBytes(
                      seq, d, bits, spec.groupSize)) /
            static_cast<double>(widths.size());
        r.fp16ResidentBytes += 2.0 * static_cast<double>(seq) * d * 2.0 /
                               static_cast<double>(widths.size());
    }
    r.antReadBytes = ant_reads;
    r.fp16ReadBytes = fp16_reads;
    r.antTotalBytes = r.antReadBytes + r.antWriteBytes;
    r.fp16TotalBytes = r.fp16ReadBytes + r.fp16WriteBytes;
    r.trafficRatio = r.antTotalBytes > 0.0
                         ? r.fp16TotalBytes / r.antTotalBytes
                         : 0.0;

    // Quality probe: pack a distribution-matched sample of attention
    // activations (the KV projections' LaplaceOutlier family) through
    // the offline oracle and measure its MSE, next to the fp16
    // round-trip MSE of the identical sample. Deterministic: seeded
    // RNG, fixed sample size.
    const int64_t sample_t = std::min<int64_t>(
        spec.mseSampleTimesteps > 0 ? spec.mseSampleTimesteps : 256,
        seq);
    Rng rng(spec.seed);
    const Tensor sample = rng.laplaceOutlierTensor(
        Shape{sample_t, r.dModel}, 1.0f, 0.01, 8.0f);
    KVCacheConfig kcfg;
    kcfg.type = type;
    kcfg.groupSize = spec.groupSize;
    const KVCacheTensor cache = KVCacheTensor::packFull(sample, kcfg);
    r.mse = ops::mse(sample, cache.dequant());

    Tensor half = sample;
    float *hp = half.data();
    for (int64_t i = 0; i < half.numel(); ++i)
        hp[i] = fp16RoundTrip(hp[i]);
    r.fp16Mse = ops::mse(sample, half);

    return r;
}

} // namespace sim
} // namespace ant
