/**
 * @file
 * Exhaustive decoder round-trip tests pinning the GEMM-side batch
 * decode tables (core/packed_gemm.h DecodedGrid) to the functional
 * grids and to the gate-level decoder model (hw/decoder.h): for every
 * registered spec at 2-8 bits, all 2^bits codes decode to an exact
 * (base, exponent) pair, re-encode to the same grid value (and the
 * same code when the value is unique in the grid), agree with
 * hw::decodeIntOperand for the LZD-decodable kinds, and normalize onto
 * the common-exponent integer form the integer GEMM accumulates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/packed_gemm.h"
#include "core/type_registry.h"
#include "hw/decoder.h"

namespace ant {
namespace {

/** Every registered kind at 2-8 bits, both signs where legal, plus the
 *  minifloat splits that fit 8 bits. */
std::vector<std::string>
specMatrix()
{
    std::vector<std::string> specs;
    for (int b = 2; b <= 8; ++b)
        for (const char *kind : {"int", "pot", "flint"})
            for (const char *sign : {"", "u"}) {
                // Signed flint needs 2 payload bits beside the sign.
                if (std::string(kind) == "flint" && b == 2 &&
                    std::string(sign).empty())
                    continue;
                specs.push_back(kind + std::to_string(b) + sign);
            }
    specs.insert(specs.end(),
                 {"float_e2m1", "float_e2m1u", "float_e3m2",
                  "float_e3m2u", "float_e4m3", "float_e4m3u",
                  "float_e5m2", "float_e2m5"});
    return specs;
}

hw::PeType
peTypeOf(TypeKind k)
{
    switch (k) {
      case TypeKind::Int: return hw::PeType::Int;
      case TypeKind::PoT: return hw::PeType::PoT;
      case TypeKind::Flint: return hw::PeType::Flint;
      default: break;
    }
    throw std::logic_error("no PE type");
}

/** Whether hw::decodeIntOperand models this spec (the signed flint
 *  decoder needs a 2-bit magnitude beside the sign). */
bool
hwDecodes(const NumericType &t)
{
    if (t.kind() == TypeKind::Float) return false;
    if (t.kind() == TypeKind::Flint && t.isSigned()) return t.bits() >= 3;
    return true;
}

TEST(PackedDecoder, EveryCodeRoundTripsExactly)
{
    for (const std::string &spec : specMatrix()) {
        SCOPED_TRACE(spec);
        const TypePtr type = parseType(spec);
        const DecodedGrid grid = buildDecodedGrid(type);
        const int n = type->codeCount();
        ASSERT_EQ(static_cast<int>(grid.base.size()), n);

        // Value multiplicity: duplicate-valued codes (the symmetric
        // int clamp code, +/-0 in PoT and minifloat grids) cannot
        // round-trip at the code level, only at the value level.
        std::map<double, int> multiplicity;
        for (int c = 0; c < n; ++c)
            ++multiplicity[type->codeValue(static_cast<uint32_t>(c))];

        for (int c = 0; c < n; ++c) {
            const uint32_t code = static_cast<uint32_t>(c);
            const double v = type->codeValue(code);
            const size_t ci = static_cast<size_t>(c);
            // The pair is exact, never a rounding of the grid value.
            EXPECT_EQ(std::ldexp(
                          static_cast<double>(grid.base[ci]),
                          grid.expo[ci]),
                      v)
                << "code " << c;
            // decode -> re-encode lands on the same grid point, and on
            // the same code when the value is unique.
            const uint32_t re = type->encodeNearest(v);
            EXPECT_EQ(type->codeValue(re), v) << "code " << c;
            if (multiplicity[v] == 1) {
                EXPECT_EQ(re, code) << "value " << v;
            }
        }
    }
}

TEST(PackedDecoder, GridAgreesWithGateLevelDecoder)
{
    // The software GEMM's decode tables must be the gate-level LZD
    // model, not a reimplementation that could drift: for every
    // hw-decodable spec and every code, the (base, exponent) pairs are
    // identical.
    for (const std::string &spec : specMatrix()) {
        const TypePtr type = parseType(spec);
        if (!hwDecodes(*type)) continue;
        SCOPED_TRACE(spec);
        const DecodedGrid grid = buildDecodedGrid(type);
        for (int c = 0; c < type->codeCount(); ++c) {
            const hw::IntOperand op = hw::decodeIntOperand(
                static_cast<uint32_t>(c), type->bits(),
                peTypeOf(type->kind()), type->isSigned());
            const size_t ci = static_cast<size_t>(c);
            EXPECT_EQ(grid.base[ci], op.baseInt) << "code " << c;
            EXPECT_EQ(grid.expo[ci], op.exp) << "code " << c;
            EXPECT_EQ(std::ldexp(static_cast<double>(op.baseInt),
                                 op.exp),
                      type->codeValue(static_cast<uint32_t>(c)))
                << "code " << c;
        }
    }
}

TEST(PackedDecoder, IntDomainNormalizationIsExact)
{
    for (const std::string &spec : specMatrix()) {
        SCOPED_TRACE(spec);
        const TypePtr type = parseType(spec);
        const DecodedGrid grid = buildDecodedGrid(type);
        if (!grid.intDomain) continue;
        int64_t max_abs = 0;
        for (int c = 0; c < type->codeCount(); ++c) {
            const size_t ci = static_cast<size_t>(c);
            // intVal * 2^normExp reproduces the grid value exactly —
            // the invariant that lets the integer GEMM defer every
            // scale to one per-segment rescale.
            EXPECT_EQ(std::ldexp(
                          static_cast<double>(grid.intVal[ci]),
                          grid.normExp),
                      type->codeValue(static_cast<uint32_t>(c)))
                << "code " << c;
            max_abs = std::max(max_abs, std::abs(grid.intVal[ci]));
        }
        EXPECT_EQ(grid.maxAbsInt, max_abs);
    }
    // The documented non-int-domain case: pot8u's 2^254 range.
    EXPECT_FALSE(buildDecodedGrid(parseType("pot8u")).intDomain);
    // And the cache returns the same table.
    EXPECT_EQ(cachedDecodedGrid(parseType("flint4")).get(),
              cachedDecodedGrid(parseType("flint4")).get());
}

} // namespace
} // namespace ant
