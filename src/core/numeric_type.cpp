#include "core/numeric_type.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/flint.h"

namespace ant {

const char *
typeKindName(TypeKind k)
{
    switch (k) {
      case TypeKind::Int: return "int";
      case TypeKind::Float: return "float";
      case TypeKind::PoT: return "pot";
      case TypeKind::Flint: return "flint";
    }
    return "?";
}

void
NumericType::setCodeValues(std::vector<double> values)
{
    codeValues_ = std::move(values);
    grid_ = codeValues_;
    std::sort(grid_.begin(), grid_.end());
    grid_.erase(std::unique(grid_.begin(), grid_.end()), grid_.end());
}

std::string
NumericType::spec() const
{
    std::string s;
    if (kind_ == TypeKind::Float) {
        // The float spec carries the exact field split, not the width:
        // E3M0 and E4M3 at the same bit count are different grids.
        const auto &f = static_cast<const FloatType &>(*this);
        s = "float_e" + std::to_string(f.expBits()) + "m" +
            std::to_string(f.manBits());
    } else {
        s = std::string(typeKindName(kind_)) + std::to_string(bits_);
    }
    if (!signed_) s += 'u';
    return s;
}

double
NumericType::quantizeValue(double x) const
{
    const auto &g = grid_;
    if (!(x > g.front())) return g.front(); // NaN clamps low too
    if (x >= g.back()) return g.back();
    const auto it = std::lower_bound(g.begin(), g.end(), x);
    const double hi = *it;
    const double lo = *(it - 1);
    // Nearest; ties toward the larger magnitude (round-half-away).
    return (x - lo < hi - x) ? lo : hi;
}

uint32_t
NumericType::encodeNearest(double x) const
{
    const double q = quantizeValue(x);
    for (uint32_t c = 0; c < static_cast<uint32_t>(codeCount()); ++c)
        if (codeValues_[c] == q) return c;
    return 0; // unreachable: q is always a code value
}

IntType::IntType(int bits, bool is_signed)
    : NumericType(TypeKind::Int, bits, is_signed,
                  std::string(is_signed ? "int" : "uint") +
                      std::to_string(bits))
{
    if (bits < 2 || bits > 16)
        throw std::invalid_argument("IntType: bits in [2,16]");
    std::vector<double> vals(size_t{1} << bits);
    if (!is_signed) {
        for (int c = 0; c < (1 << bits); ++c)
            vals[static_cast<size_t>(c)] = c;
    } else {
        // Symmetric two's-complement range with -2^(b-1) clamped to the
        // negative max so the grid stays symmetric (common practice for
        // scale-only weight quantization).
        const int maxMag = (1 << (bits - 1)) - 1;
        for (int c = 0; c < (1 << bits); ++c) {
            int v = c < (1 << (bits - 1)) ? c : c - (1 << bits);
            v = std::clamp(v, -maxMag, maxMag);
            vals[static_cast<size_t>(c)] = v;
        }
    }
    setCodeValues(std::move(vals));
}

FloatType::FloatType(int exp_bits, int man_bits, bool is_signed)
    : NumericType(TypeKind::Float, exp_bits + man_bits + (is_signed ? 1 : 0),
                  is_signed,
                  std::string(is_signed ? "float" : "ufloat") +
                      std::to_string(exp_bits + man_bits +
                                     (is_signed ? 1 : 0)) +
                      "_e" + std::to_string(exp_bits) + "m" +
                      std::to_string(man_bits)),
      expBits_(exp_bits), manBits_(man_bits)
{
    if (exp_bits < 1 || exp_bits > 8 || man_bits < 0 || man_bits > 10)
        throw std::invalid_argument("FloatType: bad field widths");
    const int mag_codes = 1 << (exp_bits + man_bits);
    const int total = 1 << bits();
    std::vector<double> vals(static_cast<size_t>(total));
    for (int c = 0; c < mag_codes; ++c) {
        const int e = c >> man_bits;
        const int m = c & ((1 << man_bits) - 1);
        double v;
        if (e == 0) {
            // Subnormal: v = (m / 2^mb) * 2^(1-bias) with bias = 1.
            v = std::ldexp(static_cast<double>(m), -man_bits);
        } else {
            // Normal: (1 + m/2^mb) * 2^(e-bias); bias 1 puts the first
            // normal at 1.0 so E3M0 coincides with the signed PoT grid
            // (Fig. 14: "signed 4-bit float and PoT are identical").
            v = std::ldexp(1.0 + std::ldexp(static_cast<double>(m),
                                            -man_bits),
                           e - 1);
        }
        vals[static_cast<size_t>(c)] = v;
        if (is_signed)
            vals[static_cast<size_t>(c + mag_codes)] = -v;
    }
    setCodeValues(std::move(vals));
}

PoTType::PoTType(int bits, bool is_signed)
    : NumericType(TypeKind::PoT, bits, is_signed,
                  std::string(is_signed ? "pot" : "upot") +
                      std::to_string(bits))
{
    if (bits < 2 || bits > 8)
        throw std::invalid_argument("PoTType: bits in [2,8]");
    const int mag_bits = is_signed ? bits - 1 : bits;
    const int mag_codes = 1 << mag_bits;
    std::vector<double> vals(size_t{1} << bits);
    for (int c = 0; c < mag_codes; ++c) {
        const double v = c == 0 ? 0.0 : std::ldexp(1.0, c - 1);
        vals[static_cast<size_t>(c)] = v;
        if (is_signed)
            vals[static_cast<size_t>(c + mag_codes)] = -v;
    }
    setCodeValues(std::move(vals));
}

FlintType::FlintType(int bits, bool is_signed)
    : NumericType(TypeKind::Flint, bits, is_signed,
                  std::string(is_signed ? "flint" : "uflint") +
                      std::to_string(bits))
{
    // Guard before the 2^bits table allocation: the codec itself only
    // supports [2,12], and parseType makes this reachable from
    // untrusted spec strings.
    if (bits < 2 || bits > 12)
        throw std::invalid_argument("FlintType: bits in [2,12]");
    std::vector<double> vals(size_t{1} << bits);
    for (uint32_t c = 0; c < (1u << bits); ++c) {
        vals[c] = is_signed
                      ? static_cast<double>(
                            flint::decodeSignedToInteger(c, bits))
                      : static_cast<double>(flint::decodeToInteger(c, bits));
    }
    setCodeValues(std::move(vals));
}

TypePtr
makeInt(int bits, bool is_signed)
{
    return std::make_shared<IntType>(bits, is_signed);
}

TypePtr
makeFloat(int exp_bits, int man_bits, bool is_signed)
{
    return std::make_shared<FloatType>(exp_bits, man_bits, is_signed);
}

TypePtr
makePoT(int bits, bool is_signed)
{
    return std::make_shared<PoTType>(bits, is_signed);
}

TypePtr
makeFlint(int bits, bool is_signed)
{
    return std::make_shared<FlintType>(bits, is_signed);
}

TypePtr
makeDefaultFloat(int bits, bool is_signed)
{
    // 3 exponent bits at 4-bit width (paper Fig. 3); wider types keep a
    // 1:1-ish split favouring IEEE-like layouts (e.g. 8-bit -> E4M3).
    const int payload = bits - (is_signed ? 1 : 0);
    int exp_bits = payload >= 7 ? 4 : 3;
    exp_bits = std::min(exp_bits, payload);
    return makeFloat(exp_bits, payload - exp_bits, is_signed);
}

const char *
comboName(Combo c)
{
    switch (c) {
      case Combo::INT: return "Int";
      case Combo::IP: return "IP";
      case Combo::FIP: return "FIP";
      case Combo::IPF: return "IP-F";
      case Combo::FIPF: return "FIP-F";
    }
    return "?";
}

std::vector<TypePtr>
comboCandidates(Combo c, int bits, bool is_signed)
{
    std::vector<TypePtr> out;
    out.push_back(makeInt(bits, is_signed));
    if (c == Combo::INT) return out;
    out.push_back(makePoT(bits, is_signed));
    if (c == Combo::FIP || c == Combo::FIPF)
        out.push_back(makeDefaultFloat(bits, is_signed));
    if (c == Combo::IPF || c == Combo::FIPF)
        out.push_back(makeFlint(bits, is_signed));
    return out;
}

} // namespace ant
