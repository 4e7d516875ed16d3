#include "core/artifact.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/checksum.h"
#include "core/type_registry.h"

namespace ant {

namespace {

constexpr char kMagic[] = "ANTARTF"; // 7 bytes + version byte
constexpr uint8_t kVersion = 2;
// magic + version + u32 crc: the bytes the v2 checksum does NOT cover.
constexpr size_t kV2HeaderBytes = sizeof kMagic - 1 + 1 + 4;

#if defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kHostLittleEndian = true;
#else
constexpr bool kHostLittleEndian = false;
#endif

// --------------------------------------------------------------------
// Little-endian writer/reader (byte-wise, so the format is identical
// on every host).
// --------------------------------------------------------------------

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putI64(std::string &out, int64_t v)
{
    putU64(out, static_cast<uint64_t>(v));
}

void
putDouble(std::string &out, double d)
{
    uint64_t bits;
    static_assert(sizeof bits == sizeof d, "IEEE double expected");
    std::memcpy(&bits, &d, sizeof bits);
    putU64(out, bits);
}

void
putString(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out += s;
}

/** v2 array alignment: zero bytes up to the next 8-byte file offset. */
void
padTo8(std::string &out)
{
    out.append((8 - out.size() % 8) % 8, '\0');
}

class Reader
{
  public:
    Reader(const char *data, size_t size,
           const char *ctx = "ModelArtifact")
        : data_(data), size_(size), ctx_(ctx)
    {
    }

    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw ArtifactError(std::string(ctx_) + ": " + why +
                                    " at offset " +
                                    std::to_string(pos_));
    }

    const char *
    raw(size_t n)
    {
        if (n > size_ - pos_) fail("truncated document");
        const char *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    uint8_t u8() { return static_cast<uint8_t>(*raw(1)); }

    uint64_t
    u64()
    {
        const unsigned char *p =
            reinterpret_cast<const unsigned char *>(raw(8));
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        const uint64_t bits = u64();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        return d;
    }

    std::string
    str()
    {
        const uint64_t n = u64();
        // A length that exceeds the remaining bytes is corruption, not
        // an allocation request.
        if (n > size_ - pos_) fail("truncated string");
        return std::string(raw(static_cast<size_t>(n)),
                           static_cast<size_t>(n));
    }

    /** Skip the v2 alignment padding; nonzero pad is corruption. */
    void
    align8()
    {
        while (pos_ % 8 != 0)
            if (*raw(1) != 0) fail("nonzero alignment padding");
    }

    /** Remaining element capacity for a count of @p elem_bytes items. */
    uint64_t
    checkCount(uint64_t count, size_t elem_bytes)
    {
        if (count > (size_ - pos_) / elem_bytes)
            fail("element count exceeds the document");
        return count;
    }

    size_t pos() const { return pos_; }
    bool done() const { return pos_ == size_; }

  private:
    const char *data_;
    size_t size_;
    const char *ctx_;
    size_t pos_ = 0;
};

uint8_t
granularityCode(Granularity g)
{
    switch (g) {
      case Granularity::PerTensor: return 0;
      case Granularity::PerChannel: return 1;
      case Granularity::PerGroup: return 2;
    }
    return 0;
}

Granularity
granularityFromCode(Reader &r, uint8_t c)
{
    switch (c) {
      case 0: return Granularity::PerTensor;
      case 1: return Granularity::PerChannel;
      case 2: return Granularity::PerGroup;
    }
    r.fail("unknown granularity code " + std::to_string(c));
}

/**
 * The one parser behind fromBytes/loadFile/mapFile. When @p view_keep
 * is non-null (the mapFile path), v2 payload arrays whose mapped
 * pointers are 8-aligned become QTensor views co-owning the mapping;
 * everything else is copied out, so every caller gets the same
 * artifact bit for bit.
 */
ModelArtifact parseDocumentImpl(const char *data, size_t size,
                                const std::shared_ptr<const MappedFile>
                                    &view_keep,
                                bool verify_checksum);

/**
 * Reader entry point: everything a hostile document can trip — the
 * Reader's own bounds checks, the type registry's spec parser, the
 * recipe's JSON parser, QTensor's layout validators — must surface as
 * ArtifactError, so the two loaders have exactly one failure type.
 */
ModelArtifact
parseDocument(const char *data, size_t size,
              const std::shared_ptr<const MappedFile> &view_keep,
              bool verify_checksum)
{
    try {
        return parseDocumentImpl(data, size, view_keep,
                                 verify_checksum);
    } catch (const std::invalid_argument &e) {
        // Inner validators (parseType, recipe JSON) classify bad
        // stored strings as bad arguments; from the reader they are
        // file corruption.
        const std::string what = e.what();
        throw ArtifactError(
            what.compare(0, 14, "ModelArtifact:") == 0
                ? what
                : "ModelArtifact: " + what);
    }
}

ModelArtifact
parseDocumentImpl(const char *data, size_t size,
                  const std::shared_ptr<const MappedFile> &view_keep,
                  bool verify_checksum)
{
    Reader r(data, size);
    if (std::memcmp(r.raw(sizeof kMagic - 1), kMagic,
                    sizeof kMagic - 1) != 0)
        r.fail("bad magic (not an ANT artifact)");
    const uint8_t version = r.u8();
    if (version < 1 || version > kVersion)
        r.fail("unsupported version " + std::to_string(version) +
               " (this build reads versions 1.." +
               std::to_string(kVersion) + ")");
    if (version >= 2) {
        uint32_t stored = 0;
        const unsigned char *p =
            reinterpret_cast<const unsigned char *>(r.raw(4));
        for (int i = 0; i < 4; ++i)
            stored |= static_cast<uint32_t>(p[i]) << (8 * i);
        if (verify_checksum) {
            const uint32_t computed = crc32c(data + kV2HeaderBytes,
                                             size - kV2HeaderBytes);
            if (computed != stored)
                r.fail("checksum mismatch (stored " +
                       std::to_string(stored) + ", computed " +
                       std::to_string(computed) +
                       ") — truncated or corrupted artifact");
        }
    }

    ModelArtifact a;
    a.recipe = QuantRecipe::fromJson(r.str());
    // A blob's fixed-size fields alone take 57 bytes, so a count
    // exceeding remaining/57 is corruption — reject it before
    // reserve() turns it into a multi-GB allocation request.
    const uint64_t blob_count = r.checkCount(r.u64(), 57);
    a.weights.reserve(static_cast<size_t>(blob_count));
    for (uint64_t bi = 0; bi < blob_count; ++bi) {
        WeightBlob blob;
        blob.layer = r.str();
        const std::string spec = r.str();
        const TypePtr type = parseType(spec); // throws on unknown specs
        const Granularity gran = granularityFromCode(r, r.u8());
        const int64_t group_size = r.i64();
        const uint64_t ndim = r.checkCount(r.u64(), 8);
        std::vector<int64_t> dims;
        dims.reserve(static_cast<size_t>(ndim));
        int64_t numel = 1;
        for (uint64_t i = 0; i < ndim; ++i) {
            const int64_t d = r.i64();
            // Negative extents are corruption, and the element count
            // must stay far from the numel * bits overflow edge the
            // word-count math would hit (2^48 elements ~ 32 TB of
            // int4 payload — no legitimate blob is near it).
            if (d < 0) r.fail("negative dimension extent");
            if (d > 0 && numel > (int64_t{1} << 48) / d)
                r.fail("implausible tensor extent (overflow guard)");
            numel = d == 0 ? 0 : numel * d;
            dims.push_back(d);
        }
        const uint64_t nscales = r.u64();
        if (version >= 2) r.align8();
        r.checkCount(nscales, 8);
        std::vector<double> scales;
        if (version >= 2 && kHostLittleEndian) {
            // The scale plane is contiguous little-endian IEEE bits;
            // on a little-endian host that IS the in-memory layout.
            scales.resize(static_cast<size_t>(nscales));
            std::memcpy(scales.data(),
                        r.raw(static_cast<size_t>(nscales) * 8),
                        static_cast<size_t>(nscales) * 8);
        } else {
            scales.reserve(static_cast<size_t>(nscales));
            for (uint64_t i = 0; i < nscales; ++i)
                scales.push_back(r.f64());
        }
        const uint64_t ngt = r.checkCount(r.u64(), 8);
        std::vector<TypePtr> group_types;
        group_types.reserve(static_cast<size_t>(ngt));
        for (uint64_t i = 0; i < ngt; ++i)
            group_types.push_back(parseType(r.str()));
        const uint64_t nwords = r.u64();
        if (version >= 2) r.align8();
        r.checkCount(nwords, 8);
        try {
            const char *wp =
                r.raw(static_cast<size_t>(nwords) * 8);
            const bool viewable =
                view_keep != nullptr && version >= 2 &&
                kHostLittleEndian &&
                reinterpret_cast<uintptr_t>(wp) % alignof(uint64_t) ==
                    0;
            if (viewable) {
                blob.tensor = QTensor::fromView(
                    Shape{std::move(dims)}, type, gran, group_size,
                    std::move(scales),
                    reinterpret_cast<const uint64_t *>(wp),
                    static_cast<size_t>(nwords), view_keep,
                    std::move(group_types));
            } else {
                std::vector<uint64_t> words(
                    static_cast<size_t>(nwords));
                if (kHostLittleEndian) {
                    std::memcpy(words.data(), wp,
                                static_cast<size_t>(nwords) * 8);
                } else {
                    const unsigned char *q =
                        reinterpret_cast<const unsigned char *>(wp);
                    for (uint64_t i = 0; i < nwords; ++i, q += 8) {
                        uint64_t v = 0;
                        for (int j = 0; j < 8; ++j)
                            v |= static_cast<uint64_t>(q[j])
                                 << (8 * j);
                        words[static_cast<size_t>(i)] = v;
                    }
                }
                blob.tensor = QTensor::fromParts(
                    Shape{std::move(dims)}, type, gran, group_size,
                    std::move(scales), std::move(words),
                    std::move(group_types));
            }
        } catch (const std::invalid_argument &e) {
            // QTensor's layout validators see hostile stored fields as
            // bad arguments; from the reader they are file corruption.
            throw ArtifactError("ModelArtifact: blob \"" + blob.layer +
                                "\": " + e.what());
        }
        a.weights.push_back(std::move(blob));
    }
    if (!r.done()) r.fail("trailing bytes");
    return a;
}

} // namespace

size_t
ModelArtifact::payloadBytes() const
{
    size_t n = 0;
    for (const WeightBlob &b : weights) n += b.tensor.nbytes();
    return n;
}

bool
ModelArtifact::viewsPayload() const
{
    if (weights.empty()) return false;
    for (const WeightBlob &b : weights)
        if (!b.tensor.viewsPayload()) return false;
    return true;
}

std::string
ModelArtifact::toBytes(uint8_t version) const
{
    if (version < 1 || version > kVersion)
        throw std::invalid_argument(
            "ModelArtifact: cannot write version " +
            std::to_string(version) + " (this build writes 1.." +
            std::to_string(kVersion) + ")");
    std::string out;
    out += kMagic;
    out += static_cast<char>(version);
    if (version >= 2) out.append(4, '\0'); // CRC slot, patched below
    putString(out, recipe.toJson());
    putU64(out, weights.size());
    for (const WeightBlob &b : weights) {
        const QTensor &q = b.tensor;
        if (q.empty())
            throw std::invalid_argument(
                "ModelArtifact: blob \"" + b.layer +
                "\" holds an empty QTensor");
        putString(out, b.layer);
        putString(out, q.type()->spec());
        out += static_cast<char>(granularityCode(q.granularity()));
        putI64(out, q.groupSize());
        putU64(out, static_cast<uint64_t>(q.shape().ndim()));
        for (int64_t d : q.shape().dims()) putI64(out, d);
        putU64(out, q.scales().size());
        if (version >= 2) padTo8(out);
        for (double s : q.scales()) putDouble(out, s);
        putU64(out, q.groupTypes().size());
        for (const TypePtr &gt : q.groupTypes())
            putString(out, gt->spec());
        putU64(out, q.words().size());
        if (version >= 2) padTo8(out);
        for (uint64_t w : q.words()) putU64(out, w);
    }
    if (version >= 2) {
        const uint32_t crc = crc32c(out.data() + kV2HeaderBytes,
                                    out.size() - kV2HeaderBytes);
        for (int i = 0; i < 4; ++i)
            out[sizeof kMagic - 1 + 1 + static_cast<size_t>(i)] =
                static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    return out;
}

ModelArtifact
ModelArtifact::fromBytes(const std::string &bytes)
{
    return parseDocument(bytes.data(), bytes.size(), nullptr, true);
}

void
ModelArtifact::saveFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("ModelArtifact: cannot open " + path);
    const std::string bytes = toBytes();
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f)
        throw std::runtime_error("ModelArtifact: write failed: " + path);
}

ModelArtifact
ModelArtifact::loadFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw ArtifactError("ModelArtifact: cannot open " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return fromBytes(ss.str());
}

ModelArtifact
ModelArtifact::mapFile(const std::string &path, MapOptions opts)
{
    const std::shared_ptr<const MappedFile> mf = MappedFile::open(path);
    // The read() fallback still parses in place and still hands the
    // blobs views into the (owned) buffer — one copy total, same as
    // loadFile, instead of two.
    return parseDocument(mf->data(), mf->size(), mf,
                         opts.verifyChecksum);
}

// --------------------------------------------------------------------
// Sharded manifests (v3)
// --------------------------------------------------------------------

namespace {

constexpr char kManifestMagic[] = "ANTMANF"; // 7 bytes + version byte
constexpr uint8_t kManifestVersion = 1;
// magic + version + u32 crc, excluded from the manifest checksum.
constexpr size_t kManifestHeaderBytes = sizeof kManifestMagic - 1 + 1 + 4;

/** Directory prefix of @p path, including the trailing separator
 *  (empty for a bare filename) — shard names in the manifest are
 *  relative to this. */
std::string
dirnameOf(const std::string &path)
{
    const size_t slash = path.find_last_of("/\\");
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

/** Basename of @p path with its last extension stripped. */
std::string
stemOf(const std::string &path)
{
    const size_t slash = path.find_last_of("/\\");
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const size_t dot = base.find_last_of('.');
    return dot == std::string::npos || dot == 0 ? base
                                                : base.substr(0, dot);
}

std::string
shardFileName(const std::string &stem, size_t index)
{
    std::string n = std::to_string(index);
    if (n.size() < 3) n.insert(0, 3 - n.size(), '0');
    return stem + ".shard" + n + ".antq";
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw ArtifactError("ShardedManifest: cannot open " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** The recipe layers a shard's blob range covers, in blob order. A
 *  shard file must be a self-describing v2 artifact on its own, so it
 *  carries exactly the recipe slice its payloads need. */
QuantRecipe
sliceRecipe(const QuantRecipe &full,
            const std::vector<WeightBlob> &blobs, size_t first,
            size_t count)
{
    QuantRecipe slice;
    slice.model = full.model;
    for (size_t i = first; i < first + count; ++i) {
        const std::string &name = blobs[i].layer;
        bool already = false;
        for (const LayerRecipe &l : slice.layers)
            if (l.layer == name) { already = true; break; }
        if (already) continue;
        for (const LayerRecipe &l : full.layers)
            if (l.layer == name) {
                slice.layers.push_back(l);
                break;
            }
    }
    return slice;
}

/** Parse + (optionally whole-file-CRC-check + ) assemble one shard's
 *  blobs onto @p out, with table-consistency errors naming the shard. */
void
appendShardBlobs(ModelArtifact &out, const ManifestShard &s,
                 ModelArtifact &&shard)
{
    if (shard.weights.size() != s.blobCount)
        throw ArtifactError(
            "ShardedManifest: shard \"" + s.file + "\" holds " +
            std::to_string(shard.weights.size()) +
            " blobs, manifest says " + std::to_string(s.blobCount));
    if (out.weights.size() != static_cast<size_t>(s.firstBlob))
        throw ArtifactError(
            "ShardedManifest: shard \"" + s.file +
            "\" starts at blob " + std::to_string(s.firstBlob) +
            " but " + std::to_string(out.weights.size()) +
            " blobs were assembled before it");
    for (WeightBlob &b : shard.weights)
        out.weights.push_back(std::move(b));
}

void
checkShardSizeCrc(const ManifestShard &s, const char *data,
                  size_t size, bool verify_crc)
{
    if (size != s.bytes)
        throw ArtifactError(
            "ShardedManifest: shard \"" + s.file + "\" is " +
            std::to_string(size) + " bytes, manifest says " +
            std::to_string(s.bytes));
    if (!verify_crc) return;
    const uint32_t computed = crc32c(data, size);
    if (computed != s.crc)
        throw ArtifactError(
            "ShardedManifest: shard \"" + s.file +
            "\" checksum mismatch (stored " + std::to_string(s.crc) +
            ", computed " + std::to_string(computed) +
            ") — truncated or corrupted shard");
}

} // namespace

size_t
ShardedManifest::totalBytes() const
{
    size_t n = 0;
    for (const ManifestShard &s : shards)
        n += static_cast<size_t>(s.bytes);
    return n;
}

size_t
ShardedManifest::totalBlobs() const
{
    size_t n = 0;
    for (const ManifestShard &s : shards)
        n += static_cast<size_t>(s.blobCount);
    return n;
}

std::string
ShardedManifest::toBytes() const
{
    std::string out;
    out += kManifestMagic;
    out += static_cast<char>(kManifestVersion);
    out.append(4, '\0'); // CRC slot, patched below
    putString(out, recipe.toJson());
    putU64(out, shards.size());
    for (const ManifestShard &s : shards) {
        putString(out, s.file);
        putU64(out, s.bytes);
        putU64(out, s.crc);
        putU64(out, s.firstBlob);
        putU64(out, s.blobCount);
    }
    const uint32_t crc = crc32c(out.data() + kManifestHeaderBytes,
                                out.size() - kManifestHeaderBytes);
    for (int i = 0; i < 4; ++i)
        out[sizeof kManifestMagic - 1 + 1 + static_cast<size_t>(i)] =
            static_cast<char>((crc >> (8 * i)) & 0xff);
    return out;
}

ShardedManifest
ShardedManifest::fromBytes(const std::string &bytes)
{
    try {
        Reader r(bytes.data(), bytes.size(), "ShardedManifest");
        if (std::memcmp(r.raw(sizeof kManifestMagic - 1),
                        kManifestMagic,
                        sizeof kManifestMagic - 1) != 0)
            r.fail("bad magic (not an ANT shard manifest)");
        const uint8_t version = r.u8();
        if (version != kManifestVersion)
            r.fail("unsupported manifest version " +
                   std::to_string(version));
        uint32_t stored = 0;
        {
            const unsigned char *p =
                reinterpret_cast<const unsigned char *>(r.raw(4));
            for (int i = 0; i < 4; ++i)
                stored |= static_cast<uint32_t>(p[i]) << (8 * i);
        }
        const uint32_t computed =
            crc32c(bytes.data() + kManifestHeaderBytes,
                   bytes.size() - kManifestHeaderBytes);
        if (computed != stored)
            r.fail("checksum mismatch (stored " +
                   std::to_string(stored) + ", computed " +
                   std::to_string(computed) +
                   ") — truncated or corrupted manifest");

        ShardedManifest m;
        m.recipe = QuantRecipe::fromJson(r.str());
        // A shard row's fixed fields take 40 bytes (5 u64s), so a
        // larger count than remaining/40 is corruption.
        const uint64_t count = r.checkCount(r.u64(), 40);
        m.shards.reserve(static_cast<size_t>(count));
        uint64_t next_blob = 0;
        for (uint64_t i = 0; i < count; ++i) {
            ManifestShard s;
            s.file = r.str();
            // Shard names are joined onto the manifest's directory, so
            // anything but a plain basename could escape it.
            if (s.file.empty() || s.file == "." || s.file == ".." ||
                s.file.find_first_of("/\\") != std::string::npos ||
                s.file.find('\0') != std::string::npos)
                r.fail("shard filename is not a plain basename");
            s.bytes = r.u64();
            const uint64_t crc = r.u64();
            if (crc > 0xffffffffull)
                r.fail("shard CRC field exceeds 32 bits");
            s.crc = static_cast<uint32_t>(crc);
            s.firstBlob = r.u64();
            s.blobCount = r.u64();
            if (s.firstBlob != next_blob)
                r.fail("non-contiguous shard table (shard " +
                       std::to_string(i) + " starts at blob " +
                       std::to_string(s.firstBlob) + ", expected " +
                       std::to_string(next_blob) + ")");
            next_blob += s.blobCount;
            m.shards.push_back(std::move(s));
        }
        if (!r.done()) r.fail("trailing bytes");
        return m;
    } catch (const std::invalid_argument &e) {
        // The recipe JSON parser classifies hostile stored documents
        // as bad arguments; from this reader they are corruption.
        throw ArtifactError(std::string("ShardedManifest: ") +
                            e.what());
    }
}

void
ShardedManifest::saveFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("ShardedManifest: cannot open " +
                                 path);
    const std::string bytes = toBytes();
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f)
        throw std::runtime_error("ShardedManifest: write failed: " +
                                 path);
}

ShardedManifest
ShardedManifest::loadFile(const std::string &path)
{
    return fromBytes(readFileBytes(path));
}

bool
isShardedManifest(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    char buf[sizeof kManifestMagic - 1];
    if (!f.read(buf, sizeof buf)) return false;
    return std::memcmp(buf, kManifestMagic, sizeof buf) == 0;
}

ShardedManifest
saveSharded(const ModelArtifact &art, const std::string &manifest_path,
            ShardingOptions opts)
{
    const std::string dir = dirnameOf(manifest_path);
    const std::string stem = stemOf(manifest_path);
    ShardedManifest m;
    m.recipe = art.recipe;
    size_t first = 0;
    while (first < art.weights.size()) {
        // Greedy packing over the *payload* bytes (the dominant term);
        // a single over-target blob still gets its own shard.
        size_t count = 1;
        if (opts.targetShardBytes > 0) {
            size_t bytes = art.weights[first].tensor.nbytes();
            while (first + count < art.weights.size()) {
                const size_t next =
                    art.weights[first + count].tensor.nbytes();
                if (bytes + next > opts.targetShardBytes) break;
                bytes += next;
                ++count;
            }
        }
        ModelArtifact shard;
        shard.recipe = sliceRecipe(art.recipe, art.weights, first,
                                   count);
        shard.weights.assign(art.weights.begin() +
                                 static_cast<std::ptrdiff_t>(first),
                             art.weights.begin() +
                                 static_cast<std::ptrdiff_t>(first +
                                                             count));
        ManifestShard row;
        row.file = shardFileName(stem, m.shards.size());
        const std::string bytes = shard.toBytes();
        {
            std::ofstream f(dir + row.file, std::ios::binary);
            if (!f)
                throw std::runtime_error(
                    "ShardedManifest: cannot open " + dir + row.file);
            f.write(bytes.data(),
                    static_cast<std::streamsize>(bytes.size()));
            if (!f)
                throw std::runtime_error(
                    "ShardedManifest: write failed: " + dir +
                    row.file);
        }
        row.bytes = bytes.size();
        row.crc = crc32c(bytes.data(), bytes.size());
        row.firstBlob = first;
        row.blobCount = count;
        m.shards.push_back(std::move(row));
        first += count;
    }
    m.saveFile(manifest_path);
    return m;
}

ModelArtifact
loadSharded(const std::string &manifest_path)
{
    const ShardedManifest m = ShardedManifest::loadFile(manifest_path);
    const std::string dir = dirnameOf(manifest_path);
    ModelArtifact out;
    out.recipe = m.recipe;
    out.weights.reserve(m.totalBlobs());
    for (const ManifestShard &s : m.shards) {
        const std::string bytes = readFileBytes(dir + s.file);
        checkShardSizeCrc(s, bytes.data(), bytes.size(), true);
        // The whole-file CRC just verified subsumes the shard's inner
        // v2 checksum, so the parse skips re-streaming it.
        appendShardBlobs(out, s,
                         parseDocument(bytes.data(), bytes.size(),
                                       nullptr, false));
    }
    return out;
}

ModelArtifact
mapSharded(const std::string &manifest_path, MapOptions opts)
{
    const ShardedManifest m = ShardedManifest::loadFile(manifest_path);
    const std::string dir = dirnameOf(manifest_path);
    ModelArtifact out;
    out.recipe = m.recipe;
    out.weights.reserve(m.totalBlobs());
    for (const ManifestShard &s : m.shards) {
        const std::shared_ptr<const MappedFile> mf =
            MappedFile::open(dir + s.file);
        checkShardSizeCrc(s, mf->data(), mf->size(),
                          opts.verifyChecksum);
        appendShardBlobs(out, s,
                         parseDocument(mf->data(), mf->size(), mf,
                                       false));
    }
    return out;
}

} // namespace ant
