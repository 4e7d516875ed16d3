/**
 * @file
 * Tests for the v3 sharded-manifest artifact format (core/artifact.h):
 * bitwise round-trip through saveSharded -> loadSharded/mapSharded,
 * per-shard self-containedness (every shard file is a valid v2
 * artifact with a sliced recipe), greedy targetShardBytes packing,
 * whole-file CRC corruption detection, format sniffing, and the
 * serve-side parity of a model assembled from a manifest vs the
 * monolithic file. Suite names carry "Shard" so the CI test legs
 * (-R 'Shard|TensorParallel|MultiChip') pick them up.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "serve/servable.h"
#include "tensor/random.h"
#include "workloads/workloads.h"

namespace ant {
namespace {

using serve::buildWorkloadArtifact;
using serve::PackedStackModel;
using serve::Servable;
using serve::StackSpec;

/** One encoder block at toy width plus a 24-way head: 7 packed GEMMs,
 *  multi-KB payloads, chaining dims — the serving fixture. */
ModelArtifact
tinyArtifact(uint64_t seed)
{
    StackSpec spec;
    spec.groupSize = 8;
    spec.seed = seed;
    return buildWorkloadArtifact(workloads::gpt2Small(1, 16, 2, 24),
                                 spec);
}

struct TempPaths
{
    std::string manifest;
    std::vector<std::string> files; //!< everything to unlink

    explicit TempPaths(const std::string &stem)
        : manifest(testing::TempDir() + stem + ".antm")
    {
        files.push_back(manifest);
    }
    void
    track(const ShardedManifest &m)
    {
        for (const ManifestShard &s : m.shards)
            files.push_back(testing::TempDir() + s.file);
    }
    ~TempPaths()
    {
        for (const std::string &f : files) std::remove(f.c_str());
    }
};

TEST(Shard, RoundTripIsBitwiseForBothLoaders)
{
    const ModelArtifact art = tinyArtifact(21);
    const std::string want = art.toBytes();

    TempPaths tp("ant_shard_rt");
    const ShardedManifest m = saveSharded(art, tp.manifest);
    tp.track(m);
    // Default options: one shard per blob.
    ASSERT_EQ(m.shards.size(), art.weights.size());
    EXPECT_EQ(m.totalBlobs(), art.weights.size());
    EXPECT_GT(m.totalBytes(), 0u);

    // The acceptance bit: reassembly is bitwise the original artifact,
    // through both the copying and the mmap loader.
    EXPECT_EQ(loadSharded(tp.manifest).toBytes(), want);
    const ModelArtifact mapped = mapSharded(tp.manifest);
    EXPECT_EQ(mapped.toBytes(), want);
    for (const WeightBlob &b : mapped.weights)
        EXPECT_TRUE(b.tensor.viewsPayload()) << b.layer;

    // Checksum-skipping map is bitwise too (trusted-storage path).
    MapOptions lazy;
    lazy.verifyChecksum = false;
    EXPECT_EQ(mapSharded(tp.manifest, lazy).toBytes(), want);

    // The manifest document itself round-trips through its codec.
    const ShardedManifest m2 = ShardedManifest::loadFile(tp.manifest);
    EXPECT_EQ(m2.toBytes(), m.toBytes());
    EXPECT_EQ(m2.recipe, art.recipe);
}

TEST(Shard, EveryShardIsAnIndependentlyLoadableArtifact)
{
    const ModelArtifact art = tinyArtifact(22);
    TempPaths tp("ant_shard_indep");
    const ShardedManifest m = saveSharded(art, tp.manifest);
    tp.track(m);

    uint64_t next = 0;
    for (const ManifestShard &s : m.shards) {
        EXPECT_EQ(s.firstBlob, next); // contiguous blob cover
        next += s.blobCount;
        // Each shard file is a complete v2 artifact on its own: own
        // checksum, own (sliced) recipe, loadable with zero knowledge
        // of the manifest.
        const ModelArtifact piece =
            ModelArtifact::loadFile(testing::TempDir() + s.file);
        ASSERT_EQ(piece.weights.size(), s.blobCount);
        for (uint64_t b = 0; b < s.blobCount; ++b) {
            const WeightBlob &got =
                piece.weights[static_cast<size_t>(b)];
            const WeightBlob &ref =
                art.weights[static_cast<size_t>(s.firstBlob + b)];
            EXPECT_EQ(got.layer, ref.layer);
            EXPECT_EQ(got.tensor.shape(), ref.tensor.shape());
        }
        // The sliced recipe names exactly the covered layers.
        ASSERT_EQ(piece.recipe.layers.size(), s.blobCount);
        for (uint64_t b = 0; b < s.blobCount; ++b)
            EXPECT_EQ(
                piece.recipe.layers[static_cast<size_t>(b)].layer,
                piece.weights[static_cast<size_t>(b)].layer);
    }
    EXPECT_EQ(next, art.weights.size());
}

TEST(Shard, TargetBytesPacksBlobsGreedily)
{
    const ModelArtifact art = tinyArtifact(23);
    TempPaths coarse("ant_shard_coarse");
    ShardingOptions opts;
    opts.targetShardBytes = 1u << 30; // everything fits one shard
    const ShardedManifest one = saveSharded(art, coarse.manifest, opts);
    coarse.track(one);
    ASSERT_EQ(one.shards.size(), 1u);
    EXPECT_EQ(one.shards[0].blobCount, art.weights.size());
    EXPECT_EQ(loadSharded(coarse.manifest).toBytes(), art.toBytes());

    // A tiny target degenerates to one blob per shard, never zero.
    TempPaths fine("ant_shard_fine");
    opts.targetShardBytes = 1;
    const ShardedManifest many = saveSharded(art, fine.manifest, opts);
    fine.track(many);
    EXPECT_EQ(many.shards.size(), art.weights.size());
    EXPECT_EQ(loadSharded(fine.manifest).toBytes(), art.toBytes());
}

TEST(Shard, CorruptionAndMissingShardsAreDetected)
{
    const ModelArtifact art = tinyArtifact(24);
    TempPaths tp("ant_shard_corrupt");
    const ShardedManifest m = saveSharded(art, tp.manifest);
    tp.track(m);

    // Flip one payload byte in the middle of a shard file: the
    // manifest's whole-file CRC must catch it in both loaders.
    const std::string victim = testing::TempDir() + m.shards[2].file;
    std::string bytes;
    {
        std::ifstream in(victim, std::ios::binary);
        ASSERT_TRUE(in.good());
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(loadSharded(tp.manifest), ArtifactError);
    EXPECT_THROW(mapSharded(tp.manifest), ArtifactError);

    // A truncated shard fails on the recorded size before any CRC.
    bytes.resize(bytes.size() / 2);
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(loadSharded(tp.manifest), ArtifactError);

    // A missing shard file fails loudly too.
    std::remove(victim.c_str());
    EXPECT_THROW(loadSharded(tp.manifest), ArtifactError);

    // Manifest-level corruption: flip a byte past the header.
    {
        std::ifstream in(tp.manifest, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    bytes[bytes.size() - 3] =
        static_cast<char>(bytes[bytes.size() - 3] ^ 0x01);
    {
        std::ofstream out(tp.manifest,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(ShardedManifest::loadFile(tp.manifest),
                 ArtifactError);
}

TEST(Shard, ManifestRejectsShardNamesOutsideItsDirectory)
{
    // Shard names are joined onto the manifest's directory, so only a
    // plain basename may parse.
    ShardedManifest m;
    m.recipe = tinyArtifact(27).recipe;
    ManifestShard row;
    row.file = "model.shard000.antq";
    row.blobCount = 1;
    m.shards.push_back(row);
    EXPECT_EQ(ShardedManifest::fromBytes(m.toBytes()).shards[0].file,
              row.file);
    for (const char *bad : {"../x", "..", ".", "sub/x", "/x", "a\\b"}) {
        SCOPED_TRACE(bad);
        m.shards[0].file = bad;
        EXPECT_THROW(ShardedManifest::fromBytes(m.toBytes()),
                     ArtifactError);
    }
}

TEST(Shard, FormatSniffTellsTheTwoApart)
{
    const ModelArtifact art = tinyArtifact(25);
    TempPaths tp("ant_shard_sniff");
    tp.track(saveSharded(art, tp.manifest));
    const std::string mono = testing::TempDir() + "ant_sniff.antq";
    art.saveFile(mono);

    EXPECT_TRUE(isShardedManifest(tp.manifest));
    EXPECT_FALSE(isShardedManifest(mono));
    EXPECT_FALSE(isShardedManifest(testing::TempDir() +
                                   "ant_sniff_nonexistent.bin"));
    std::remove(mono.c_str());
}

TEST(Shard, ServedModelIsBitwiseEqualOffManifestAndMonolith)
{
    const ModelArtifact art = tinyArtifact(26);
    TempPaths tp("ant_shard_serve");
    ShardingOptions opts;
    opts.targetShardBytes = 4096; // a few blobs per shard
    tp.track(saveSharded(art, tp.manifest, opts));
    const std::string mono = testing::TempDir() + "ant_serve_mono.antq";
    art.saveFile(mono);

    // loadServable sniffs the format; both models must be zero-copy
    // and answer bitwise identically.
    const std::shared_ptr<const Servable> sharded =
        serve::loadServable("m", tp.manifest);
    const std::shared_ptr<const Servable> solid =
        serve::loadServable("m", mono);
    const auto *ps =
        dynamic_cast<const PackedStackModel *>(sharded.get());
    ASSERT_NE(ps, nullptr);
    EXPECT_TRUE(ps->servesFromView());
    EXPECT_EQ(sharded->nbytes(), solid->nbytes());
    EXPECT_EQ(sharded->inputDim(), solid->inputDim());

    Rng rng(260);
    const Tensor batch =
        rng.tensor(Shape{4, sharded->inputDim()}, DistFamily::Gaussian);
    const Tensor a = sharded->forward(batch);
    const Tensor b = solid->forward(batch);
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a[i], b[i]) << "elem " << i;
    std::remove(mono.c_str());
}

} // namespace
} // namespace ant
