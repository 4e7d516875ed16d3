/**
 * @file
 * The `decode` workload: autoregressive generation over packed KV
 * caches. A round is a fixed list of sessions whose prompt lengths run
 * from inside one KV time group to several groups. Each session
 * prefills its prompt's keys and values into per-block, per-head
 * KVCacheTensors (through DecodeAttention::prefill), then generates
 * tokens one at a time: per block, packedMatmulBT on one row for q, k,
 * v, o and the two FFN layers, and one DecodeAttention::step per head.
 *
 * Prompt hidden states are drawn per block from the seed: the prefill
 * runs each block's k/v projections and cache appends, not the prompt
 * positions' own attention (DecodeAttention::prefill's contract).
 *
 * The first round is not measured: it checks every context row and
 * every cache's codes, and keeps a digest of each session's outputs.
 * Measured rounds run without the checks and must reproduce those
 * digests bit for bit, so the checks' time stays out of every metric.
 *
 * The traced run replaces DecodeAttention::step by the public pieces
 * it is made of (KVCacheTensor::append, KVCacheTensor::packed,
 * attendPacked) so each gets its own span, and checks against a
 * shadow DecodeAttention that the result is bitwise the same.
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/kv_cache.h"
#include "core/packed_gemm.h"
#include "core/qtensor.h"
#include "core/quantizer.h"
#include "core/type_registry.h"
#include "reference.h"
#include "serve/decode.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ant;

constexpr int kSetups = 3;
/** Context row vs double-precision attention over the dequantized
 *  caches: max abs error over max |reference|. */
constexpr double kTolerance = 1e-4;

struct Config
{
    int blocks, heads;
    int64_t headDim, ff;
    int64_t kvGroup;
    int genTokens; //!< generated per session, the first one included
    std::vector<int64_t> prompts;
    int64_t d() const { return heads * headDim; }
};

Config
configFor(const Args &a)
{
    if (a.quick) return Config{2, 2, 64, 512, 32, 6, {8, 20, 40, 100}};
    // Prompts: four stay inside one 128-step time group (generation
    // included), four span 2-5 groups.
    return Config{2, 12, 64, 3072, 128, 24,
                  {16, 40, 64, 100, 160, 256, 384, 512}};
}

struct Block
{
    QTensor wq, wk, wv, wo, w1, w2; //!< [n, k] packed, int4 g=128
};

struct SessionInput
{
    std::vector<Tensor> prompt; //!< per block: [T, d] hidden states
    Tensor first;               //!< [1, d] input of the first token
};

struct Model
{
    std::vector<Block> blocks;
    std::vector<SessionInput> sessions;
    double weightBytes = 0.0;
};

/** Weights (each tensor on its own generator, packed concurrently)
 *  and session inputs, all from @p seed. */
Model
buildModel(const Config &c, uint64_t seed, int workers)
{
    Model m;
    m.blocks.resize(static_cast<size_t>(c.blocks));
    QuantConfig q;
    q.type = parseType("int4");
    q.granularity = Granularity::PerGroup;
    q.groupSize = 128;
    const int64_t d = c.d();
    const int64_t n[] = {d, d, d, d, c.ff, d};
    const int64_t k[] = {d, d, d, d, d, c.ff};
    forEachConcurrent(c.blocks * 6, workers, [&](int64_t j) {
        Block &bl = m.blocks[static_cast<size_t>(j / 6)];
        QTensor *w[] = {&bl.wq, &bl.wk, &bl.wv, &bl.wo, &bl.w1, &bl.w2};
        const int64_t i = j % 6;
        Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(j));
        const Tensor t = rng.tensor(
            Shape{n[i], k[i]}, DistFamily::WeightLike,
            1.0f / std::sqrt(static_cast<float>(k[i])));
        *w[i] = *quantize(t, q, QuantizeTo::Packed).packed;
    });
    for (const Block &bl : m.blocks)
        for (const QTensor *w : {&bl.wq, &bl.wk, &bl.wv, &bl.wo, &bl.w1,
                                 &bl.w2})
            m.weightBytes += static_cast<double>(w->nbytes());
    Rng rng(seed * 0xD6E8FEB86659FD93ull + 3);
    for (int64_t T : c.prompts) {
        SessionInput s;
        for (int b = 0; b < c.blocks; ++b)
            s.prompt.push_back(rng.tensor(Shape{T, d}, DistFamily::Gaussian));
        s.first = rng.tensor(Shape{1, d}, DistFamily::Gaussian);
        m.sessions.push_back(std::move(s));
    }
    return m;
}

/** Root-mean-square normalization of each row (benchmark-side). */
Tensor
rmsNorm(const Tensor &x)
{
    Tensor y = x;
    const int64_t d = x.dim(1);
    for (int64_t r = 0; r < x.dim(0); ++r) {
        double s = 0.0;
        for (int64_t j = 0; j < d; ++j) s += double(x[r * d + j]) * x[r * d + j];
        const float inv =
            static_cast<float>(1.0 / std::sqrt(s / static_cast<double>(d) + 1e-6));
        for (int64_t j = 0; j < d; ++j) y[r * d + j] *= inv;
    }
    return y;
}

/** Columns [h * hd, (h + 1) * hd) of a [R, d] tensor. */
Tensor
headSlice(const Tensor &x, int h, int64_t hd)
{
    const int64_t R = x.dim(0), d = x.dim(1);
    Tensor y{Shape{R, hd}};
    for (int64_t r = 0; r < R; ++r)
        std::memcpy(y.data() + r * hd, x.data() + r * d + h * hd,
                    sizeof(float) * static_cast<size_t>(hd));
    return y;
}

void
addInPlace(Tensor &x, const Tensor &y)
{
    for (int64_t i = 0; i < x.numel(); ++i) x[i] += y[i];
}

/** FNV-1a over the bytes of @p x, continuing from @p h. */
uint64_t
digestOf(const Tensor &x, uint64_t h)
{
    const auto *p = reinterpret_cast<const unsigned char *>(x.data());
    for (size_t i = 0; i < sizeof(float) * static_cast<size_t>(x.numel());
         ++i)
        h = (h ^ p[i]) * 0x100000001B3ull;
    return h;
}

/** One head's caches and what the checks keep about them. */
struct Head
{
    std::unique_ptr<serve::DecodeAttention> attn; //!< entry point/shadow
    std::unique_ptr<KVCacheTensor> k, v;          //!< traced pieces
    std::vector<float> krows, vrows;              //!< every appended row
    std::vector<double> kdeq, vdeq; //!< reference dequant, closed groups
    int64_t closedRows = 0;

    const KVCacheTensor &keys() const { return k ? *k : attn->keys(); }
    const KVCacheTensor &values() const { return v ? *v : attn->values(); }
};

struct Session
{
    std::vector<Head> heads; //!< block-major: b * heads + h
    double ttftMs = 0.0;
    std::vector<double> tokenMs; //!< tokens after the first
    uint64_t tokens = 0;
    uint64_t digest = 0; //!< of every context row and the last output
    uint64_t appended = 0, repacked = 0; //!< KV rows, all caches
    double kvBytes = 0.0;                //!< caches' footprint at the end
    double maxErr = 0.0;                 //!< worst context-row error
};

class Decoder
{
  public:
    Decoder(const Config &c, const Model &m, bool traced)
        : c_(c), m_(m), traced_(traced),
          scale_(1.0 / std::sqrt(static_cast<double>(c.headDim)))
    {
        kv_.type = parseType("int4");
        kv_.groupSize = c.kvGroup;
    }

    /** Prefill then generate; returns the session's timings. With
     *  @p checked, every context row and, at the end, every cache's
     *  codes are checked; the checks' time is left out of the timings. */
    Session
    run(const SessionInput &in, int session_index, bool checked)
    {
        Session s;
        s.heads.resize(static_cast<size_t>(c_.blocks * c_.heads));
        for (size_t i = 0; i < s.heads.size(); ++i) {
            Head &h = s.heads[i];
            const bool shadow =
                static_cast<int>(i % static_cast<size_t>(c_.heads)) ==
                session_index % c_.heads;
            if (!traced_ || shadow)
                h.attn = std::make_unique<serve::DecodeAttention>(
                    serve::DecodeAttentionConfig{c_.headDim, kv_, 0.0});
            if (traced_) {
                h.k = std::make_unique<KVCacheTensor>(c_.headDim, kv_);
                h.v = std::make_unique<KVCacheTensor>(c_.headDim, kv_);
            }
        }
        const Clock::time_point t0 = Clock::now();
        prefill(in, s, checked);
        Tensor x = in.first;
        s.digest = 0xCBF29CE484222325ull;
        for (int t = 0; t < c_.genTokens; ++t) {
            const Clock::time_point s0 = Clock::now();
            std::vector<Tensor> q(static_cast<size_t>(c_.blocks)),
                ctx(static_cast<size_t>(c_.blocks));
            {
                ScopedSpan span("decode.token", static_cast<uint64_t>(t));
                x = step(x, s, q, ctx, checked);
            }
            const double ms = msSince(s0);
            if (t == 0)
                s.ttftMs = msSince(t0);
            else
                s.tokenMs.push_back(ms);
            ++s.tokens;
            for (const Tensor &c : ctx) s.digest = digestOf(c, s.digest);
            if (checked) checkContexts(s, q, ctx);
        }
        s.digest = digestOf(x, s.digest);
        if (checked) checkStreamedCodes(s);
        for (Head &H : s.heads) {
            s.repacked += H.keys().repackedRows() + H.values().repackedRows();
            s.kvBytes += static_cast<double>(H.keys().nbytes() +
                                             H.values().nbytes());
        }
        s.heads.clear(); // caches and check state end with the session
        return s;
    }

  private:
    Tensor
    gemv(const Tensor &x, const QTensor &w)
    {
        ScopedSpan span("packed_gemm.gemv");
        return packedMatmulBT(x, w);
    }

    void
    prefill(const SessionInput &in, Session &s, bool checked)
    {
        const int64_t hd = c_.headDim;
        for (int b = 0; b < c_.blocks; ++b) {
            const Block &bl = m_.blocks[static_cast<size_t>(b)];
            Tensor k, v;
            {
                ScopedSpan span("packed_gemm.prefill");
                const Tensor xn = rmsNorm(in.prompt[static_cast<size_t>(b)]);
                k = packedMatmulBT(xn, bl.wk);
                v = packedMatmulBT(xn, bl.wv);
            }
            for (int h = 0; h < c_.heads; ++h) {
                Head &hd_ = s.heads[static_cast<size_t>(b * c_.heads + h)];
                const Tensor kh = headSlice(k, h, hd), vh = headSlice(v, h, hd);
                {
                    ScopedSpan span("kv_cache.prefill");
                    if (hd_.k) {
                        hd_.k->append(kh);
                        hd_.v->append(vh);
                    }
                    if (hd_.attn) hd_.attn->prefill(kh, vh);
                }
                if (checked) {
                    hd_.krows.insert(hd_.krows.end(), kh.vec().begin(),
                                     kh.vec().end());
                    hd_.vrows.insert(hd_.vrows.end(), vh.vec().begin(),
                                     vh.vec().end());
                }
                s.appended += 2 * static_cast<uint64_t>(kh.dim(0));
            }
        }
    }

    /** One token through every block; keeps q and context per block
     *  for the checks and the digest. */
    Tensor
    step(Tensor x, Session &s, std::vector<Tensor> &qs,
         std::vector<Tensor> &ctxs, bool checked)
    {
        const int64_t hd = c_.headDim, d = c_.d();
        for (int b = 0; b < c_.blocks; ++b) {
            const Block &bl = m_.blocks[static_cast<size_t>(b)];
            const Tensor xn = rmsNorm(x);
            const Tensor q = gemv(xn, bl.wq), k = gemv(xn, bl.wk),
                         v = gemv(xn, bl.wv);
            Tensor ctx{Shape{1, d}};
            for (int h = 0; h < c_.heads; ++h) {
                Head &H = s.heads[static_cast<size_t>(b * c_.heads + h)];
                const Tensor qh = headSlice(q, h, hd),
                             kh = headSlice(k, h, hd),
                             vh = headSlice(v, h, hd);
                Tensor out;
                if (!traced_) {
                    out = H.attn->step(qh, kh, vh);
                } else {
                    {
                        ScopedSpan span("kv_cache.append");
                        H.k->append(kh);
                        H.v->append(vh);
                    }
                    QTensor K, V;
                    {
                        ScopedSpan span("kv_cache.snapshot");
                        K = H.k->packed();
                        V = H.v->packed();
                    }
                    {
                        ScopedSpan span("decode.attend");
                        out = serve::attendPacked(qh, K, V, scale_);
                    }
                    if (H.attn) {
                        const Tensor ref = H.attn->step(qh, kh, vh);
                        check(std::memcmp(ref.data(), out.data(),
                                          sizeof(float) * static_cast<size_t>(
                                              hd)) == 0,
                              "decode: append + packed + attendPacked "
                              "differs from DecodeAttention::step");
                    }
                }
                std::memcpy(ctx.data() + h * hd, out.data(),
                            sizeof(float) * static_cast<size_t>(hd));
                if (checked) {
                    H.krows.insert(H.krows.end(), kh.vec().begin(),
                                   kh.vec().end());
                    H.vrows.insert(H.vrows.end(), vh.vec().begin(),
                                   vh.vec().end());
                }
                s.appended += 2;
            }
            qs[static_cast<size_t>(b)] = q;
            ctxs[static_cast<size_t>(b)] = ctx;
            addInPlace(x, gemv(ctx, bl.wo));
            const Tensor f = gemv(ops::gelu(gemv(rmsNorm(x), bl.w1)), bl.w2);
            addInPlace(x, f);
        }
        return x;
    }

    /** Every context row of this step against the double-precision
     *  attention over the dequantized caches. */
    void
    checkContexts(Session &s, const std::vector<Tensor> &qs,
                  const std::vector<Tensor> &ctxs)
    {
        const int64_t hd = c_.headDim;
        const int64_t n = static_cast<int64_t>(s.heads.size());
        for (int64_t i = 0; i < n; ++i) {
            Head &H = s.heads[static_cast<size_t>(i)];
            const int b = static_cast<int>(i / c_.heads);
            const int h = static_cast<int>(i % c_.heads);
            const QTensor K = H.keys().packed(), V = H.values().packed();
            const int64_t T = K.shape().dim(0);
            H.kdeq.resize(static_cast<size_t>(T * hd));
            H.vdeq.resize(static_cast<size_t>(T * hd));
            // Closed groups never change; the open one is redone.
            ref::dequantizeRows(K, H.closedRows, T,
                                H.kdeq.data() + H.closedRows * hd);
            ref::dequantizeRows(V, H.closedRows, T,
                                H.vdeq.data() + H.closedRows * hd);
            H.closedRows = T / c_.kvGroup * c_.kvGroup;
            std::vector<double> q(static_cast<size_t>(hd));
            const float *qp = qs[static_cast<size_t>(b)].data() + h * hd;
            for (int64_t j = 0; j < hd; ++j) q[static_cast<size_t>(j)] = qp[j];
            const std::vector<double> want = ref::attention(
                q.data(), H.kdeq.data(), H.vdeq.data(), T, hd, scale_);
            const double err = ref::maxRelErr(
                ctxs[static_cast<size_t>(b)].data() + h * hd, want.data(),
                hd);
            s.maxErr = std::max(s.maxErr, err);
            if (!(err <= kTolerance))
                throw CheckFailure(
                    "decode: context row of head " + std::to_string(i) +
                    " off the double-precision attention by " + fmt(err));
        }
    }

    /** Streamed cache codes == one-shot QTensor::pack of the same rows
     *  at the cache's scales. */
    void
    checkStreamedCodes(Session &s)
    {
        const int64_t hd = c_.headDim;
        for (Head &H : s.heads) {
            const KVCacheTensor *caches[] = {&H.keys(), &H.values()};
            const std::vector<float> *rows[] = {&H.krows, &H.vrows};
            for (int j = 0; j < 2; ++j) {
                const KVCacheTensor &kv = *caches[j];
                const int64_t T = kv.timesteps();
                std::vector<double> rowScales(static_cast<size_t>(T));
                for (int64_t t = 0; t < T; ++t)
                    rowScales[static_cast<size_t>(t)] =
                        kv.scales()[static_cast<size_t>(t / kv.groupSize())];
                const QTensor oneShot = QTensor::pack(
                    Tensor(Shape{T, hd}, *rows[j]), kv_.type,
                    Granularity::PerChannel, rowScales);
                check(oneShot.words() == kv.packed().words(),
                      "decode: streamed cache codes differ from a one-shot "
                      "pack at the cache's scales");
            }
        }
    }


    const Config &c_;
    const Model &m_;
    bool traced_;
    double scale_;
    KVCacheConfig kv_;
};

struct Totals
{
    std::vector<std::vector<double>> ttft; //!< per session of a round
    std::vector<double> token;
    double wallMs = 0.0; //!< summed wall time of the rounds
    double kvBytes = 0.0;
    uint64_t tokens = 0, sessions = 0, appended = 0, repacked = 0;

    void
    add(size_t index, const Session &s)
    {
        if (ttft.size() <= index) ttft.resize(index + 1);
        ttft[index].push_back(s.ttftMs);
        token.insert(token.end(), s.tokenMs.begin(), s.tokenMs.end());
        tokens += s.tokens;
        ++sessions;
        appended += s.appended;
        repacked += s.repacked;
        kvBytes = std::max(kvBytes, s.kvBytes);
    }
};

/** One round: every session once, @p workers sessions at a time. */
std::vector<Session>
runRound(Decoder &dec, const Model &m, int workers, bool checked)
{
    std::vector<Session> done(m.sessions.size());
    forEachConcurrent(static_cast<int64_t>(m.sessions.size()), workers,
                      [&](int64_t i) {
        done[static_cast<size_t>(i)] =
            dec.run(m.sessions[static_cast<size_t>(i)], static_cast<int>(i),
                    checked);
    });
    return done;
}

/** Whole unchecked rounds until @p seconds have passed (at least one);
 *  each session must reproduce the checked round's digest. */
void
runRounds(Decoder &dec, const Model &m, int workers, double seconds,
          const std::vector<Session> &checked, Totals &t)
{
    const Clock::time_point t0 = Clock::now();
    do {
        const Clock::time_point r0 = Clock::now();
        const std::vector<Session> done = runRound(dec, m, workers, false);
        t.wallMs += msSince(r0);
        for (size_t i = 0; i < done.size(); ++i) {
            check(done[i].digest == checked[i].digest,
                  "decode: session " + std::to_string(i) +
                      " differs from the checked round");
            t.add(i, done[i]);
        }
    } while (msSince(t0) < seconds * 1e3);
}

} // namespace

void
runDecode(const Args &a, Report &report)
{
    const Config c = configFor(a);
    SetupTimer setup;
    Model m;
    for (int i = 0; i < kSetups; ++i) {
        m = Model{};
        setup.start();
        m = buildModel(c, a.seed, a.workers);
        setup.stop();
    }
    const uint64_t unpack0 = QTensor::unpackCalls();
    Decoder plain(c, m, false);
    // Warm-up and full checks, not measured.
    const std::vector<Session> checked = runRound(plain, m, a.workers, true);
    double maxErr = 0.0;
    for (const Session &s : checked) maxErr = std::max(maxErr, s.maxErr);
    const uint64_t checkedTokens =
        static_cast<uint64_t>(c.genTokens) * checked.size();
    Totals p;
    RssSampler sampler;
    runRounds(plain, m, a.workers, a.trace ? a.seconds / 2 : a.seconds,
              checked, p);
    const double rss = sampler.stop();
    note("decode: " + std::to_string(p.sessions) + " sessions, " +
         std::to_string(p.tokens) + " tokens, " +
         std::to_string(a.workers) + " at a time; max context error " +
         fmt(maxErr) + " (checked round)");

    if (!a.trace) {
        check(QTensor::unpackCalls() == unpack0,
              "decode: the decode path unpacked a QTensor");
        report.attempted = checkedTokens + p.tokens;
        report.failed = 0;
        report.set("setup_s", setup.medianSeconds(), "s");
        report.set("peak_rss_mb", rss, "MB");
        report.set("p50_ms", median(p.token), "ms");
        report.set("tail_ms", percentile(p.token, 90), "ms");
        report.set("throughput_per_s",
                   static_cast<double>(p.tokens) / (p.wallMs / 1e3), "1/s");
        // Each session's median over the rounds first: the sessions'
        // times differ with their prompt lengths, and a median over all
        // of them at once jumps between the two middle sessions.
        std::vector<double> ttft;
        for (const std::vector<double> &v : p.ttft) ttft.push_back(median(v));
        report.set("first_result_ms", median(ttft), "ms");
        report.set("stored_mb",
                   (m.weightBytes + p.kvBytes) / (1 << 20), "MB");
        return;
    }

    Decoder traced(c, m, true);
    Totals t;
    Tracer::get().clear();
    Tracer::get().setEnabled(true);
    runRounds(traced, m, a.workers, a.seconds / 2, checked, t);
    Tracer::get().setEnabled(false);
    check(QTensor::unpackCalls() == unpack0,
          "decode: the decode path unpacked a QTensor");
    report.attempted = checkedTokens + p.tokens + t.tokens;
    report.failed = 0;
    const Tracer &tr = Tracer::get();
    const double tokens = static_cast<double>(t.tokens);
    report.set("kv_cache.append_ms", tr.busyMs("kv_cache.append") / tokens,
               "ms/token");
    report.set("kv_cache.appended_rows",
               static_cast<double>(t.appended), "count");
    report.set("kv_cache.repacked_rows",
               static_cast<double>(t.repacked), "count");
    report.set("kv_cache.snapshot_ms",
               tr.busyMs("kv_cache.snapshot") / tokens, "ms/token");
    report.set("decode.attend_ms", tr.busyMs("decode.attend") / tokens,
               "ms/token");
    report.set("packed_gemm.gemv_ms",
               tr.busyMs("packed_gemm.gemv") / tokens, "ms/token");
    report.set("qtensor.unpack_calls",
               static_cast<double>(QTensor::unpackCalls() - unpack0),
               "count");
    report.set("trace.overhead_pct",
               (median(t.token) / median(p.token) - 1.0) * 100.0, "%");
    dumpTrace(a.traceDir, "decode");
}

} // namespace perfbench
