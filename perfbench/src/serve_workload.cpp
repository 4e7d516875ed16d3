/**
 * @file
 * The `serve` workload: single-query requests into serve::Server for
 * two GPT-2-block-shaped (d_model 768) packed models, both reached
 * through a ModelRegistry whose loader calls serve::loadServable:
 *
 *  - "int4-g128": int4 per-group (g=128), one monolithic artifact;
 *  - "ant-channel": ANT-selected types per channel (int4/flint4/pot4,
 *    per-group scales), one sharded manifest.
 *
 * Phase 1 is open loop: Poisson arrivals at a fixed rate, split
 * unevenly between the models, each request timed from its scheduled
 * send time. Phase 2 is closed loop with a fixed number of requests
 * outstanding, giving the saturated rate. Phase 3 measures cold
 * starts: evict everything, then time one request to its answer.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <malloc.h>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/artifact.h"
#include "core/packed_gemm.h"
#include "core/qtensor.h"
#include "core/type_registry.h"
#include "core/type_selector.h"
#include "reference.h"
#include "serve/registry.h"
#include "serve/servable.h"
#include "serve/server.h"
#include "tensor/random.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ant;
using serve::ModelKey;

constexpr int kSetups = 3;
/**
 * Open-loop arrival rate, requests per second over both models. A
 * constant of the workload, never derived from measured speed. Its
 * basis is a target load on the reference 4-CPU host: one batch-1
 * forward takes about 25 ms, so 4 workers answering one request at a
 * time top out near 150 requests/s, while full batches of 8 carry about
 * 550/s. At 150/s the server has to batch to keep up (batches of 1-4),
 * runs at about a quarter of its full-batch capacity, and stays
 * unsaturated even if a change made the forward 3x slower.
 */
constexpr double kRate = 150.0;
/** Share of the traffic sent to model 0: an uneven split that still
 *  leaves model 1 about 45 requests/s, some 675 per measured window. */
constexpr double kShareModel0 = 0.7;
/** Closed-loop requests in flight: one full batch per worker. */
constexpr int kOutstanding = 32;
constexpr int kPool = 64;         //!< distinct queries per model
constexpr int kColdStarts = 40; //!< restarts timed
constexpr double kOpenShare = 0.75; //!< of the window; the rest closed
constexpr int64_t kGroupSize = 128;
/** Answer vs double-precision forward: max abs error over max |ref|. */
constexpr double kTolerance = 1e-4;

const char *const kModelNames[2] = {"int4-g128", "ant-channel"};

/** One GPT-2 block as a chainable stack: q, o, ffn1, ffn2. */
workloads::Workload
blockStack(int64_t d, int64_t ff)
{
    workloads::Workload w;
    w.name = "gpt2-block-d" + std::to_string(d);
    w.isTransformer = true;
    const struct
    {
        const char *name;
        int64_t k, n;
    } L[] = {{"blk0.q", d, d}, {"blk0.o", d, d},
             {"blk0.ffn1", d, ff}, {"blk0.ffn2", ff, d}};
    for (const auto &l : L) {
        workloads::Layer x;
        x.name = l.name;
        x.kind = workloads::LayerKind::Fc;
        x.m = 1;
        x.k = l.k;
        x.n = l.n;
        w.layers.push_back(x);
    }
    return w;
}

/** One layer of model 1: per-channel ANT type selection over
 *  per-group scales. */
void
antLayer(const workloads::Layer &l, size_t index, uint64_t seed,
         WeightBlob &blob, LayerRecipe &lr)
{
    const std::vector<TypePtr> cands = {parseType("int4"),
                                        parseType("flint4"),
                                        parseType("pot4")};
    QuantConfig cfg;
    cfg.granularity = Granularity::PerGroup;
    cfg.groupSize = kGroupSize;
    Rng rng(seed * 0x2545F4914F6CDD1Dull + index);
    const Tensor weight = rng.tensor(Shape{l.n, l.k}, l.weightDist);
    const GroupTypeSelection sel =
        selectTypePerGroup(weight, cands, cfg, GroupTypeMode::PerChannel);
    blob.layer = l.name;
    blob.tensor = QTensor::pack(weight, sel.types.front(),
                                Granularity::PerGroup, sel.scales,
                                sel.groupSize, sel.types);
    lr.layer = l.name;
    lr.weight.enabled = true;
    lr.weight.typeSpec = sel.types.front()->spec();
    lr.weight.bits = 4;
    lr.weight.granularity = Granularity::PerGroup;
    lr.weight.scales = sel.scales;
    lr.weight.groupSize = sel.groupSize;
    for (const TypePtr &t : sel.types)
        lr.weight.groupSpecs.push_back(t->spec());
}

/** Per-batch counters of the Servable wrapper. */
struct ForwardStats
{
    std::atomic<uint64_t> batches{0}, rows{0}, ns{0};
};

/** Wraps a loaded model: counts and (when tracing) spans each batch. */
class CountingServable final : public serve::Servable
{
  public:
    CountingServable(std::shared_ptr<const serve::Servable> inner,
                     ForwardStats *stats)
        : inner_(std::move(inner)), stats_(stats)
    {
    }
    const std::string &name() const override { return inner_->name(); }
    int64_t inputDim() const override { return inner_->inputDim(); }
    int64_t outputDim() const override { return inner_->outputDim(); }
    size_t nbytes() const override { return inner_->nbytes(); }
    Tensor
    forward(const Tensor &batch) const override
    {
        ScopedSpan s("servable.forward");
        const Clock::time_point t0 = Clock::now();
        Tensor out = inner_->forward(batch);
        stats_->ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        stats_->rows += static_cast<uint64_t>(batch.dim(0));
        ++stats_->batches;
        return out;
    }

  private:
    std::shared_ptr<const serve::Servable> inner_;
    ForwardStats *stats_;
};

/** One request: which model and pooled query, and its timestamps. */
struct Request
{
    int model = 0;
    int query = 0;
    Clock::time_point sched, sent, done;
    bool ok = false;
};

/**
 * The first answer to each pooled query, which the checks compare with
 * the reference, and a count of later answers that differ from it bit
 * for bit. Answers are not kept per request, so memory does not grow
 * with the number of requests served.
 */
class AnswerBook
{
  public:
    AnswerBook()
    {
        for (int m = 0; m < 2; ++m) {
            first_[m].resize(kPool);
            seen_[m].assign(kPool, false);
        }
    }

    void
    record(const Request &r, const Tensor &answer)
    {
        std::lock_guard<std::mutex> lock(mu_);
        const size_t q = static_cast<size_t>(r.query);
        if (!seen_[r.model][q]) {
            first_[r.model][q] = answer;
            seen_[r.model][q] = true;
            return;
        }
        const Tensor &f = first_[r.model][q];
        if (f.numel() != answer.numel() ||
            std::memcmp(f.data(), answer.data(),
                        sizeof(float) * static_cast<size_t>(f.numel())) != 0)
            ++mismatches_;
    }

    /** The first answer to @p query of model @p m, or null. */
    const Tensor *
    first(int m, int query) const
    {
        const size_t q = static_cast<size_t>(query);
        return seen_[m][q] ? &first_[m][q] : nullptr;
    }

    uint64_t mismatches() const { return mismatches_; }

  private:
    std::mutex mu_;
    std::vector<Tensor> first_[2];
    std::vector<bool> seen_[2];
    uint64_t mismatches_ = 0;
};

/** Everything one set-up builds: artifacts, registry, server. */
struct Deployment
{
    std::string paths[2];
    std::vector<std::string> files; //!< every file written
    ModelArtifact arts[2];          //!< the in-memory originals
    double storedBytes = 0.0;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::Server> server;
    std::mutex loadMu;
    std::vector<double> loadMs;

    ~Deployment()
    {
        server.reset();
        registry.reset();
        for (const std::string &f : files) {
            std::error_code ec;
            std::filesystem::remove(f, ec);
        }
    }
};

std::unique_ptr<Deployment>
deploy(const Args &a, const workloads::Workload &w, ForwardStats *stats,
       const std::vector<Tensor> (&pool)[2], int index)
{
    auto d = std::make_unique<Deployment>();
    const std::string stem =
        a.workDir + "/serve" + std::to_string(index);
    serve::StackSpec spec;
    spec.typeSpec = "int4";
    spec.granularity = Granularity::PerGroup;
    spec.groupSize = kGroupSize;
    spec.seed = a.seed;
    // Model 0 whole on one worker, model 1 a layer per worker.
    std::vector<WeightBlob> blobs(w.layers.size());
    std::vector<LayerRecipe> recipes(w.layers.size());
    forEachConcurrent(
        static_cast<int64_t>(w.layers.size()) + 1, a.workers,
        [&](int64_t i) {
            if (i == 0) {
                d->arts[0] = serve::buildWorkloadArtifact(w, spec);
                return;
            }
            const size_t l = static_cast<size_t>(i - 1);
            antLayer(w.layers[l], l, a.seed, blobs[l], recipes[l]);
        });
    d->arts[1].recipe.model = w.name + "-ant";
    d->arts[1].recipe.layers = std::move(recipes);
    d->arts[1].weights = std::move(blobs);
    d->paths[0] = stem + ".int4.antq";
    d->arts[0].saveFile(d->paths[0]);
    d->files.push_back(d->paths[0]);
    d->paths[1] = stem + ".ant.antm";
    const ShardedManifest man = saveSharded(d->arts[1], d->paths[1]);
    d->files.push_back(d->paths[1]);
    const std::string dir =
        std::filesystem::path(d->paths[1]).parent_path().string();
    for (const ManifestShard &s : man.shards)
        d->files.push_back(dir + "/" + s.file);
    for (const std::string &f : d->files)
        d->storedBytes +=
            static_cast<double>(std::filesystem::file_size(f));

    Deployment *raw = d.get();
    d->registry = std::make_unique<serve::ModelRegistry>(
        [raw, stats](const ModelKey &k)
            -> std::shared_ptr<const serve::Servable> {
            ScopedSpan s("registry.load");
            const Clock::time_point t0 = Clock::now();
            const int m = k.name == kModelNames[0] ? 0 : 1;
            auto model = std::make_shared<CountingServable>(
                serve::loadServable(k.name, raw->paths[m]), stats);
            std::lock_guard<std::mutex> lock(raw->loadMu);
            raw->loadMs.push_back(msSince(t0));
            return model;
        });
    // One forward worker per CPU: each forward runs on its worker alone
    // (the parallelFor pool has one thread), so requests run in parallel.
    serve::ServerConfig cfg;
    cfg.workers = a.workers;
    cfg.maxBatch = 8;
    cfg.maxDelayUs = 1000;
    d->server = std::make_unique<serve::Server>(*d->registry, cfg);
    // Warm: load both models and answer one query each.
    for (int m = 0; m < 2; ++m)
        d->server->submit(ModelKey{kModelNames[m]}, pool[m][0]).get();
    return d;
}

/**
 * Stamps each request's answer time: a fixed set of threads, each
 * blocked on one in-flight request's future, so a request is stamped
 * the moment its answer is set, whatever the completion order, as long
 * as no more than kWaiters requests are in flight. The answer then goes
 * to the AnswerBook.
 */
class Waiters
{
  public:
    explicit Waiters(AnswerBook &book) : book_(book)
    {
        for (int i = 0; i < kWaiters; ++i)
            threads_.emplace_back([this] { loop(); });
    }
    ~Waiters()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        workCv_.notify_all();
        for (std::thread &t : threads_) t.join();
    }
    Waiters(const Waiters &) = delete;
    Waiters &operator=(const Waiters &) = delete;

    void
    add(Request *r, std::future<Tensor> f)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.emplace_back(r, std::move(f));
            ++pending_;
        }
        workCv_.notify_one();
    }

    /** Block until more than @p seen requests have completed; returns
     *  the completed count. */
    size_t
    waitBeyond(size_t seen)
    {
        std::unique_lock<std::mutex> lock(mu_);
        doneCv_.wait(lock, [&] { return completed_ > seen || pending_ == 0; });
        return completed_;
    }

    /** Requests completed so far. */
    size_t
    completed()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return completed_;
    }

    /** Block until every added request has completed. */
    void
    waitIdle()
    {
        std::unique_lock<std::mutex> lock(mu_);
        doneCv_.wait(lock, [&] { return pending_ == 0; });
    }

  private:
    static constexpr int kWaiters = 32;

    void
    loop()
    {
        for (;;) {
            std::pair<Request *, std::future<Tensor>> item;
            {
                std::unique_lock<std::mutex> lock(mu_);
                workCv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
                if (queue_.empty()) return;
                item = std::move(queue_.front());
                queue_.pop_front();
            }
            Request &r = *item.first;
            item.second.wait();
            r.done = Clock::now();
            try {
                book_.record(r, item.second.get());
                r.ok = true;
            } catch (const std::exception &) {
                r.ok = false;
            }
            {
                std::lock_guard<std::mutex> lock(mu_);
                --pending_;
                ++completed_;
            }
            doneCv_.notify_all();
        }
    }

    AnswerBook &book_;
    std::mutex mu_;
    std::condition_variable workCv_, doneCv_;
    std::deque<std::pair<Request *, std::future<Tensor>>> queue_;
    size_t pending_ = 0, completed_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

/** Poisson schedule of @p seconds at kRate with the uneven split. */
std::vector<Request>
openLoopSchedule(std::mt19937_64 &eng, double seconds)
{
    std::exponential_distribution<double> gap(kRate);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<int> q(0, kPool - 1);
    std::vector<Request> reqs;
    const Clock::time_point base{};
    double t = 0.0;
    while ((t += gap(eng)) < seconds) {
        Request r;
        r.model = u(eng) < kShareModel0 ? 0 : 1;
        r.query = q(eng);
        r.sched = base + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(t));
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/** Run an open-loop schedule; scheduled times are rebased to now. */
void
runOpenLoop(serve::Server &server, const std::vector<Tensor> (&pool)[2],
            Waiters &waiters, std::vector<Request> &reqs)
{
    const Clock::time_point start = Clock::now();
    for (Request &r : reqs) {
        r.sched = start + (r.sched - Clock::time_point{});
        std::this_thread::sleep_until(r.sched);
        r.sent = Clock::now();
        waiters.add(&r, server.submit(ModelKey{kModelNames[r.model]},
                                      pool[r.model][static_cast<size_t>(
                                          r.query)]));
    }
    waiters.waitIdle();
}

/** Length of the open-loop windows whose percentiles are reported. */
constexpr double kWindowSec = 1.0;

/**
 * The @p q-th latency percentile of each kWindowSec window of scheduled
 * send times, then the median over the windows. A burst of host load
 * that slows a few windows moves it less than one percentile over the
 * whole loop would move.
 */
double
windowedPercentile(const std::vector<Request> &reqs, double q)
{
    std::map<int64_t, std::vector<double>> byWindow;
    for (const Request &r : reqs)
        if (r.ok)
            byWindow[static_cast<int64_t>(
                         msBetween(reqs.front().sched, r.sched) /
                         (kWindowSec * 1e3))]
                .push_back(msBetween(r.sched, r.done));
    std::vector<double> perWindow;
    for (const auto &w : byWindow)
        perWindow.push_back(percentile(w.second, q));
    return median(perWindow);
}

/** Closed loop: kOutstanding in flight for @p seconds; returns the
 *  completions per second inside the window. */
double
runClosedLoop(serve::Server &server, const std::vector<Tensor> (&pool)[2],
              Waiters &waiters, std::mt19937_64 &eng, double seconds,
              std::deque<Request> &reqs)
{
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<int> q(0, kPool - 1);
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    auto submitOne = [&] {
        reqs.emplace_back();
        Request &r = reqs.back();
        r.model = u(eng) < kShareModel0 ? 0 : 1;
        r.query = q(eng);
        r.sched = r.sent = Clock::now();
        waiters.add(&r, server.submit(ModelKey{kModelNames[r.model]},
                                      pool[r.model][static_cast<size_t>(
                                          r.query)]));
    };
    // The count carries the earlier phases' completions: start from it.
    size_t seen = waiters.completed(), inWindow = 0;
    for (int i = 0; i < kOutstanding; ++i) submitOne();
    while (Clock::now() < end) {
        const size_t now = waiters.waitBeyond(seen);
        if (Clock::now() >= end) break;
        for (; seen < now; ++seen, ++inWindow) submitOne();
    }
    waiters.waitIdle();
    return static_cast<double>(inWindow) / seconds;
}

/** Double-precision forward of every pooled query of one model, one
 *  dequantized layer at a time. */
std::vector<std::vector<double>>
referenceAnswers(const ModelArtifact &art, const std::vector<Tensor> &pool,
                 int workers)
{
    const int64_t P = static_cast<int64_t>(pool.size());
    int64_t k = pool.front().numel();
    std::vector<double> x(static_cast<size_t>(P * k));
    for (int64_t i = 0; i < P; ++i)
        for (int64_t j = 0; j < k; ++j)
            x[static_cast<size_t>(i * k + j)] = pool[static_cast<size_t>(i)][j];
    for (size_t l = 0; l < art.weights.size(); ++l) {
        const QTensor &q = art.weights[l].tensor;
        const int64_t n = q.shape().dim(0);
        const std::vector<double> w = ref::dequantize(q);
        std::vector<double> y(static_cast<size_t>(P * n));
        forEachConcurrent(P, workers, [&](int64_t i) {
            ref::gemmBT(x.data() + i * k, 1, k, w.data(), n,
                        y.data() + i * n);
        });
        if (l + 1 < art.weights.size())
            for (double &v : y) v = ref::gelu(v);
        x = std::move(y);
        k = n;
    }
    std::vector<std::vector<double>> out(static_cast<size_t>(P));
    for (int64_t i = 0; i < P; ++i)
        out[static_cast<size_t>(i)].assign(x.begin() + i * k,
                                           x.begin() + (i + 1) * k);
    return out;
}

/** The first answer to every query against the reference; every
 *  later answer was equal to it bit for bit. */
void
checkAnswers(const AnswerBook &book, Deployment &d,
             const std::vector<Tensor> (&pool)[2], int workers)
{
    check(book.mismatches() == 0,
          "serve: " + std::to_string(book.mismatches()) +
              " answers differ from an earlier answer to the same query");
    for (int m = 0; m < 2; ++m) {
        const auto refs = referenceAnswers(d.arts[m], pool[m], workers);
        for (int q = 0; q < kPool; ++q) {
            const Tensor *got = book.first(m, q);
            if (!got) continue;
            const std::vector<double> &want = refs[static_cast<size_t>(q)];
            check(got->numel() == static_cast<int64_t>(want.size()),
                  "serve: answer has the wrong width");
            const double err =
                ref::maxRelErr(got->data(), want.data(), got->numel());
            check(err <= kTolerance,
                  std::string("serve/") + kModelNames[m] + ": answer to " +
                      "query " + std::to_string(q) +
                      " off the double-precision forward by " + fmt(err));
        }
    }
}

} // namespace

void
runServe(const Args &a, Report &report)
{
    // glibc's default mmap threshold, fixed. Left dynamic, it grows
    // after set-up frees large blocks, later large blocks then stay in
    // per-thread heaps that malloc_trim does not shrink, and the
    // resident baseline varied from 31 to 58 MB between runs.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const int64_t d = a.quick ? 128 : 768;
    const workloads::Workload w = blockStack(d, 4 * d);
    std::vector<Tensor> pool[2];
    {
        Rng rng(a.seed * 0x94D049BB133111EBull + 5);
        for (int m = 0; m < 2; ++m)
            for (int i = 0; i < kPool; ++i)
                pool[m].push_back(
                    rng.tensor(Shape{d}, DistFamily::Gaussian));
    }
    ForwardStats stats;
    SetupTimer setup;
    std::unique_ptr<Deployment> dep;
    for (int i = 0; i < kSetups; ++i) {
        dep.reset();
        setup.start();
        dep = deploy(a, w, &stats, pool, i);
        setup.stop();
    }
    RssSampler sampler;
    AnswerBook book;
    Waiters waiters(book);
    serve::Server &server = *dep->server;
    serve::ModelRegistry &registry = *dep->registry;
    const uint64_t unpack0 = QTensor::unpackCalls();
    std::mt19937_64 eng(a.seed * 0xBF58476D1CE4E5B9ull + 11);

    const double openSec = a.seconds * kOpenShare;
    const double closedSec = a.seconds - openSec;
    std::vector<Request> plain, traced;
    plain = openLoopSchedule(eng, a.trace ? openSec / 2 : openSec);
    runOpenLoop(server, pool, waiters, plain);
    server.drain();

    // Traced pass: the second half of the open loop, with counters.
    const ForwardStats &st = stats;
    uint64_t b0 = 0, r0 = 0, n0 = 0;
    PackedGemmStats g0{};
    serve::RegistryStats reg0{};
    if (a.trace) {
        Tracer::get().clear();
        Tracer::get().setEnabled(true);
        b0 = st.batches;
        r0 = st.rows;
        n0 = st.ns;
        g0 = packedGemmStats();
        reg0 = registry.stats();
        traced = openLoopSchedule(eng, openSec / 2);
        runOpenLoop(server, pool, waiters, traced);
        server.drain();
    }
    const uint64_t batches = st.batches - b0, rows = st.rows - r0;
    const double fwdMs = static_cast<double>(st.ns - n0) / 1e6;
    const PackedGemmStats g1 = packedGemmStats();

    std::deque<Request> closed;
    const uint64_t cb0 = st.batches, cr0 = st.rows;
    const double saturated =
        runClosedLoop(server, pool, waiters, eng, closedSec, closed);
    server.drain();
    const double closedBatch = static_cast<double>(st.rows - cr0) /
                               static_cast<double>(st.batches - cb0);

    // Steady-state serving ends here; restarts below add loader garbage.
    const double rss = sampler.stop();

    // Cold starts: evict both models, then one query to each; the time
    // until both are answered is one restart's time to first results.
    std::vector<Request> cold(2 * kColdStarts);
    std::vector<double> coldMs;
    const size_t loads0 = dep->loadMs.size();
    for (int i = 0; i < kColdStarts; ++i) {
        registry.evictAll();
        const Clock::time_point t0 = Clock::now();
        for (int m = 0; m < 2; ++m) {
            Request &r = cold[static_cast<size_t>(2 * i + m)];
            r.model = m;
            r.query = i % kPool;
            r.sched = r.sent = t0;
            waiters.add(&r, server.submit(ModelKey{kModelNames[m]},
                                          pool[m][static_cast<size_t>(
                                              r.query)]));
        }
        waiters.waitIdle();
        coldMs.push_back(
            msBetween(t0, std::max(cold[static_cast<size_t>(2 * i)].done,
                                   cold[static_cast<size_t>(2 * i + 1)].done)));
        // A worker holds its model's lease until just after answering,
        // and evictAll keeps leased models: wait for the workers first.
        server.drain();
    }
    check(dep->loadMs.size() - loads0 == static_cast<size_t>(2 * kColdStarts),
          "serve: a restart did not reload both models");

    // Asked again alone, a sampled query answers bit for bit the same.
    std::vector<Request *> all;
    for (auto *v : {&plain, &traced, &cold})
        for (Request &r : *v) all.push_back(&r);
    for (Request &r : closed) all.push_back(&r);
    const Request *sample = all[static_cast<size_t>(eng() % all.size())];
    if (const Tensor *before = book.first(sample->model, sample->query)) {
        const Tensor again =
            server
                .submit(ModelKey{kModelNames[sample->model]},
                        pool[sample->model][static_cast<size_t>(
                            sample->query)])
                .get();
        check(std::memcmp(again.data(), before->data(),
                          sizeof(float) * static_cast<size_t>(
                              again.numel())) == 0,
              "serve: a query asked again alone answered differently");
    }
    check(QTensor::unpackCalls() == unpack0,
          "serve: a packed model materialized float weights");
    checkAnswers(book, *dep, pool, a.workers);

    uint64_t failed = 0;
    for (const Request *r : all) failed += r->ok ? 0 : 1;
    report.attempted = all.size();
    report.failed = failed;

    auto latencies = [](const std::vector<Request> &v) {
        std::vector<double> ms;
        for (const Request &r : v)
            if (r.ok) ms.push_back(msBetween(r.sched, r.done));
        return ms;
    };
    auto lateness = [](const std::vector<Request> &v) {
        std::vector<double> ms;
        for (const Request &r : v) ms.push_back(msBetween(r.sched, r.sent));
        return ms;
    };
    const std::vector<double> lat = latencies(plain);
    auto phase = [](const char *name, const auto &v) {
        size_t ok = 0;
        for (const Request &r : v) ok += r.ok ? 1 : 0;
        return std::string(name) + " " + std::to_string(v.size()) +
               " sent, " + std::to_string(ok) + " ok, " +
               std::to_string(v.size() - ok) + " failed";
    };
    note("serve: " + phase("open loop", plain) + " at " + fmt(kRate) +
         "/s; latency p50 " + fmt(median(lat)) + ", p90 " +
         fmt(percentile(lat, 90)) + ", p99 " + fmt(percentile(lat, 99)) +
         " ms, median of 1 s windows' p50 " +
         fmt(windowedPercentile(plain, 50)) + ", p90 " +
         fmt(windowedPercentile(plain, 90)) +
         " ms; generator late p99 " +
         fmt(percentile(lateness(plain), 99)) + " ms");
    note("serve: " + phase("closed loop", closed) + ", " +
         fmt(saturated) + "/s in the window, mean batch " +
         fmt(closedBatch) + "; " + phase("cold start", cold) +
         ", restart median " + fmt(median(coldMs)) + " ms");

    if (!a.trace) {
        report.set("setup_s", setup.medianSeconds(), "s");
        report.set("peak_rss_mb", rss, "MB");
        report.set("p50_ms", windowedPercentile(plain, 50), "ms");
        // p90, not p99: a window's p99 rests on one or two requests,
        // and across runs on a shared 4-CPU host the p99 of the whole
        // loop spread more than the p90.
        report.set("tail_ms", windowedPercentile(plain, 90), "ms");
        report.set("throughput_per_s", saturated, "1/s");
        report.set("first_result_ms", median(coldMs), "ms");
        report.set("stored_mb", dep->storedBytes / (1 << 20), "MB");
        return;
    }
    Tracer::get().setEnabled(false);
    const std::vector<double> tl = latencies(traced);
    for (size_t i = 0; i < traced.size(); ++i)
        Tracer::get().record("serve.request", traced[i].sched,
                             traced[i].done, i);
    const double n = static_cast<double>(traced.size());
    double latSum = 0.0;
    for (double v : tl) latSum += v;
    // Mean over requests of (latency - its batch's forward time): a
    // batch of B rows contributes its forward time B times, so the sum
    // over requests is rows * (mean forward time per batch).
    const double weightedFwd =
        batches ? fwdMs / static_cast<double>(batches) *
                      static_cast<double>(rows)
                : 0.0;
    const serve::RegistryStats reg1 = registry.stats();
    std::vector<double> loadMs(dep->loadMs.begin() +
                                   static_cast<std::ptrdiff_t>(loads0),
                               dep->loadMs.end());
    report.set("servable.forward_ms",
               batches ? fwdMs / static_cast<double>(batches) : 0.0,
               "ms/batch");
    report.set("servable.mean_batch",
               batches ? static_cast<double>(rows) /
                             static_cast<double>(batches)
                       : 0.0,
               "rows/batch");
    report.set("servable.batches", static_cast<double>(batches), "count");
    report.set("server.wait_ms", (latSum - weightedFwd) / n, "ms/request");
    report.set("registry.load_ms", mean(loadMs), "ms/load");
    report.set("registry.hits", static_cast<double>(reg1.hits - reg0.hits),
               "count");
    report.set("registry.misses",
               static_cast<double>(reg1.misses - reg0.misses), "count");
    report.set("packed_gemm.calls",
               static_cast<double>(g1.fpGemmCalls - g0.fpGemmCalls) / n,
               "count/request");
    report.set("packed_gemm.rows_decoded",
               static_cast<double>(g1.rowsDecoded - g0.rowsDecoded) / n,
               "count/request");
    report.set("generator.late_ms", percentile(lateness(traced), 99), "ms");
    report.set("qtensor.unpack_calls",
               static_cast<double>(QTensor::unpackCalls() - unpack0),
               "count");
    report.set("trace.overhead_pct",
               (median(tl) / median(lat) - 1.0) * 100.0, "%");
    dumpTrace(a.traceDir, "serve");
}

} // namespace perfbench
