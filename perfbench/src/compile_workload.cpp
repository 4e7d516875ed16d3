/**
 * @file
 * The `compile` workload: offline quantization of a model roster, the
 * paper's toolflow. Per round, every layer of every model goes through
 * Algorithm 2 (per-channel for ResNet-50, per-group g=128 for the
 * GPT-2-small-shaped blocks), its activation batches stream through a
 * calibration observer, and its weight is packed into a QTensor with
 * the chosen types. Each model is then written as a ModelArtifact,
 * mapped back, and priced on the ANT-OS and BitFusion simulators.
 */

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/calibrator.h"
#include "core/qtensor.h"
#include "core/type_registry.h"
#include "core/type_selector.h"
#include "reference.h"
#include "sim/accelerator.h"
#include "sim/planner.h"
#include "tensor/random.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

using namespace ant;

constexpr int64_t kGroupSize = 128;
constexpr int kActBatches = 4;
constexpr int64_t kActRows = 16;
constexpr int kSetups = 3;
constexpr double kSnrTarget = 25.0;

struct LayerInput
{
    workloads::Layer layer;
    Tensor weight;            //!< [n, k], channel-major
    std::vector<Tensor> acts; //!< kActBatches batches of [rows, k]
    bool actSigned = true;
};

struct ModelInput
{
    workloads::Workload w;
    bool perGroup = false; //!< per-group (GPT-2) or per-channel (CNN)
    std::vector<LayerInput> layers;
};

/** Algorithm 2 candidates. float4 shares pot4's grid (pinned as
 *  distinct types by the registry), so it can only win a tie against
 *  it; the per-group selection, which runs once per 128 elements,
 *  leaves it out. */
std::vector<TypePtr>
candidates(bool is_signed, bool per_group = false)
{
    const char *u = is_signed ? "" : "u";
    std::vector<TypePtr> c = {parseType(std::string("int4") + u),
                              parseType(std::string("flint4") + u),
                              parseType(std::string("pot4") + u)};
    if (!per_group) c.push_back(parseType(std::string("float4") + u));
    return c;
}

bool
isUnsignedDist(DistFamily f)
{
    return f == DistFamily::HalfGaussian || f == DistFamily::HalfLaplace;
}

/** The roster's inputs: weights and activation batches from @p seed.
 *  Every layer draws from its own generator, so the inputs are the same
 *  whatever the thread count. */
std::vector<ModelInput>
makeRoster(const Args &a)
{
    std::vector<ModelInput> roster;
    if (a.quick) {
        // The stem and first stage of ResNet-18, and one narrow block.
        workloads::Workload cnn = workloads::resnet18(32, 10);
        cnn.layers.resize(5);
        roster.push_back({cnn, false, {}});
        roster.push_back({workloads::gpt2Small(1, 256, 64, 0), true, {}});
    } else {
        roster.push_back({workloads::resnet50(), false, {}});
        roster.push_back({workloads::gpt2Small(1, 768, 1024, 0), true, {}});
    }
    std::vector<LayerInput *> all;
    for (ModelInput &m : roster) {
        m.layers.resize(m.w.layers.size());
        for (size_t i = 0; i < m.layers.size(); ++i) {
            m.layers[i].layer = m.w.layers[i];
            all.push_back(&m.layers[i]);
        }
    }
    forEachConcurrent(
        static_cast<int64_t>(all.size()), a.workers, [&](int64_t i) {
            LayerInput &li = *all[static_cast<size_t>(i)];
            const workloads::Layer &l = li.layer;
            Rng rng(a.seed * 0x9E3779B97F4A7C15ull +
                    static_cast<uint64_t>(i) * 0xD1B54A32D192ED03ull);
            li.weight = rng.tensor(Shape{l.n, l.k}, l.weightDist, 0.05f);
            li.actSigned = !isUnsignedDist(l.actDist);
            for (int j = 0; j < kActBatches; ++j)
                li.acts.push_back(
                    rng.tensor(Shape{kActRows, l.k}, l.actDist));
        });
    return roster;
}

/** One compiled layer plus what the checks need. */
struct CompiledLayer
{
    QTensor packed;
    double reportedMse = 0.0;
    std::vector<CandidateScore> scores; //!< per-channel selection only
    LayerRecipe recipe;
};

std::vector<std::string>
specsOf(const std::vector<TypePtr> &types)
{
    std::vector<std::string> s;
    s.reserve(types.size());
    for (const TypePtr &t : types) s.push_back(t->spec());
    return s;
}

QuantConfig
baseConfig(Granularity g)
{
    QuantConfig cfg;
    cfg.granularity = g;
    cfg.scaleMode = ScaleMode::MseSearch;
    cfg.groupSize = kGroupSize;
    return cfg;
}

/** Algorithm 2 on the weight, calibration of the activation, packing. */
CompiledLayer
compileLayer(const ModelInput &m, const LayerInput &li)
{
    CompiledLayer out;
    LayerRecipe &lr = out.recipe;
    lr.layer = li.layer.name;
    lr.weight.enabled = true;
    lr.weight.scaleMode = ScaleMode::MseSearch;
    const std::vector<TypePtr> wc = candidates(true, m.perGroup);
    if (!m.perGroup) {
        const QuantConfig cfg = baseConfig(Granularity::PerChannel);
        TypeSelection sel;
        {
            ScopedSpan s("type_selector");
            sel = selectType(li.weight, wc, cfg);
        }
        {
            ScopedSpan s("qtensor.pack");
            out.packed = QTensor::pack(li.weight, sel.type,
                                       sel.result.appliedGranularity,
                                       sel.result.scales);
        }
        out.reportedMse = sel.result.mse;
        out.scores = sel.scores;
        lr.weight.typeSpec = sel.type->spec();
        lr.weight.bits = sel.type->bits();
        lr.weight.granularity = sel.result.appliedGranularity;
        lr.weight.scales = sel.result.scales;
    } else {
        const QuantConfig cfg = baseConfig(Granularity::PerGroup);
        GroupTypeSelection sel;
        {
            ScopedSpan s("type_selector");
            sel = selectTypePerGroup(li.weight, wc, cfg,
                                     GroupTypeMode::PerGroup);
        }
        {
            ScopedSpan s("qtensor.pack");
            out.packed = QTensor::pack(li.weight, sel.types.front(),
                                       Granularity::PerGroup, sel.scales,
                                       sel.groupSize, sel.types);
        }
        out.reportedMse = sel.mse;
        lr.weight.typeSpec = sel.types.front()->spec();
        lr.weight.bits = sel.types.front()->bits();
        lr.weight.granularity = Granularity::PerGroup;
        lr.weight.scales = sel.scales;
        lr.weight.groupSize = sel.groupSize;
        lr.weight.groupSpecs = specsOf(sel.types);
    }

    ScopedSpan s("calibrator");
    ObserverConfig ocfg;
    ocfg.isSigned = li.actSigned;
    const std::vector<TypePtr> ac = candidates(li.actSigned, m.perGroup);
    lr.act.enabled = true;
    lr.act.scaleMode = ScaleMode::MseSearch;
    if (!m.perGroup) {
        Observer obs(ocfg);
        for (const Tensor &b : li.acts) obs.observe(b);
        const ObserverSelection os =
            obs.selectType(ac, baseConfig(Granularity::PerTensor));
        lr.act.typeSpec = os.type->spec();
        lr.act.bits = os.type->bits();
        lr.act.granularity = Granularity::PerTensor;
        lr.act.scales = {os.scale};
    } else {
        GroupObserver obs(kGroupSize, ocfg);
        for (const Tensor &b : li.acts) obs.observe(b);
        const GroupObserverSelection gs = obs.selectType(
            ac, baseConfig(Granularity::PerGroup), GroupTypeMode::PerGroup);
        lr.act.typeSpec = gs.types.front()->spec();
        lr.act.bits = gs.types.front()->bits();
        lr.act.granularity = Granularity::PerGroup;
        lr.act.scales = gs.scales;
        lr.act.groupSize = kGroupSize;
        lr.act.groupSpecs = specsOf(gs.types);
    }
    return out;
}

struct CompiledModel
{
    std::vector<CompiledLayer> layers;
    ModelArtifact mapped;
    std::string path;
    size_t fileBytes = 0;
    size_t jsonBytes = 0;
    sim::SimResult ant, bitfusion;
};

struct Round
{
    std::vector<CompiledModel> models;
    std::vector<double> layerMs;
    double totalMs = 0.0;
    uint64_t unpackCalls = 0; //!< QTensor::unpack calls while timed
};

Round
compileRound(const std::vector<ModelInput> &roster, const Args &a,
             int index)
{
    Round r;
    const uint64_t unpack0 = QTensor::unpackCalls();
    const Clock::time_point t0 = Clock::now();
    ScopedSpan round("compile.round", static_cast<uint64_t>(index));
    for (const ModelInput &m : roster) {
        CompiledModel cm;
        ModelArtifact art;
        art.recipe.model = m.w.name;
        // Layers compile concurrently, each on one worker.
        const size_t L = m.layers.size();
        cm.layers.resize(L);
        std::vector<double> ms(L);
        forEachConcurrent(static_cast<int64_t>(L), a.workers,
                          [&](int64_t i) {
            const size_t li = static_cast<size_t>(i);
            const Clock::time_point l0 = Clock::now();
            ScopedSpan s("compile.layer", li);
            cm.layers[li] = compileLayer(m, m.layers[li]);
            ms[li] = msSince(l0);
        });
        r.layerMs.insert(r.layerMs.end(), ms.begin(), ms.end());
        for (size_t li = 0; li < L; ++li) {
            art.recipe.layers.push_back(cm.layers[li].recipe);
            art.weights.push_back(
                WeightBlob{m.layers[li].layer.name, cm.layers[li].packed});
        }
        cm.path = a.workDir + "/" + m.w.name + ".r" +
                  std::to_string(index) + ".antq";
        {
            ScopedSpan s("artifact.save");
            art.saveFile(cm.path);
        }
        {
            ScopedSpan s("artifact.map");
            cm.mapped = ModelArtifact::mapFile(cm.path);
        }
        const int64_t gs = m.perGroup ? kGroupSize : 0;
        // The two designs are priced concurrently.
        const hw::Design designs[2] = {hw::Design::AntOS,
                                       hw::Design::BitFusion};
        sim::SimResult *results[2] = {&cm.ant, &cm.bitfusion};
        forEachConcurrent(2, a.workers, [&](int64_t i) {
            sim::QuantPlan plan;
            {
                ScopedSpan s("planner");
                plan = sim::planWorkload(m.w, designs[i], a.seed,
                                         kSnrTarget, gs);
            }
            ScopedSpan s("accelerator");
            *results[i] = sim::simulate(
                m.w, plan, sim::SimConfig::forDesign(designs[i]));
        });
        cm.fileBytes = std::filesystem::file_size(cm.path);
        cm.jsonBytes = art.recipe.toJson().size();
        r.models.push_back(std::move(cm));
    }
    r.totalMs = msSince(t0);
    r.unpackCalls = QTensor::unpackCalls() - unpack0;
    return r;
}

/** Bytes of one blob's fixed-size fields and strings in the artifact
 *  layout, excluding its scale and word arrays. */
size_t
blobHeaderBytes(const WeightBlob &b)
{
    const QTensor &q = b.tensor;
    size_t n = 8 + b.layer.size() + 8 + q.type()->spec().size() + 1 + 8 +
               8 + 8 * static_cast<size_t>(q.shape().ndim()) + 8 + 7 +
               8 + 8 + 7;
    for (const TypePtr &t : q.groupTypes()) n += 8 + t->spec().size();
    return n;
}

/** Every check of the `compile` workload, on one round. */
void
checkRound(const std::vector<ModelInput> &roster, const Round &r,
           const Args &a)
{
    check(r.unpackCalls == 0,
          "compile: QTensor::unpack ran inside the timed toolflow");
    for (size_t mi = 0; mi < roster.size(); ++mi) {
        const ModelInput &m = roster[mi];
        const CompiledModel &cm = r.models[mi];
        const std::string who = "compile/" + m.w.name;
        double lower = 0.0, extra = 7 + 1 + 4 + 8 + 8;
        extra += static_cast<double>(cm.jsonBytes);
        for (size_t li = 0; li < m.layers.size(); ++li) {
            const LayerInput &in = m.layers[li];
            const CompiledLayer &cl = cm.layers[li];
            const std::string lw = who + "/" + in.layer.name;
            const int64_t n = in.weight.numel();

            // Reported MSE against our own recomputation from the
            // unpacked codes.
            const Tensor deq = cl.packed.unpack();
            const double mse = ref::mse(in.weight.data(), deq.data(), n);
            check(std::fabs(mse - cl.reportedMse) <=
                      1e-6 * cl.reportedMse + 1e-15,
                  lw + ": recomputed MSE " + fmt(mse) +
                      " != reported " + fmt(cl.reportedMse));

            // The chosen type has the lowest MSE among the candidates.
            const int64_t rows = in.weight.dim(0);
            const int64_t chunk = n / rows;
            if (!m.perGroup) {
                double best = INFINITY;
                for (const CandidateScore &s : cl.scores)
                    best = std::min(best, s.mse);
                std::vector<double> perChannel(static_cast<size_t>(rows));
                forEachConcurrent(rows, a.workers, [&](int64_t c) {
                    perChannel[static_cast<size_t>(c)] = ref::gridMse(
                        in.weight.data() + c * chunk, chunk,
                        *cl.packed.type(), cl.packed.scales()[c]);
                });
                double own = 0.0;
                for (double e : perChannel)
                    own += e * static_cast<double>(chunk);
                own /= static_cast<double>(n);
                check(std::fabs(own - mse) <= 1e-6 * mse + 1e-15,
                      lw + ": grid-search MSE " + fmt(own) +
                          " != unpacked MSE " + fmt(mse));
                check(own <= best * (1 + 1e-9) + 1e-15,
                      lw + ": chosen type is not the argmin candidate");
            } else {
                const std::vector<TypePtr> wc = candidates(true, true);
                const QuantConfig cfg = baseConfig(Granularity::PerGroup);
                const int64_t gpc = cl.packed.groupsPerChannel();
                std::vector<int64_t> bad(static_cast<size_t>(rows * gpc),
                                         -1);
                forEachConcurrent(rows, a.workers, [&](int64_t c) {
                    for (int64_t g = c * gpc; g < (c + 1) * gpc; ++g) {
                        const int64_t j = g % gpc;
                        const float *x =
                            in.weight.data() + c * chunk + j * kGroupSize;
                        const int64_t len =
                            std::min(kGroupSize, chunk - j * kGroupSize);
                        const double chosen = ref::gridMse(
                            x, len, *cl.packed.groupTypes()[g],
                            cl.packed.scales()[g]);
                        for (size_t k = 0; k < wc.size(); ++k) {
                            const double e2 = ref::gridMse(
                                x, len, *wc[k],
                                searchScale(x, len, *wc[k], cfg));
                            if (!(chosen <= e2 * (1 + 1e-9) + 1e-15))
                                bad[static_cast<size_t>(g)] =
                                    static_cast<int64_t>(k);
                        }
                    }
                });
                for (size_t g = 0; g < bad.size(); ++g)
                    if (bad[g] >= 0)
                        throw CheckFailure(
                            lw + ": group " + std::to_string(g) +
                            " chose " + cl.packed.groupTypes()[g]->spec() +
                            " but " +
                            wc[static_cast<size_t>(bad[g])]->spec() +
                            " has lower MSE");
            }

            // Mapped tensor: bitwise the in-memory one.
            const QTensor &mq = cm.mapped.weights[li].tensor;
            check(mq.words() == cl.packed.words() &&
                      mq.scales() == cl.packed.scales(),
                  lw + ": mapped payload differs");
            const Tensor mdeq = mq.unpack();
            check(std::memcmp(mdeq.data(), deq.data(),
                              sizeof(float) * static_cast<size_t>(n)) == 0,
                  lw + ": mapped tensor unpacks differently");

            lower += std::ceil(static_cast<double>(n) *
                               cl.packed.bits() / 8.0);
            extra += 8.0 + 8.0 * static_cast<double>(
                                   cl.packed.scales().size()) +
                     static_cast<double>(blobHeaderBytes(
                         cm.mapped.weights[li]));
        }
        const double size = static_cast<double>(cm.fileBytes);
        check(size >= lower && size <= lower + extra,
              who + ": artifact " + fmt(size) + " B outside [" +
                  fmt(lower) + ", " + fmt(lower + extra) + "]");

        // Pricing: ANT-OS beats BitFusion and respects the PE bound.
        const double macs = static_cast<double>(m.w.totalMacs()) *
                            static_cast<double>(
                                sim::SimConfig::forDesign(
                                    hw::Design::AntOS).batch);
        const double pes =
            hw::designConfig(hw::Design::AntOS).peCount;
        check(cm.ant.cycles < cm.bitfusion.cycles,
              who + ": ANT-OS cycles " + std::to_string(cm.ant.cycles) +
                  " not below BitFusion " +
                  std::to_string(cm.bitfusion.cycles));
        check(static_cast<double>(cm.ant.cycles) >= macs / pes,
              who + ": ANT-OS cycles below MACs / PEs");
    }
}

/** Later rounds must reproduce the first bit for bit. */
void
checkSameAs(const Round &first, const Round &r)
{
    check(r.unpackCalls == 0,
          "compile: QTensor::unpack ran inside the timed toolflow");
    for (size_t mi = 0; mi < first.models.size(); ++mi) {
        const CompiledModel &a = first.models[mi], &b = r.models[mi];
        check(a.fileBytes == b.fileBytes && a.ant.cycles == b.ant.cycles,
              "compile: a repeated round changed the artifact or plan");
        for (size_t li = 0; li < a.layers.size(); ++li)
            check(a.layers[li].packed.words() ==
                          b.layers[li].packed.words() &&
                      a.layers[li].recipe == b.layers[li].recipe,
                  "compile: a repeated round changed layer " +
                      a.layers[li].recipe.layer);
    }
}

void
removeFiles(const Round &r)
{
    for (const CompiledModel &m : r.models) {
        std::error_code ec;
        std::filesystem::remove(m.path, ec);
    }
}

} // namespace

void
runCompile(const Args &a, Report &report)
{
    SetupTimer setup;
    std::vector<ModelInput> roster;
    for (int i = 0; i < kSetups; ++i) {
        roster.clear();
        setup.start();
        roster = makeRoster(a);
        setup.stop();
    }
    size_t layersPerRound = 0;
    for (const ModelInput &m : roster) layersPerRound += m.layers.size();

    // The first round warms caches and allocators and is kept for the
    // full checks and the determinism comparison; it is not measured.
    // Every measured round is checked against it and then freed.
    int index = 0;
    Round first = compileRound(roster, a, index++);
    checkRound(roster, first, a);
    uint64_t attempted = layersPerRound;
    uint64_t unpackCalls = 0;

    auto runFor = [&](double seconds, std::vector<double> &lms,
                      std::vector<double> &rms) {
        const Clock::time_point t0 = Clock::now();
        while (msSince(t0) < seconds * 1e3) {
            Round r = compileRound(roster, a, index++);
            checkSameAs(first, r);
            unpackCalls += r.unpackCalls;
            lms.insert(lms.end(), r.layerMs.begin(), r.layerMs.end());
            rms.push_back(r.totalMs);
            attempted += layersPerRound;
            removeFiles(r);
        }
    };

    if (!a.trace) {
        std::vector<double> layerMs, roundMs;
        RssSampler sampler;
        runFor(a.seconds, layerMs, roundMs);
        const double rss = sampler.stop();
        double storedBytes = 0.0;
        for (const CompiledModel &m : first.models)
            storedBytes += static_cast<double>(m.fileBytes);
        double sumRounds = 0.0;
        for (double ms : roundMs) sumRounds += ms;
        report.set("setup_s", setup.medianSeconds(), "s");
        report.set("peak_rss_mb", rss, "MB");
        report.set("p50_ms", median(layerMs), "ms");
        report.set("tail_ms", percentile(layerMs, 90), "ms");
        report.set("throughput_per_s",
                   static_cast<double>(layerMs.size()) /
                       (sumRounds / 1e3),
                   "1/s");
        report.set("first_result_ms", median(roundMs), "ms");
        report.set("stored_mb", storedBytes / (1 << 20), "MB");
        note("compile: " + std::to_string(roundMs.size()) +
             " measured rounds of " + std::to_string(layersPerRound) +
             " layers; roster artifact " + fmt(storedBytes) + " B");
    } else {
        // Untraced half, then the traced half: the overhead is the
        // difference of their median round times.
        std::vector<double> plainL, plainR, tracedL, tracedR;
        runFor(a.seconds / 2, plainL, plainR);
        unpackCalls = 0;
        Tracer::get().clear();
        Tracer::get().setEnabled(true);
        runFor(a.seconds / 2, tracedL, tracedR);
        Tracer::get().setEnabled(false);
        const double rounds = static_cast<double>(tracedR.size());
        const Tracer &t = Tracer::get();
        report.set("type_selector.busy_ms", t.busyMs("type_selector") /
                                                rounds, "ms/round");
        double elems = 0.0;
        for (const ModelInput &m : roster)
            for (const LayerInput &li : m.layers)
                elems += static_cast<double>(li.weight.numel());
        report.set("type_selector.elems", elems, "count/round");
        report.set("calibrator.busy_ms", t.busyMs("calibrator") / rounds,
                   "ms/round");
        report.set("qtensor.pack_ms", t.busyMs("qtensor.pack") / rounds,
                   "ms/round");
        report.set("artifact.save_ms", t.busyMs("artifact.save") / rounds,
                   "ms/round");
        report.set("artifact.map_ms", t.busyMs("artifact.map") / rounds,
                   "ms/round");
        report.set("planner.busy_ms", t.busyMs("planner") / rounds,
                   "ms/round");
        report.set("accelerator.busy_ms", t.busyMs("accelerator") / rounds,
                   "ms/round");
        report.set("qtensor.unpack_calls",
                   static_cast<double>(unpackCalls), "count");
        report.set("trace.overhead_pct",
                   (median(tracedR) / median(plainR) - 1.0) * 100.0, "%");
        dumpTrace(a.traceDir, "compile");
    }
    removeFiles(first);
    report.attempted = attempted;
    report.failed = 0;
}

} // namespace perfbench
