// Training benchmark: drives FedTrainer::Train in-process on synthetic data
// made from a seed, checks every trained model against a reference model,
// and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see NOTES.md for why each exists):
//   preset_1024  Vf2Boost() preset, 1024-bit Paillier, 4000 train rows x 40
//   vfgbdt_1024  VfGbdt() baseline, 1024-bit Paillier, 2000 train rows x 40
//   mock_100k    Vf2Boost() preset on plaintext arithmetic, 80000 x 200
//
// Every run trains untraced, back to back, until `--seconds` have passed
// (at least once). `--trace 0` prints the end-to-end metrics as medians over
// those trainings. `--trace 1` prints the per-layer metrics: phase seconds
// as medians over the same untraced trainings, exact work counters, unit
// costs from a 1024-bit crypto/bigint probe, and per-layer self time from
// one extra training with an obs::TraceRecorder installed.
//
// A training counts as failed unless Train returns OK, the joint model text
// (nodes numbered in pre-order) equals the reference model's byte for byte,
// its validation AUC equals the reference's, and its exact work counters
// equal those of the first training of the run.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bigint/modarith.h"
#include "common/random.h"
#include "common/timer.h"
#include "crypto/backend.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "data/binning.h"
#include "data/matrix.h"
#include "data/partition.h"
#include "fed/fed_trainer.h"
#include "gbdt/model_io.h"
#include "metrics/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace vf2boost {
namespace {

/// Shape of a workload's synthetic inputs.
struct DataShape {
  size_t train_rows = 0;
  size_t valid_rows = 20000;
  size_t cols = 0;
  double density = 0.3;
};

struct Workload {
  DataShape data;
  FedConfig config;     ///< the configuration every timed training uses
  FedConfig reference;  ///< trains the model every timed training must match
};

Result<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  GbdtParams gbdt;
  if (name == "preset_1024") {
    w.data.train_rows = 4000;
    w.data.cols = 40;
    w.config = FedConfig::Vf2Boost();
    w.config.paillier_bits = 1024;
    w.config.workers_per_party = 2;
    gbdt.num_trees = 2;
    gbdt.num_layers = 4;
    gbdt.max_bins = 20;
    w.reference = w.config;
    w.reference.mock_crypto = true;
  } else if (name == "vfgbdt_1024") {
    w.data.train_rows = 2000;
    w.data.cols = 40;
    w.config = FedConfig::VfGbdt();
    w.config.paillier_bits = 1024;
    w.config.workers_per_party = 1;
    gbdt.num_trees = 2;
    gbdt.num_layers = 3;
    gbdt.max_bins = 10;
    w.reference = w.config;
    w.reference.mock_crypto = true;
  } else if (name == "mock_100k") {
    w.data.train_rows = 80000;
    w.data.cols = 200;
    w.config = FedConfig::Vf2Boost();
    w.config.mock_crypto = true;
    // One worker per party: with two, the wall time of the same work spread
    // 27% between runs on a shared 4-core host, as workers waited on peers
    // the host had descheduled (see NOTES.md).
    w.config.workers_per_party = 1;
    gbdt.num_trees = 4;
    gbdt.num_layers = 6;
    gbdt.max_bins = 20;
    // gh slots share one exponent, so the plain sequential flow matches the
    // preset bit for bit only with a single codec exponent. Worker count
    // does not change a mock model; two workers halve the reference's time.
    w.reference = FedConfig::VfMock();
    w.reference.codec_num_exponents = 1;
    w.reference.workers_per_party = 2;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  w.config.gbdt = gbdt;
  w.reference.gbdt = gbdt;
  // Clock-sync pings flow only while a trace recorder is installed; turning
  // them off keeps the traced training's message ledger equal to the
  // untraced ones. Untraced trainings behave the same either way.
  w.config.clock_sync = false;
  w.reference.clock_sync = false;
  return w;
}

struct Inputs {
  Dataset train;
  Dataset valid;
  VerticalSplitSpec spec;
  std::vector<Dataset> shards;  ///< party A first, party B (labels) last
};

/// Rows of a fixed binary task: each entry is present with probability
/// `density` and holds an N(0,1) value; the label is drawn from a logistic
/// teacher over the row.
Dataset SampleRows(size_t rows, size_t cols, double density,
                   const std::vector<double>& teacher, Rng* rng) {
  constexpr double kSignal = 2.0;  // std of the teacher's logit
  double norm = 0;
  for (double w : teacher) norm += w * w;
  const double scale = kSignal / std::sqrt(density * norm);
  std::vector<std::vector<Entry>> entries(rows);
  Dataset out;
  out.labels.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    double score = 0;
    for (uint32_t c = 0; c < cols; ++c) {
      if (rng->NextDouble() >= density) continue;
      const float v = static_cast<float>(rng->NextGaussian());
      entries[r].push_back({c, v});
      score += teacher[c] * v;
    }
    const double p = 1.0 / (1.0 + std::exp(-scale * score));
    out.labels[r] = rng->NextDouble() < p ? 1.0f : 0.0f;
  }
  auto m = CsrMatrix::FromRows(entries, cols);
  if (!m.ok()) std::abort();  // columns are in range by construction
  out.features = std::move(m).value();
  return out;
}

/// The teacher and the column split between parties come from fixed seeds;
/// only the rows come from `seed`. The seed thus varies the sample but not
/// which columns carry signal or which party holds them -- the properties
/// that set tree shapes, dirty-node counts and so the work of a training.
/// Teacher weights halve from one column to the next over a random column
/// order, so a few columns dominate and split choices (and so valid_auc)
/// do not flip between samples.
Result<Inputs> MakeInputs(const DataShape& shape, uint64_t seed) {
  Rng task_rng(0x7461736bULL);  // "task"
  std::vector<double> teacher(shape.cols);
  double weight = 1.0;
  for (double& w : teacher) {
    w = (task_rng.NextDouble() < 0.5 ? -weight : weight);
    weight *= 0.5;
  }
  for (size_t i = teacher.size(); i > 1; --i) {
    std::swap(teacher[i - 1], teacher[task_rng.NextBounded(i)]);
  }
  Inputs in;
  in.spec = SplitColumnsRandomly(shape.cols, {0.5, 0.5}, &task_rng);
  Rng rng(seed);
  in.train = SampleRows(shape.train_rows, shape.cols, shape.density, teacher, &rng);
  in.valid = SampleRows(shape.valid_rows, shape.cols, shape.density, teacher, &rng);
  auto shards = PartitionVertically(in.train, in.spec, /*label_party=*/1);
  if (!shards.ok()) return shards.status();
  in.shards = std::move(shards).value();
  return in;
}

/// `model` with each tree's nodes renumbered in pre-order from the root;
/// nodes no path reaches keep their relative order after the reachable ones.
/// Every node field except the child indices is kept as it is. The optimistic
/// flow allocates the children of a node it first made a leaf, and then
/// rolled back to an A-side split, after the layer's other children, so the
/// same tree can sit in a different node order than the sequential flow's.
GbdtModel Renumbered(const GbdtModel& model) {
  GbdtModel out = model;
  for (size_t t = 0; t < model.trees.size(); ++t) {
    const Tree& tree = model.trees[t];
    const int32_t size = static_cast<int32_t>(tree.size());
    std::vector<int32_t> order;
    std::vector<bool> reached(size, false);
    std::vector<int32_t> stack = {0};
    while (!stack.empty()) {
      const int32_t i = stack.back();
      stack.pop_back();
      if (i < 0 || i >= size || reached[i]) continue;
      reached[i] = true;
      order.push_back(i);
      stack.push_back(tree.node(i).right);
      stack.push_back(tree.node(i).left);
    }
    for (int32_t i = 0; i < size; ++i) {
      if (!reached[i]) order.push_back(i);
    }
    std::vector<int32_t> new_id(size);
    for (int32_t k = 0; k < size; ++k) new_id[order[k]] = k;
    auto remap = [&](int32_t child) {
      return child >= 0 && child < size ? new_id[child] : child;
    };
    Tree renumbered;
    for (int32_t k = 1; k < size; ++k) renumbered.AddNode();
    for (int32_t k = 0; k < size; ++k) {
      TreeNode node = tree.node(order[k]);
      node.left = remap(node.left);
      node.right = remap(node.right);
      renumbered.node(k) = node;
    }
    out.trees[t] = std::move(renumbered);
  }
  return out;
}

struct ModelCheck {
  /// ModelToString of the joint model with its nodes renumbered (see
  /// Renumbered): equal strings mean the same trees, node for node.
  std::string model;
  double auc = 0;  ///< validation AUC of the joint model
};

Result<ModelCheck> Evaluate(const FedTrainResult& result, const Inputs& in) {
  obs::TraceSpan span("bench", "bench.gbdt.evaluate");
  auto joint = result.ToJointModel(in.spec);
  if (!joint.ok()) return joint.status();
  ModelCheck check;
  check.model = ModelToString(Renumbered(*joint));
  check.auc = Auc(joint->PredictRaw(in.valid.features), in.valid.labels);
  return check;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// (max - min) / median, the run's spread of a value that is not exact.
double RelativeSpread(const std::vector<double>& v) {
  const double median = Median(v);
  if (v.empty() || median == 0) return 0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return (*hi - *lo) / median;
}

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One training and what the benchmark reads from it.
struct TrainRecord {
  bool trained = false;  ///< Train returned OK and the model evaluated
  bool ok = false;       ///< trained and passed every check
  std::string failure;
  double train_s = 0;
  double setup_s = 0;
  double cpu_s = 0;
  double auc = 0;
  double tree_s_max = 0;
  FedStats stats;
  /// channel/a0/* gauges with the prefix stripped ("to_b/bytes", ...).
  std::map<std::string, double> channel;

  double wire_bytes() const {
    return static_cast<double>(stats.bytes_a_to_b + stats.bytes_b_to_a);
  }
  double noise_pool_hit_ratio() const {
    const double total =
        static_cast<double>(stats.noise_pool_hits + stats.noise_pool_misses);
    return total > 0 ? static_cast<double>(stats.noise_pool_hits) / total : 0;
  }
  /// Work counters that are fixed by the inputs and the configuration.
  /// Scalings and noise-pool counters are left out on purpose: they depend
  /// on noise-pool timing (see NOTES.md).
  std::vector<std::pair<const char*, double>> ExactLedger() const {
    auto ch = [this](const char* key) {
      auto it = channel.find(key);
      return it == channel.end() ? -1.0 : it->second;
    };
    return {{"encryptions", static_cast<double>(stats.encryptions)},
            {"decryptions", static_cast<double>(stats.decryptions)},
            {"hadds", static_cast<double>(stats.hadds)},
            {"packs", static_cast<double>(stats.packs)},
            {"splits_a", static_cast<double>(stats.splits_a)},
            {"splits_b", static_cast<double>(stats.splits_b)},
            {"optimistic_splits", static_cast<double>(stats.optimistic_splits)},
            {"dirty_nodes", static_cast<double>(stats.dirty_nodes)},
            {"redone_hist_builds", static_cast<double>(stats.redone_hist_builds)},
            {"bytes_a_to_b", static_cast<double>(stats.bytes_a_to_b)},
            {"bytes_b_to_a", static_cast<double>(stats.bytes_b_to_a)},
            {"messages_a_to_b", ch("to_b/messages")},
            {"messages_b_to_a", ch("from_b/messages")}};
  }
};

TrainRecord TimedTrain(FedConfig config, const Inputs& in,
                       const ModelCheck& reference) {
  TrainRecord rec;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  const double cpu0 = CpuSeconds();
  Stopwatch clock;
  Result<FedTrainResult> result = Status::Internal("not run");
  {
    obs::TraceSpan span("bench", "bench.fed.train");
    result = FedTrainer(config).Train(in.shards);
  }
  const double wall_s = clock.ElapsedSeconds();
  rec.cpu_s = CpuSeconds() - cpu0;
  if (!result.ok()) {
    rec.failure = "Train failed: " + result.status().ToString();
    return rec;
  }
  if (result->log.empty()) {
    rec.failure = "Train returned no trees";
    return rec;
  }
  rec.train_s = result->log.back().elapsed_seconds;
  rec.setup_s = wall_s - rec.train_s;
  double prev = 0;
  for (const EvalRecord& tree : result->log) {
    rec.tree_s_max = std::max(rec.tree_s_max, tree.elapsed_seconds - prev);
    prev = tree.elapsed_seconds;
  }
  rec.stats = result->stats;
  const std::string prefix = "channel/a0/";
  for (const obs::MetricSample& s : registry.Snapshot(prefix)) {
    rec.channel[s.name.substr(prefix.size())] = s.value;
  }
  auto check = Evaluate(*result, in);
  if (!check.ok()) {
    rec.failure = "joint model failed: " + check.status().ToString();
    return rec;
  }
  rec.trained = true;
  rec.auc = check->auc;
  if (check->model != reference.model) {
    rec.failure = "model differs from the reference model";
  } else if (check->auc != reference.auc) {
    rec.failure = "valid_auc differs from the reference";
  } else {
    rec.ok = true;
  }
  return rec;
}

/// Fails `rec` when one of its exact counters differs from `base`.
void CheckLedger(const TrainRecord& base, TrainRecord* rec) {
  if (!rec->ok) return;
  const auto want = base.ExactLedger();
  const auto got = rec->ExactLedger();
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].second != got[i].second) {
      rec->ok = false;
      rec->failure = std::string("exact counter ") + want[i].first + " = " +
                     std::to_string(got[i].second) + ", first training had " +
                     std::to_string(want[i].second);
      return;
    }
  }
}

// --- crypto / bigint unit-cost probe ----------------------------------------

struct UnitCosts {
  double encrypt_us = 0;
  double decrypt_us = 0;
  double hadd_us = 0;
  double scale_us = 0;
  double pack_slot_us = 0;
  double modexp_us = 0;
  double montmul_us = 0;
  double pack_slots = 1;  ///< 64-bit slots per 1024-bit plaintext
};

/// Median microseconds per call of `fn` over 7 batches, each batch sized to
/// take at least 25 ms.
template <typename Fn>
double MicrosPerCall(Fn&& fn) {
  size_t n = 1;
  for (;;) {
    Stopwatch c;
    for (size_t i = 0; i < n; ++i) fn();
    if (c.ElapsedSeconds() >= 0.025) break;
    n *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 7; ++batch) {
    Stopwatch c;
    for (size_t i = 0; i < n; ++i) fn();
    per_call.push_back(c.ElapsedMicros() / static_cast<double>(n));
  }
  return Median(per_call);
}

/// Times single-threaded calls into PaillierBackend, MontgomeryContext and
/// ModExp at 1024 bits. The operations mirror CostModel::Calibrate, with
/// fixed batch sizing instead of its sample counts.
Result<UnitCosts> ProbeUnitCosts() {
  UnitCosts costs;
  Rng rng(0x70726f6265ULL);
  auto kp = PaillierKeyPair::Generate(1024, &rng);
  if (!kp.ok()) return kp.status();
  PaillierBackend backend(kp->pub, FedConfig().MakeCodec());
  backend.SetPrivateKey(kp->priv);
  Cipher c1 = backend.EncryptAt(0.5, 9, &rng);
  const Cipher c2 = backend.EncryptAt(-0.25, 9, &rng);
  const Cipher low = backend.EncryptAt(0.125, 8, &rng);
  {
    obs::TraceSpan span("bench", "bench.crypto.probe");
    Cipher sink;
    double decoded = 0;
    costs.encrypt_us = MicrosPerCall([&] { sink = backend.Encrypt(0.37, &rng); });
    costs.decrypt_us = MicrosPerCall([&] { decoded += backend.Decrypt(c1); });
    costs.hadd_us = MicrosPerCall([&] { c1.data = backend.HAddRaw(c1.data, c2.data); });
    costs.scale_us = MicrosPerCall([&] { sink = backend.ScaleTo(low, 9); });
    const BigInt shift = BigInt(1) << 64;
    BigInt acc = c2.data;
    costs.pack_slot_us = MicrosPerCall(
        [&] { acc = backend.HAddRaw(c1.data, backend.SMulRaw(shift, acc)); });
    costs.pack_slots = static_cast<double>(
        std::max<size_t>(1, MaxSlotsPerCipher(64, kp->pub.n().BitLength())));
  }
  {
    obs::TraceSpan span("bench", "bench.bigint.probe");
    const BigInt& n = kp->pub.n();
    const MontgomeryContext ctx(n);
    const BigInt base = Mod(c1.data, n);
    const BigInt exp = Mod(c2.data, n);
    BigInt sink;
    costs.modexp_us = MicrosPerCall([&] { sink = ModExp(base, exp, ctx); });
    const BigInt b = ctx.ToMont(exp);
    BigInt x = ctx.ToMont(base);
    costs.montmul_us = MicrosPerCall([&] { x = ctx.MontMul(x, b); });
  }
  return costs;
}

/// ComputeBinCuts + BinnedMatrix::FromCsr on every shard, as each party
/// does at setup.
double TimeBinning(const std::vector<Dataset>& shards, size_t max_bins) {
  obs::TraceSpan span("bench", "bench.data.bin");
  Stopwatch clock;
  for (const Dataset& shard : shards) {
    const BinCuts cuts = ComputeBinCuts(shard.features, max_bins);
    BinnedMatrix::FromCsr(shard.features, cuts);
  }
  return clock.ElapsedSeconds();
}

/// Layer of a recorded span: the benchmark's own spans are named
/// "bench.<layer>.<call>"; the program's spans are its party phase spans
/// (layer fed) and key generation (layer crypto).
std::string LayerOf(const std::string& name) {
  if (name.rfind("bench.", 0) == 0) {
    const size_t end = name.find('.', 6);
    return name.substr(6, end - 6);
  }
  if (name == "keygen") return "crypto";
  return "fed";
}

/// Seconds of self time per layer: each span's duration minus the part its
/// directly nested spans on the same thread cover. Message flow anchors
/// ("snd ..."/"rcv ...", a fixed 1 us each) mark events, not work, and are
/// skipped.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<obs::TraceRecorder::SpanView>& spans) {
  struct Span {
    int64_t begin;
    int64_t end;
    const std::string* name;
  };
  std::map<uint32_t, std::vector<Span>> by_thread;
  for (const auto& s : spans) {
    if (s.name->rfind("snd ", 0) == 0 || s.name->rfind("rcv ", 0) == 0) continue;
    by_thread[s.tid].push_back({s.ts_us, s.ts_us + s.dur_us, s.name});
  }
  std::map<std::string, double> self_s;
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const Span& a, const Span& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<int64_t> self_us(list.size());
    std::vector<size_t> stack;
    for (size_t i = 0; i < list.size(); ++i) {
      self_us[i] = list[i].end - list[i].begin;
      while (!stack.empty() && list[i].begin >= list[stack.back()].end) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const Span& parent = list[stack.back()];
        self_us[stack.back()] -= std::min(list[i].end, parent.end) - list[i].begin;
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < list.size(); ++i) {
      self_s[LayerOf(*list[i].name)] += 1e-6 * static_cast<double>(self_us[i]);
    }
  }
  return self_s;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> EndToEndMetrics(const std::vector<const TrainRecord*>& runs,
                                    double peak_rss_mb) {
  std::vector<double> train, setup, cpu, wire, auc;
  for (const TrainRecord* r : runs) {
    train.push_back(r->train_s);
    setup.push_back(r->setup_s);
    cpu.push_back(r->cpu_s);
    wire.push_back(r->wire_bytes());
    auc.push_back(r->auc);
  }
  return {{"train_s", Median(train), "s"},
          {"setup_s", Median(setup), "s"},
          {"wire_bytes", Median(wire), "bytes"},
          {"cpu_s", Median(cpu), "s"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"valid_auc", Median(auc), "auc"}};
}

std::vector<Metric> PerLayerMetrics(const std::vector<const TrainRecord*>& untraced,
                                    const TrainRecord& traced,
                                    const UnitCosts& costs, double bin_s,
                                    const std::map<std::string, double>& self_s) {
  auto median_of = [&](auto&& field) {
    std::vector<double> v;
    for (const TrainRecord* r : untraced) v.push_back(field(*r));
    return Median(v);
  };
  std::vector<const TrainRecord*> all = untraced;
  all.push_back(&traced);
  std::vector<double> scalings, hit_ratio;
  for (const TrainRecord* r : all) {
    scalings.push_back(static_cast<double>(r->stats.scalings));
    hit_ratio.push_back(r->noise_pool_hit_ratio());
  }

  const TrainRecord& first = *untraced.front();
  const FedStats& s = first.stats;
  const double build_hist_s = median_of([](const TrainRecord& r) { return r.stats.party_a.build_hist; });
  const double pack_s = median_of([](const TrainRecord& r) { return r.stats.party_a.pack; });
  const double encrypt_s = median_of([](const TrainRecord& r) { return r.stats.party_b.encrypt; });
  const double decrypt_s = median_of([](const TrainRecord& r) { return r.stats.party_b.decrypt; });
  const double train_s = median_of([](const TrainRecord& r) { return r.train_s; });

  // Cost model: count x single-thread unit cost, summed per party, against
  // the wall seconds of the phases that do that work.
  const double modeled_a_s =
      1e-6 * (static_cast<double>(s.hadds) * costs.hadd_us +
              Median(scalings) * costs.scale_us +
              static_cast<double>(s.packs) * costs.pack_slots * costs.pack_slot_us);
  const double modeled_b_s =
      1e-6 * (static_cast<double>(s.encryptions) * costs.encrypt_us +
              static_cast<double>(s.decryptions) * costs.decrypt_us);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto count = [](size_t v) { return static_cast<double>(v); };
  auto channel = [&](const char* key) {
    auto it = first.channel.find(key);
    return it == first.channel.end() ? 0.0 : it->second;
  };
  auto self = [&](const char* layer) {
    auto it = self_s.find(layer);
    return it == self_s.end() ? 0.0 : it->second;
  };

  return {
      {"fed.a.build_hist_s", build_hist_s, "s"},
      {"fed.a.pack_s", pack_s, "s"},
      {"fed.a.comm_wait_s", median_of([](const TrainRecord& r) { return r.stats.party_a.comm_wait; }), "s"},
      {"fed.b.encrypt_s", encrypt_s, "s"},
      {"fed.b.decrypt_s", decrypt_s, "s"},
      {"fed.b.find_split_s", median_of([](const TrainRecord& r) { return r.stats.party_b.find_split; }), "s"},
      {"fed.b.comm_wait_s", median_of([](const TrainRecord& r) { return r.stats.party_b.comm_wait; }), "s"},
      {"fed.tree_s_max", median_of([](const TrainRecord& r) { return r.tree_s_max; }), "s"},
      {"fed.optimistic_splits", count(s.optimistic_splits), "count"},
      {"fed.dirty_nodes", count(s.dirty_nodes), "count"},
      {"fed.redone_hist_builds", count(s.redone_hist_builds), "count"},
      {"fed.splits_a", count(s.splits_a), "count"},
      {"fed.splits_b", count(s.splits_b), "count"},
      {"fed.dirty_rate", ratio(count(s.dirty_nodes), count(s.optimistic_splits)), "ratio"},
      {"transport.bytes_a_to_b", count(s.bytes_a_to_b), "bytes"},
      {"transport.bytes_b_to_a", count(s.bytes_b_to_a), "bytes"},
      {"transport.messages_a_to_b", channel("to_b/messages"), "count"},
      {"transport.messages_b_to_a", channel("from_b/messages"), "count"},
      {"transport.inbox_high_water", count(s.inbox_high_water), "count"},
      {"crypto.encryptions", count(s.encryptions), "count"},
      {"crypto.decryptions", count(s.decryptions), "count"},
      {"crypto.hadds", count(s.hadds), "count"},
      {"crypto.scalings", Median(scalings), "count"},
      {"crypto.scalings_spread", RelativeSpread(scalings), "ratio"},
      {"crypto.packs", count(s.packs), "count"},
      {"crypto.noise_pool_hit_ratio", Median(hit_ratio), "ratio"},
      {"crypto.noise_pool_hit_ratio_spread", RelativeSpread(hit_ratio), "ratio"},
      {"crypto.encrypt_us", costs.encrypt_us, "us"},
      {"crypto.decrypt_us", costs.decrypt_us, "us"},
      {"crypto.hadd_us", costs.hadd_us, "us"},
      {"crypto.scale_us", costs.scale_us, "us"},
      {"crypto.pack_slot_us", costs.pack_slot_us, "us"},
      {"bigint.modexp_us", costs.modexp_us, "us"},
      {"bigint.montmul_us", costs.montmul_us, "us"},
      {"crypto.modeled_a_s", modeled_a_s, "s"},
      {"crypto.modeled_b_s", modeled_b_s, "s"},
      {"crypto.modeled_a_ratio", ratio(modeled_a_s, build_hist_s + pack_s), "x"},
      {"crypto.modeled_b_ratio", ratio(modeled_b_s, encrypt_s + decrypt_s), "x"},
      {"data.bin_s", bin_s, "s"},
      {"trace.overhead_ratio", ratio(traced.train_s, train_s), "x"},
      {"trace.self_s.data", self("data"), "s"},
      {"trace.self_s.fed", self("fed"), "s"},
      {"trace.self_s.gbdt", self("gbdt"), "s"},
      {"trace.self_s.crypto", self("crypto"), "s"},
      {"trace.self_s.bigint", self("bigint"), "s"},
  };
}

void LogTraining(const char* label, size_t index, const TrainRecord& r) {
  std::fprintf(stderr,
               "%s %zu: %s train_s=%.4f setup_s=%.4f cpu_s=%.3f wire_bytes=%.0f "
               "auc=%.6f packs=%zu hadds=%zu decryptions=%zu dirty_nodes=%zu "
               "scalings=%zu pool_hits=%llu pool_misses=%llu%s%s\n",
               label, index, r.ok ? "ok" : "FAILED", r.train_s, r.setup_s, r.cpu_s,
               r.wire_bytes(), r.auc, r.stats.packs, r.stats.hadds,
               r.stats.decryptions, r.stats.dirty_nodes, r.stats.scalings,
               static_cast<unsigned long long>(r.stats.noise_pool_hits),
               static_cast<unsigned long long>(r.stats.noise_pool_misses),
               r.ok ? "" : " -- ", r.failure.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds < 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <preset_1024|vfgbdt_1024|mock_100k> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  auto workload = MakeWorkload(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  Stopwatch setup_clock;
  auto inputs = MakeInputs(workload->data, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  const Inputs& in = *inputs;

  // Reference model, trained outside the timed region.
  auto reference_run = FedTrainer(workload->reference).Train(in.shards);
  Result<ModelCheck> reference = reference_run.ok()
                                     ? Evaluate(*reference_run, in)
                                     : Result<ModelCheck>(reference_run.status());
  if (!reference.ok()) {
    std::fprintf(stderr, "reference training failed: %s\n",
                 reference.status().ToString().c_str());
    PrintResult(false, 1, 1, {});
    return 0;
  }
  std::fprintf(stderr, "inputs + reference model: %.2f s, auc=%.6f\n",
               setup_clock.ElapsedSeconds(), reference->auc);

  std::vector<TrainRecord> runs;
  // Peak RSS is read after the first training: the allocator keeps memory
  // freed by one training, so later trainings raise the process peak by an
  // amount that depends on how many fit in the run.
  double peak_rss_mb = 0;
  Stopwatch budget;
  while (runs.empty() || budget.ElapsedSeconds() < args.seconds) {
    runs.push_back(TimedTrain(workload->config, in, *reference));
    if (runs.size() == 1) peak_rss_mb = PeakRssMb();
    if (runs.size() > 1) CheckLedger(runs.front(), &runs.back());
    LogTraining("training", runs.size() - 1, runs.back());
  }

  std::vector<const TrainRecord*> trained;
  size_t failed = 0;
  for (const TrainRecord& r : runs) {
    if (r.trained) trained.push_back(&r);
    if (!r.ok) ++failed;
  }
  size_t attempted = runs.size();

  if (!args.trace) {
    PrintResult(failed == 0, attempted, failed,
                trained.empty() ? std::vector<Metric>{}
                                : EndToEndMetrics(trained, peak_rss_mb));
    return 0;
  }

  obs::TraceRecorder recorder;
  recorder.Install();
  const Result<UnitCosts> costs = ProbeUnitCosts();
  const double bin_s = TimeBinning(in.shards, workload->config.gbdt.max_bins);
  TrainRecord traced = TimedTrain(workload->config, in, *reference);
  obs::TraceRecorder::Uninstall();
  CheckLedger(runs.front(), &traced);
  LogTraining("traced", 0, traced);
  ++attempted;
  if (!traced.ok) ++failed;

  std::fprintf(stderr,
               "note: crypto.scalings and the noise-pool counters are reported "
               "with their spread, not gated exactly: NoisePool::Take falls "
               "back to MakeNonce(rng) on a miss, consuming the rng that "
               "SampleExponent draws from, so the exponent stream (and the "
               "scalings it causes) depends on pool timing. Models are "
               "unaffected.\n");
  if (!costs.ok()) {
    std::fprintf(stderr, "unit-cost probe failed: %s\n",
                 costs.status().ToString().c_str());
  }
  if (trained.empty() || !traced.trained || !costs.ok()) {
    PrintResult(false, attempted, failed, {});
    return 0;
  }
  PrintResult(failed == 0, attempted, failed,
              PerLayerMetrics(trained, traced, *costs, bin_s,
                              SelfSecondsByLayer(recorder.CompleteSpans())));
  return 0;
}

}  // namespace
}  // namespace vf2boost

int main(int argc, char** argv) { return vf2boost::Main(argc, argv); }
