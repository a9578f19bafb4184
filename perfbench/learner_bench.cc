// Learner workloads (nysf-2k, nysf-8k): Algorithm 1 on the NYSF stream at
// paper scale, FACTION and then Random on the same stream. The program is
// driven only through MakeStrategy, MakeLearnerConfig and
// OnlineLearner::Run. Per-layer time comes from two decorators installed
// from here: one around QueryStrategy::SelectBatch, and one around the
// classifier, installed through OnlineLearnerConfig::model_factory.
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/presets.h"
#include "data/streams.h"
#include "nn/mlp.h"
#include "perfbench.h"
#include "tracer.h"

namespace perfbench {
namespace {

using faction::FeatureClassifier;
using faction::Matrix;
using faction::OnlineLearnerConfig;
using faction::QueryStrategy;
using faction::Result;
using faction::RunResult;
using Clock = std::chrono::steady_clock;

// Share of the untraced run time by which the traced run's layer self
// times may miss it before the decomposition counts as not adding up.
constexpr double kReconcileTolerance = 0.10;
// Untraced/traced FACTION run pairs of a traced run.
constexpr int kTracedPairs = 3;
// FACTION/Random pairs an untraced run makes however short its time;
// accuracy, ddp and the acquisition-round tail are taken over these.
constexpr std::size_t kMinRuns = 8;
// Set-ups timed before the measured runs; one more follows every run. The
// first few set-ups of a process grow its heap and take page faults that
// later ones do not (5800 against 0 on nysf-8k, 30% slower), and on a
// shared host the warm ones still switch between two speeds every few
// seconds (nysf-2k: 11.7 and 17.5 ms), so set-ups are spread over the
// whole run and their median is reported.
constexpr std::size_t kSetupReps = 5;

// World seed of the NYSF population; the paper benches' first repetition.
constexpr std::uint64_t kNysfWorldSeed = 1000;

/// Work counts gathered by the decorators.
struct LayerCounts {
  std::size_t select_calls = 0;
  std::size_t candidate_rows = 0;
  std::size_t train_rows = 0;
  /// Nonzero while a SelectBatch runs; inference then belongs to it.
  int select_depth = 0;
};

/// Decorates the query strategy. Always records when each acquisition
/// round hands its batch to the annotator; with a tracer, also records a
/// "core.select" span per call.
class TimedStrategy final : public QueryStrategy {
 public:
  TimedStrategy(QueryStrategy* inner, Tracer* tracer, LayerCounts* counts,
                std::vector<Clock::time_point>* round_ends)
      : inner_(inner),
        tracer_(tracer),
        counts_(counts),
        round_ends_(round_ends) {}

  std::string name() const override { return inner_->name(); }

  Result<std::vector<std::size_t>> SelectBatch(
      const faction::SelectionContext& context, std::size_t batch) override {
    ++counts_->select_calls;
    counts_->candidate_rows += context.candidate_features->rows();
    ++counts_->select_depth;
    Result<std::vector<std::size_t>> picked = [&] {
      ScopedSpan span(tracer_, "core.select");
      return inner_->SelectBatch(context, batch);
    }();
    --counts_->select_depth;
    round_ends_->push_back(Clock::now());
    return picked;
  }

 private:
  QueryStrategy* inner_;
  Tracer* tracer_;
  LayerCounts* counts_;
  std::vector<Clock::time_point>* round_ends_;
};

/// Decorates the classifier: training forward and backward passes and
/// inference calls become spans. Inference is attributed to selection while
/// a SelectBatch is open and to evaluation otherwise.
class TimedClassifier final : public FeatureClassifier {
 public:
  TimedClassifier(std::unique_ptr<FeatureClassifier> inner, Tracer* tracer,
                  LayerCounts* counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}

  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t feature_dim() const override { return inner_->feature_dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }

  Matrix Forward(const Matrix& x) override {
    counts_->train_rows += x.rows();
    ScopedSpan span(tracer_, "nn.train_fwd");
    return inner_->Forward(x);
  }
  void ForwardInto(const Matrix& x, Matrix* out) override {
    counts_->train_rows += x.rows();
    ScopedSpan span(tracer_, "nn.train_fwd");
    inner_->ForwardInto(x, out);
  }
  Matrix Logits(const Matrix& x) const override {
    ScopedSpan span(tracer_, InferSpan());
    return inner_->Logits(x);
  }
  void LogitsInto(const Matrix& x, faction::Workspace* ws,
                  Matrix* out) const override {
    ScopedSpan span(tracer_, InferSpan());
    inner_->LogitsInto(x, ws, out);
  }
  Matrix ExtractFeatures(const Matrix& x) const override {
    ScopedSpan span(tracer_, InferSpan());
    return inner_->ExtractFeatures(x);
  }
  void ExtractFeaturesInto(const Matrix& x, faction::Workspace* ws,
                           Matrix* out) const override {
    ScopedSpan span(tracer_, InferSpan());
    inner_->ExtractFeaturesInto(x, ws, out);
  }
  void Backward(const Matrix& dlogits) override {
    ScopedSpan span(tracer_, "nn.train_bwd");
    inner_->Backward(dlogits);
  }
  void ZeroGrad() override { inner_->ZeroGrad(); }
  std::vector<Matrix*> Parameters() override { return inner_->Parameters(); }
  std::vector<const Matrix*> Parameters() const override {
    return static_cast<const FeatureClassifier&>(*inner_).Parameters();
  }
  std::vector<Matrix*> Gradients() override { return inner_->Gradients(); }
  std::unique_ptr<FeatureClassifier> CloneArchitecture(
      faction::Rng* rng) const override {
    return std::make_unique<TimedClassifier>(inner_->CloneArchitecture(rng),
                                             tracer_, counts_);
  }

 private:
  const char* InferSpan() const {
    return counts_->select_depth > 0 ? "nn.select_infer" : "nn.eval_infer";
  }

  std::unique_ptr<FeatureClassifier> inner_;
  Tracer* tracer_;
  LayerCounts* counts_;
};

struct LearnerSetup {
  std::vector<faction::Dataset> stream;
  faction::ExperimentDefaults defaults;
  OnlineLearnerConfig faction;
  OnlineLearnerConfig random;
};

/// Seed of the learner's randomness (model init, selection, SGD order) in
/// the run's `rep`-th pair.
std::uint64_t LearnerSeed(const Options& o, std::size_t rep) {
  return faction::SubSeed(o.seed,
                          "perfbench/learner/" + std::to_string(rep));
}

/// Set-up: materialize the stream, build both learner configurations and
/// construct both strategies and learners once.
Result<LearnerSetup> BuildSetup(const Options& o) {
  LearnerSetup setup;
  // The population (environments, group bias, drift) is fixed, like a
  // dataset; the seed draws this run's samples and drives the learner.
  faction::StreamScale scale;
  scale.samples_per_task = o.samples_per_task;
  scale.seed = kNysfWorldSeed;
  FACTION_ASSIGN_OR_RETURN(faction::StreamBlueprint blueprint,
                           faction::MakePaperBlueprint("nysf", scale));
  blueprint.world_seed = faction::SubSeed(o.seed, "perfbench/nysf");
  FACTION_ASSIGN_OR_RETURN(setup.stream, faction::MaterializeStream(blueprint));
  const std::size_t dim = setup.stream.front().dim();
  const std::uint64_t learner_seed = LearnerSeed(o, 0);
  setup.faction =
      faction::MakeLearnerConfig(setup.defaults, dim, "FACTION", learner_seed);
  setup.random =
      faction::MakeLearnerConfig(setup.defaults, dim, "Random", learner_seed);
  for (const char* method : {"FACTION", "Random"}) {
    FACTION_ASSIGN_OR_RETURN(std::unique_ptr<QueryStrategy> strategy,
                             faction::MakeStrategy(method, setup.defaults));
    faction::OnlineLearner learner(
        std::string(method) == "FACTION" ? setup.faction : setup.random,
        strategy.get());
  }
  return setup;
}

/// Builds the set-up once more and records how long it took; keeps the
/// result in `*setup` when given. Set-ups repeat between the measured pairs
/// too, so their median spans the run rather than the host's state at its
/// start.
bool TimeSetup(const Options& o, std::vector<double>* setup_s,
               LearnerSetup* setup) {
  const Clock::time_point start = Clock::now();
  Result<LearnerSetup> built = BuildSetup(o);
  setup_s->push_back(SecondsSince(start));
  if (!built.ok()) {
    std::cerr << "perfbench: set-up failed: " << built.status().ToString()
              << "\n";
    return false;
  }
  if (setup != nullptr) *setup = std::move(built).value();
  return true;
}

struct LearnerRun {
  RunResult result;
  double seconds = 0.0;
  /// Latency of each acquisition round: from the previous round's batch
  /// (or the start of the run) to this round's batch.
  std::vector<double> round_ms;
};

/// One run of Algorithm 1 with a fresh strategy, so every run starts from
/// the same state, and the given learner seed. With a tracer, the
/// decorators record spans under a "stream.run" root.
Result<LearnerRun> RunMethod(const LearnerSetup& setup,
                             const std::string& method,
                             std::uint64_t learner_seed, Tracer* tracer,
                             LayerCounts* counts, std::uint64_t run_id) {
  FACTION_ASSIGN_OR_RETURN(std::unique_ptr<QueryStrategy> inner,
                           faction::MakeStrategy(method, setup.defaults));
  LayerCounts local_counts;
  if (counts == nullptr) counts = &local_counts;
  std::vector<Clock::time_point> round_ends;
  TimedStrategy strategy(inner.get(), tracer, counts, &round_ends);
  OnlineLearnerConfig config =
      method == "FACTION" ? setup.faction : setup.random;
  config.seed = learner_seed;
  if (tracer != nullptr) {
    const faction::MlpConfig model = config.model;
    config.model_factory =
        [model, tracer, counts](faction::Rng* rng)
        -> std::unique_ptr<FeatureClassifier> {
      return std::make_unique<TimedClassifier>(
          std::make_unique<faction::MlpClassifier>(model, rng), tracer,
          counts);
    };
  }
  faction::OnlineLearner learner(std::move(config), &strategy);
  const Clock::time_point start = Clock::now();
  Result<RunResult> result = [&] {
    ScopedSpan span(tracer, "stream.run", run_id);
    return learner.Run(setup.stream);
  }();
  LearnerRun run;
  run.seconds = SecondsSince(start);
  if (!result.ok()) return result.status();
  run.result = std::move(result).value();
  Clock::time_point previous = start;
  for (const Clock::time_point end : round_ends) {
    run.round_ms.push_back(
        std::chrono::duration<double, std::milli>(end - previous).count());
    previous = end;
  }
  return run;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Per-task metrics compared bit for bit; wall-clock fields excluded.
bool SameResults(const RunResult& a, const RunResult& b) {
  if (a.per_task.size() != b.per_task.size()) return false;
  for (std::size_t t = 0; t < a.per_task.size(); ++t) {
    const faction::TaskMetrics& x = a.per_task[t];
    const faction::TaskMetrics& y = b.per_task[t];
    if (!SameBits(x.accuracy, y.accuracy) || !SameBits(x.ddp, y.ddp) ||
        !SameBits(x.eod, y.eod) || !SameBits(x.mi, y.mi) ||
        !SameBits(x.nll, y.nll) ||
        !SameBits(x.fairness_violation, y.fairness_violation) ||
        x.queries_used != y.queries_used) {
      return false;
    }
  }
  return true;
}

void CheckRun(const Result<LearnerRun>& run, const LearnerSetup& setup,
              const std::string& what, Report* report) {
  report->Check(run.ok(), what + " run succeeds" +
                              (run.ok() ? "" : ": " + run.status().ToString()));
  if (!run.ok()) return;
  const RunResult& result = run.value().result;
  report->Check(result.total_queries ==
                    setup.stream.size() * setup.defaults.budget_per_task,
                what + " spends the full label budget on every task");
  report->Check(std::isfinite(result.summary.mean_accuracy) &&
                    result.summary.mean_accuracy > 0.5 &&
                    std::isfinite(result.summary.mean_ddp),
                what + " stream metrics are finite and beat chance");
}

/// End-to-end runs with tracing off: FACTION/Random pairs until the run's
/// time is used, and at least kMinRuns pairs, each pair with its own
/// learner seed. Run times are the fastest of their runs. Interference from
/// the host only adds time, and on a shared 4-vCPU host it came and went
/// within seconds (nysf-2k Random runs took 0.59 to 0.93 s within one
/// 20 s run), so the fastest run tracks the program's own cost where the
/// median still moved with the host. p50_ms is the median acquisition round
/// of the fastest FACTION run. Accuracy and DDP are FACTION's means over the
/// first kMinRuns pairs, so they follow from the seed alone, not from how
/// many pairs fit in the time.
int TimedRuns(const Options& o, const LearnerSetup& setup,
              std::vector<double>* setup_s, Report* report) {
  std::vector<double> run_s[2];
  std::vector<double> accuracy, ddp;
  std::vector<double> rounds, fastest_rounds;
  std::size_t rounds_per_run = 0;
  const char* const methods[2] = {"FACTION", "Random"};
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const Clock::time_point pair_start = Clock::now();
    for (int m = 0; m < 2; ++m) {
      const Result<LearnerRun> run = RunMethod(
          setup, methods[m], LearnerSeed(o, rep), nullptr, nullptr, rep);
      CheckRun(run, setup, methods[m], report);
      if (!TimeSetup(o, setup_s, nullptr)) return 1;
      if (!run.ok()) continue;
      const LearnerRun& r = run.value();
      if (m == 0 && (run_s[0].empty() || r.seconds < Fastest(run_s[0]))) {
        fastest_rounds = r.round_ms;
      }
      run_s[m].push_back(r.seconds);
      if (m == 0) {
        if (rep < kMinRuns) {
          accuracy.push_back(r.result.summary.mean_accuracy);
          ddp.push_back(r.result.summary.mean_ddp);
        }
        if (rounds_per_run == 0) rounds_per_run = r.round_ms.size();
        rounds.insert(rounds.end(), r.round_ms.begin(), r.round_ms.end());
      }
    }
    const double pair_s = SecondsSince(pair_start);
    if (rep + 1 >= kMinRuns && SecondsSince(start) + pair_s > o.seconds) {
      break;
    }
  }
  if (accuracy.empty() || run_s[1].empty()) return 1;
  // The tail percentile follows from the guaranteed sample count, so it
  // does not change with how many runs fit in the time.
  const int tail = TailPermille(kMinRuns * rounds_per_run);
  auto& v = report->values;
  v["run_s"] = Fastest(run_s[0]);
  v["ref_run_s"] = Fastest(run_s[1]);
  v["p50_ms"] = Median(fastest_rounds);
  v["latency.tail_ms"] = Percentile(rounds, tail);
  v["accuracy"] = Mean(accuracy);
  v["ddp"] = Mean(ddp);
  std::cout << run_s[0].size() << " FACTION and " << run_s[1].size()
            << " Random runs; FACTION/Random " << v["run_s"] / v["ref_run_s"]
            << " (fastest runs, medians " << Median(run_s[0]) << " and "
            << Median(run_s[1]) << " s); acquisition-round latency p"
            << tail / 10.0 << " " << v["latency.tail_ms"] << " ms over "
            << rounds.size() << " rounds\n";
  return 0;
}

/// Per-layer runs: untraced and traced FACTION runs alternating
/// kTracedPairs times, a Random run for reference, and a FACTION run with
/// the program's telemetry counters on. Every instrumented run must
/// reproduce the untraced per-task metrics bit for bit. Layer times are
/// per-run means over the traced runs.
int TracedRuns(const Options& o, const LearnerSetup& setup, Report* report) {
  const std::uint64_t seed = LearnerSeed(o, 0);
  Tracer tracer;
  LayerCounts counts;
  std::vector<double> plain_s, traced_s, rounds;
  RunResult reference;
  for (int k = 0; k < kTracedPairs; ++k) {
    const Result<LearnerRun> plain =
        RunMethod(setup, "FACTION", seed, nullptr, nullptr, 2 * k);
    CheckRun(plain, setup, "FACTION", report);
    const Result<LearnerRun> traced =
        RunMethod(setup, "FACTION", seed, &tracer, &counts, 2 * k + 1);
    CheckRun(traced, setup, "traced FACTION", report);
    if (!plain.ok() || !traced.ok()) return 1;
    report->Check(SameResults(plain.value().result, traced.value().result),
                  "traced run is bitwise identical to the untraced run");
    plain_s.push_back(plain.value().seconds);
    traced_s.push_back(traced.value().seconds);
    if (k == 0) {
      reference = plain.value().result;
      rounds = plain.value().round_ms;
    }
  }
  const Result<LearnerRun> random =
      RunMethod(setup, "Random", seed, nullptr, nullptr, 2 * kTracedPairs);
  CheckRun(random, setup, "Random", report);
  faction::Telemetry* telemetry = faction::Telemetry::Enable();
  telemetry->Reset();
  const Result<LearnerRun> counted = RunMethod(
      setup, "FACTION", seed, nullptr, nullptr, 2 * kTracedPairs + 1);
  faction::Telemetry::Disable();
  CheckRun(counted, setup, "counted FACTION", report);
  if (!random.ok() || !counted.ok()) return 1;
  report->Check(SameResults(reference, counted.value().result),
                "run with telemetry on is bitwise identical to the untraced "
                "run");

  const std::map<std::string, SpanTotals> totals = tracer.Totals();
  const auto per_run = [](double total) { return total / kTracedPairs; };
  const auto span = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  auto& v = report->values;
  v["core.select_s"] = per_run(span("core.select").total_s);
  v["core.select_self_s"] = per_run(span("core.select").self_s);
  v["core.select_calls"] = per_run(counts.select_calls);
  v["core.candidate_rows"] = per_run(counts.candidate_rows);
  v["nn.train_fwd_s"] = per_run(span("nn.train_fwd").total_s);
  v["nn.train_bwd_s"] = per_run(span("nn.train_bwd").total_s);
  v["nn.train_rows"] = per_run(counts.train_rows);
  v["nn.select_infer_s"] = per_run(span("nn.select_infer").total_s);
  v["nn.eval_infer_s"] = per_run(span("nn.eval_infer").total_s);
  v["stream.self_s"] = per_run(span("stream.run").self_s);
  v["nn.trainer_steps"] =
      static_cast<double>(telemetry->CounterValue("trainer.steps"));
  v["density.fits"] =
      static_cast<double>(telemetry->CounterValue("density.fair_fit"));
  v["density.updates"] =
      static_cast<double>(telemetry->CounterValue("density.fair_update"));
  v["tensor.gemm_calls"] =
      static_cast<double>(telemetry->CounterValue("simd.gemm_calls"));
  v["tensor.gemm_flops"] = telemetry->HistogramFor("simd.gemm_flops").sum;

  v["latency.tail_ms"] = Percentile(rounds, TailPermille(rounds.size()));
  const double run_s = Median(plain_s);
  v["faction_over_random"] = run_s / random.value().seconds;
  v["trace.overhead_s"] = Median(traced_s) - run_s;
  // Reconciliation: the layer self times of a traced run must add up to
  // the untraced end-to-end run time.
  double self_s = 0.0;
  for (const auto& [name, t] : totals) self_s += per_run(t.self_s);
  const double residual = (self_s - run_s) / run_s;
  v["reconcile.learner_residual"] = residual;
  std::cout << "reconcile: layer self times sum to " << self_s
            << " s against untraced run_s " << run_s << " s, residual "
            << residual << " (tolerance " << kReconcileTolerance << ": "
            << (std::fabs(residual) <= kReconcileTolerance ? "within"
                                                           : "OUTSIDE")
            << ")\n";
  const std::string path = o.scratch + "/spans-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".jsonl";
  report->Check(tracer.WriteJsonl(path), "spans written to " + path);
  return 0;
}

}  // namespace

int RunLearnerWorkload(const Options& o, Report* report) {
  LearnerSetup setup;
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    if (!TimeSetup(o, &setup_s, &setup)) return 1;
  }
  const int rc = o.trace ? TracedRuns(o, setup, report)
                         : TimedRuns(o, setup, &setup_s, report);
  report->values["setup_s"] = Median(setup_s);
  return rc;
}

}  // namespace perfbench
