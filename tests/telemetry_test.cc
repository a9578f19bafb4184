// Telemetry registry + JSONL trace: counter/gauge/histogram semantics,
// the trace schema golden, and the two determinism contracts — disabling
// telemetry leaves results bitwise unchanged, and counter values do not
// depend on the worker-thread count.
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/alloc_audit.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/presets.h"
#include "data/streams.h"
#include "gtest/gtest.h"
#include "stream/trace.h"
#include "tensor/simd.h"

namespace faction {
namespace {

// The registry is process-global: every test starts from a clean, enabled
// slate and leaves telemetry disabled for its neighbours.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { Telemetry::Enable()->Reset(); }
  void TearDown() override {
    Telemetry::Enable()->Reset();
    Telemetry::Disable();
  }
};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ParallelThreadCount()) {}
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

std::vector<Dataset> TinyStream() {
  StationaryConfig config;
  config.scale.samples_per_task = 60;
  config.scale.seed = 11;
  config.dim = 4;
  config.num_tasks = 3;
  Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).value();
}

ExperimentDefaults TinyDefaults() {
  ExperimentDefaults d;
  d.budget_per_task = 16;
  d.acquisition_batch = 8;
  d.warm_start = 16;
  d.hidden_dims = {8};
  d.epochs = 2;
  return d;
}

std::uint64_t Bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

TEST_F(TelemetryTest, CounterSemantics) {
  TelemetryCount("test.counter");
  TelemetryCount("test.counter", 4);
  EXPECT_EQ(TelemetryCounterValue("test.counter"), 5u);
  EXPECT_EQ(TelemetryCounterValue("test.never_touched"), 0u);
  const auto counters = Telemetry::Get()->Counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "test.counter");
}

TEST_F(TelemetryTest, DisabledHelpersAreNoOps) {
  Telemetry* registry = Telemetry::Get();
  Telemetry::Disable();
  TelemetryCount("test.off");
  TelemetryGauge("test.off_gauge", 1.0);
  TelemetryObserve("test.off_hist", 1.0);
  EXPECT_EQ(Telemetry::Get(), nullptr);
  EXPECT_EQ(TelemetryCounterValue("test.off"), 0u);
  // The registry object itself retained nothing from the disabled calls.
  EXPECT_EQ(registry->CounterValue("test.off"), 0u);
  Telemetry::Enable();
}

TEST_F(TelemetryTest, GaugeLastWriteWins) {
  TelemetryGauge("test.gauge", 1.5);
  TelemetryGauge("test.gauge", -2.5);
  EXPECT_EQ(Telemetry::Get()->GaugeValue("test.gauge"), -2.5);
}

TEST_F(TelemetryTest, BucketIndexLayout) {
  // Underflow slot: anything below the first bound, including zero,
  // negatives, and NaN.
  EXPECT_EQ(Telemetry::BucketIndex(0.0), 0);
  EXPECT_EQ(Telemetry::BucketIndex(-1.0), 0);
  EXPECT_EQ(Telemetry::BucketIndex(std::nan("")), 0);
  EXPECT_EQ(Telemetry::BucketIndex(Telemetry::kFirstBound / 2), 0);
  // First real bucket starts at the first bound; bounds double.
  EXPECT_EQ(Telemetry::BucketIndex(Telemetry::kFirstBound), 1);
  EXPECT_EQ(Telemetry::BucketIndex(Telemetry::kFirstBound * 1.99), 1);
  EXPECT_EQ(Telemetry::BucketIndex(Telemetry::kFirstBound * 2.0), 2);
  // Overflow slot.
  EXPECT_EQ(Telemetry::BucketIndex(1e300), Telemetry::kNumBuckets + 1);
  // Monotonic across the whole range.
  int prev = 0;
  for (double v = Telemetry::kFirstBound; v < 1e12; v *= 3.7) {
    const int idx = Telemetry::BucketIndex(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST_F(TelemetryTest, HistogramSnapshotAccumulates) {
  TelemetryObserve("test.hist", 1e-6);
  TelemetryObserve("test.hist", 2e-6);
  TelemetryObserve("test.hist", 3e-6);
  const Telemetry::HistogramSnapshot snap =
      Telemetry::Get()->HistogramFor("test.hist");
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum, 6e-6, 1e-18);
  EXPECT_EQ(snap.min, 1e-6);
  EXPECT_EQ(snap.max, 3e-6);
  std::uint64_t total = 0;
  for (const std::uint64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, 3u);
  // A histogram never observed snapshots as empty.
  EXPECT_EQ(Telemetry::Get()->HistogramFor("test.nothing").count, 0u);
}

TEST_F(TelemetryTest, ScopedTimerRecordsOnlyWhenEnabled) {
  { ScopedTimer timer("test.scoped.seconds"); }
  EXPECT_EQ(Telemetry::Get()->HistogramFor("test.scoped.seconds").count, 1u);
  Telemetry* registry = Telemetry::Get();
  Telemetry::Disable();
  {
    ScopedTimer timer("test.scoped.seconds");
    EXPECT_EQ(timer.ElapsedSeconds(), 0.0);
  }
  Telemetry::Enable();
  EXPECT_EQ(registry->HistogramFor("test.scoped.seconds").count, 1u);
}

TEST_F(TelemetryTest, MarkdownRendersSections) {
  TelemetryCount("test.counter", 7);
  TelemetryGauge("test.gauge", 0.5);
  TelemetryObserve("test.hist", 1.0);
  std::ostringstream os;
  Telemetry::Get()->WriteMarkdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("## Telemetry"), std::string::npos);
  EXPECT_NE(out.find("test.counter"), std::string::npos);
  EXPECT_NE(out.find("test.gauge"), std::string::npos);
  EXPECT_NE(out.find("test.hist"), std::string::npos);
}

// ------------------------------------------------------------ TraceWriter

TEST_F(TelemetryTest, TraceSchemaGolden) {
  std::ostringstream os;
  TraceWriter writer(&os);
  ASSERT_TRUE(writer.WriteRunStart("FACTION \"quoted\"").ok());
  TaskTraceRecord r;
  r.task_index = 2;
  r.environment = 1;
  r.queries_spent = 16;
  r.acquisition_batches = 2;
  r.train_steps = 12;
  r.density_refit_mode = "incremental";
  r.drift_fired = 1;
  r.accuracy = 0.75;
  r.nll = 0.5;
  r.ddp = 0.0;
  r.ddp_defined = false;  // emitted as null
  r.eod = 0.125;
  r.mi = 0.25;
  r.wall_evaluate_seconds = 0.5;
  r.wall_acquire_seconds = 0.25;
  r.wall_train_seconds = 1.0;
  r.wall_task_seconds = 2.0;
  ASSERT_TRUE(writer.WriteTask(r).ok());
  ASSERT_TRUE(writer.WriteRunEnd(3, 48, 1).ok());

  const std::string expected =
      "{\"type\":\"run_start\",\"schema_version\":7,"
      "\"strategy\":\"FACTION \\\"quoted\\\"\",\"simd_level\":\"" +
      std::string(SimdLevelName(ActiveSimdLevel())) + "\",\"alloc_audit\":\"" +
      std::string(AllocAuditMode()) +
      "\",\"density\":{\"window\":0,\"decay\":1},"
      "\"scenario\":{\"spec\":\"none\",\"world_seed\":0},"
      "\"checkpoint\":{\"enabled\":false,\"interval_steps\":0}}\n"
      "{\"type\":\"task\",\"task_index\":2,\"environment\":1,"
      "\"queries\":16,\"acquisition_batches\":2,\"train_steps\":12,"
      "\"density_refit_mode\":\"incremental\",\"drift_fired\":1,"
      "\"metrics\":{\"accuracy\":0.75,\"nll\":0.5,\"ddp\":null,"
      "\"eod\":0.125,\"mi\":0.25},"
      "\"metric_defined\":{\"ddp\":false,\"eod\":true,\"mi\":true},"
      "\"wall\":{\"evaluate_seconds\":0.5,\"acquire_seconds\":0.25,"
      "\"train_seconds\":1,\"task_seconds\":2}}\n"
      "{\"type\":\"run_end\",\"tasks\":3,\"total_queries\":48,"
      "\"undefined_metric_tasks\":1}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST_F(TelemetryTest, TraceRunStartScenarioObjectGolden) {
  std::ostringstream os;
  TraceWriter writer(&os);
  TraceWriter::ScenarioInfo scenario;
  scenario.spec = "rcmnist;drift=recurring:2;order=adversarial";
  scenario.world_seed = 1042;
  TraceWriter::CheckpointInfo checkpoint;
  checkpoint.enabled = true;
  checkpoint.interval_steps = 64;
  ASSERT_TRUE(writer.WriteRunStart("Bandit", {}, scenario, checkpoint).ok());
  const std::string expected =
      "{\"type\":\"run_start\",\"schema_version\":7,"
      "\"strategy\":\"Bandit\",\"simd_level\":\"" +
      std::string(SimdLevelName(ActiveSimdLevel())) + "\",\"alloc_audit\":\"" +
      std::string(AllocAuditMode()) +
      "\",\"density\":{\"window\":0,\"decay\":1},"
      "\"scenario\":{\"spec\":\"rcmnist;drift=recurring:2;order=adversarial\","
      "\"world_seed\":1042},"
      "\"checkpoint\":{\"enabled\":true,\"interval_steps\":64}}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST_F(TelemetryTest, JsonHelpers) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

// A real (tiny) run writes a parseable trace: run_start first, run_end
// last, one task line per task, with the counter-derived fields populated.
TEST_F(TelemetryTest, EndToEndRunProducesTrace) {
  std::ostringstream os;
  TraceWriter writer(&os);
  ExperimentDefaults defaults = TinyDefaults();
  defaults.trace = &writer;
  const std::vector<Dataset> tasks = TinyStream();
  const Result<RunResult> run =
      RunMethodOnStream("FACTION", tasks, defaults, 5);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::istringstream lines(os.str());
  std::string line;
  std::vector<std::string> records;
  while (std::getline(lines, line)) records.push_back(line);
  ASSERT_EQ(records.size(), tasks.size() + 2);
  EXPECT_NE(records.front().find("\"type\":\"run_start\""),
            std::string::npos);
  EXPECT_NE(records.back().find("\"type\":\"run_end\""), std::string::npos);
  for (std::size_t i = 1; i + 1 < records.size(); ++i) {
    EXPECT_NE(records[i].find("\"type\":\"task\""), std::string::npos);
    // Telemetry is on, so the refit mode is resolved, never "unknown".
    EXPECT_EQ(records[i].find("\"density_refit_mode\":\"unknown\""),
              std::string::npos);
  }
  // The learner's own counters saw the run.
  EXPECT_EQ(TelemetryCounterValue("learner.tasks"), tasks.size());
  EXPECT_EQ(TelemetryCounterValue("evaluator.tasks"), tasks.size());
  EXPECT_GT(TelemetryCounterValue("trainer.calls"), 0u);
  EXPECT_GT(TelemetryCounterValue("faction.density_full_refit") +
                TelemetryCounterValue("faction.density_incremental_refit"),
            0u);
}

// Determinism contract #1: enabling telemetry + tracing must not change a
// single bit of the learner's results.
TEST_F(TelemetryTest, TracingLeavesResultsBitwiseUnchanged) {
  const std::vector<Dataset> tasks = TinyStream();
  Telemetry::Disable();
  const Result<RunResult> plain =
      RunMethodOnStream("FACTION", tasks, TinyDefaults(), 5);
  ASSERT_TRUE(plain.ok());

  Telemetry::Enable()->Reset();
  std::ostringstream os;
  TraceWriter writer(&os);
  ExperimentDefaults traced_defaults = TinyDefaults();
  traced_defaults.trace = &writer;
  const Result<RunResult> traced =
      RunMethodOnStream("FACTION", tasks, traced_defaults, 5);
  ASSERT_TRUE(traced.ok());

  ASSERT_EQ(plain.value().per_task.size(), traced.value().per_task.size());
  for (std::size_t i = 0; i < plain.value().per_task.size(); ++i) {
    const TaskMetrics& a = plain.value().per_task[i];
    const TaskMetrics& b = traced.value().per_task[i];
    EXPECT_EQ(Bits(a.accuracy), Bits(b.accuracy));
    EXPECT_EQ(Bits(a.nll), Bits(b.nll));
    EXPECT_EQ(Bits(a.ddp), Bits(b.ddp));
    EXPECT_EQ(Bits(a.eod), Bits(b.eod));
    EXPECT_EQ(Bits(a.mi), Bits(b.mi));
    EXPECT_EQ(Bits(a.fairness_violation), Bits(b.fairness_violation));
    EXPECT_EQ(a.queries_used, b.queries_used);
  }
  EXPECT_EQ(Bits(plain.value().cumulative_violation),
            Bits(traced.value().cumulative_violation));
}

// Determinism contract #2: counters are bumped only from serial
// orchestration code, so their values are identical for any worker-thread
// count.
TEST_F(TelemetryTest, CountersIndependentOfThreadCount) {
  ThreadCountGuard guard;
  const std::vector<Dataset> tasks = TinyStream();

  SetParallelThreadCount(1);
  Telemetry::Enable()->Reset();
  ASSERT_TRUE(RunMethodOnStream("FACTION", tasks, TinyDefaults(), 5).ok());
  std::vector<std::pair<std::string, std::uint64_t>> single;
  for (const auto& kv : Telemetry::Get()->Counters()) {
    if (kv.first.find(".seconds") == std::string::npos) single.push_back(kv);
  }

  SetParallelThreadCount(8);
  Telemetry::Enable()->Reset();
  ASSERT_TRUE(RunMethodOnStream("FACTION", tasks, TinyDefaults(), 5).ok());
  std::vector<std::pair<std::string, std::uint64_t>> eight;
  for (const auto& kv : Telemetry::Get()->Counters()) {
    if (kv.first.find(".seconds") == std::string::npos) eight.push_back(kv);
  }

  EXPECT_EQ(single, eight);
  EXPECT_FALSE(single.empty());
}

}  // namespace
}  // namespace faction
