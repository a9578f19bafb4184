#include "stream/evaluator.h"

#include <cmath>
#include <limits>

#include "common/telemetry.h"
#include "common/workspace.h"
#include "fairness/metrics.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace faction {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Unpacks a fairness-metric Result into (value, defined), bumping the
/// telemetry counter when the metric is undefined on this task.
double MetricValue(const Result<double>& r, bool* defined,
                   const char* undefined_counter) {
  *defined = r.ok();
  if (!r.ok()) {
    TelemetryCount(undefined_counter);
    return kNan;
  }
  return r.value();
}

}  // namespace

Result<TaskMetrics> EvaluateOnTask(const FeatureClassifier& model,
                                   const Dataset& task,
                                   FairnessNotion notion) {
  if (task.empty()) {
    return Status::InvalidArgument("EvaluateOnTask: empty task");
  }
  ScopedTimer timer("evaluator.seconds");
  TelemetryCount("evaluator.tasks");
  TaskMetrics m;
  m.environment = task.environments()[0];

  // One fused trunk pass through the allocation-free path; the logits and
  // probabilities live in this call's workspace.
  Workspace ws;
  Matrix& logits = *ws.MatrixFor("evaluator.logits", 0, 0);
  model.LogitsInto(task.features(), &ws, &logits);
  std::vector<int> yhat(task.size());
  for (std::size_t i = 0; i < task.size(); ++i) {
    yhat[i] = logits(i, 1) > logits(i, 0) ? 1 : 0;
  }

  FACTION_ASSIGN_OR_RETURN(m.accuracy, Accuracy(yhat, task.labels()));
  m.nll = SoftmaxNll(logits, task.labels());

  // Fairness metrics can be undefined on degenerate tasks (one group or
  // one label). Record them as NaN + cleared flag — NOT 0.0: a coerced
  // zero reads as perfect fairness, silently flattering exactly the
  // quantities the paper reports (Fig. 2, Table I).
  m.ddp = MetricValue(DemographicParityDifference(yhat, task.sensitive()),
                      &m.ddp_defined, "evaluator.ddp_undefined");
  m.eod = MetricValue(
      EqualizedOddsDifference(yhat, task.labels(), task.sensitive()),
      &m.eod_defined, "evaluator.eod_undefined");
  m.mi = MetricValue(MutualInformation(yhat, task.sensitive()),
                     &m.mi_defined, "evaluator.mi_undefined");
  if (m.AnyMetricUndefined()) {
    TelemetryCount("evaluator.metric_undefined_tasks");
  }

  // Violation term of Theorem 1: [v(D_t, theta_t)]_+ on the relaxed notion,
  // scored with the model's class-1 probabilities.
  Matrix& proba = *ws.MatrixFor("evaluator.proba", 0, 0);
  SoftmaxRowsInto(logits, &proba);
  std::vector<double> scores(task.size());
  for (std::size_t i = 0; i < task.size(); ++i) scores[i] = proba(i, 1);
  const Result<double> v =
      RelaxedFairness(notion, scores, task.sensitive(), task.labels());
  if (v.ok()) m.fairness_violation = std::max(0.0, v.value());

  return m;
}

StreamSummary Summarize(const std::vector<TaskMetrics>& per_task) {
  StreamSummary s;
  if (per_task.empty()) return s;
  double ddp_sum = 0.0, eod_sum = 0.0, mi_sum = 0.0;
  for (const TaskMetrics& m : per_task) {
    s.mean_accuracy += m.accuracy;
    if (m.ddp_defined) {
      ddp_sum += m.ddp;
      ++s.ddp_defined_tasks;
    }
    if (m.eod_defined) {
      eod_sum += m.eod;
      ++s.eod_defined_tasks;
    }
    if (m.mi_defined) {
      mi_sum += m.mi;
      ++s.mi_defined_tasks;
    }
    if (m.AnyMetricUndefined()) ++s.undefined_metric_tasks;
    s.total_seconds += m.seconds;
    s.total_queries += m.queries_used;
  }
  s.mean_accuracy /= static_cast<double>(per_task.size());
  // Undefined tasks are excluded from the means; a metric defined on no
  // task has an undefined mean (NaN), never a fabricated zero.
  constexpr double kNoTasks = std::numeric_limits<double>::quiet_NaN();
  s.mean_ddp = s.ddp_defined_tasks > 0
                   ? ddp_sum / static_cast<double>(s.ddp_defined_tasks)
                   : kNoTasks;
  s.mean_eod = s.eod_defined_tasks > 0
                   ? eod_sum / static_cast<double>(s.eod_defined_tasks)
                   : kNoTasks;
  s.mean_mi = s.mi_defined_tasks > 0
                  ? mi_sum / static_cast<double>(s.mi_defined_tasks)
                  : kNoTasks;
  return s;
}

}  // namespace faction
