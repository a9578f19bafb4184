#include "nn/trainer.h"

#include <algorithm>
#include <cstdint>

#include "common/telemetry.h"
#include "nn/optimizer.h"

namespace faction {

namespace {

bool AllInRange(const double* v, std::size_t n) {
  std::uint64_t in_range = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) in_range &= InRangeBits(v[i]);
  return (in_range >> 63) != 0;
}

// Copies every parameter into (save) or out of (!save) one flat buffer.
void CopyParameters(const std::vector<Matrix*>& params, bool save,
                    double* flat) {
  for (Matrix* p : params) {
    if (save) {
      std::copy(p->data(), p->data() + p->size(), flat);
    } else {
      std::copy(flat, flat + p->size(), p->data());
    }
    flat += p->size();
  }
}

}  // namespace

Result<TrainReport> TrainClassifier(FeatureClassifier* model,
                                    const Dataset& labeled,
                                    const TrainConfig& config, Rng* rng,
                                    Workspace* workspace) {
  if (labeled.empty()) {
    return Status::FailedPrecondition("cannot train on an empty dataset");
  }
  if (labeled.dim() != model->input_dim()) {
    return Status::InvalidArgument(
        "dataset dimension " + std::to_string(labeled.dim()) +
        " does not match model input " +
        std::to_string(model->input_dim()));
  }
  if (config.epochs <= 0 || config.batch_size == 0) {
    return Status::InvalidArgument("epochs and batch_size must be positive");
  }
  TelemetryCount("trainer.calls");
  ScopedTimer train_timer("trainer.seconds");

  SgdOptimizer opt(config.learning_rate, config.momentum,
                   config.weight_decay);
  const std::vector<Matrix*> params = model->Parameters();
  const std::vector<Matrix*> grads = model->Gradients();
  opt.Prepare(params);  // momentum state sized up front, not mid-epoch

  TrainReport report;
  const std::size_t n = labeled.size();
  // All per-step temporaries come from the arena: sized once to the max
  // batch and reused across minibatches, epochs, and (with a caller-owned
  // workspace) across retraining rounds. Every buffer is fully overwritten
  // before use, so reuse cannot change results.
  Workspace local_workspace;
  Workspace& arena = workspace != nullptr ? *workspace : local_workspace;
  const std::size_t max_bs = std::min(n, config.batch_size);
  Matrix* x = arena.MatrixFor("trainer.x", max_bs, labeled.dim());
  Matrix* logits = arena.MatrixFor("trainer.logits", max_bs,
                                   model->num_classes());
  Matrix* dlogits = arena.MatrixFor("trainer.dlogits", max_bs,
                                    model->num_classes());
  // The loss hands the penalty the batch softmax it forms anyway.
  Matrix* proba = config.use_fairness_penalty
                      ? arena.MatrixFor("trainer.proba", max_bs,
                                        model->num_classes())
                      : nullptr;
  std::vector<int>* y = arena.IntsFor("trainer.y", max_bs);
  std::vector<int>* s = arena.IntsFor("trainer.s", max_bs);
  std::vector<std::size_t>* order = arena.SizesFor("trainer.order", n);
  // Divergence guard: the weights at entry, restored when a step's logits
  // or updated weights leave the range of InRangeBits (an over-large
  // learning rate, say), so the caller gets a Status and the model it
  // passed in. The logits are checked before the loss reads them and the
  // weights as the optimizer writes them, so no forward, spectral-norm
  // estimate included, ever sees an out-of-range weight. The copy lives
  // in the arena, not in a call-local buffer: on a 4-vCPU AVX-512 host a
  // call-local one made a 64-16 MLP's training 6-14% slower, depending on
  // where the per-call heap blocks landed.
  std::size_t param_count = 0;
  for (const Matrix* p : params) param_count += p->size();
  std::vector<double>* saved =
      arena.DoublesFor("trainer.saved_params", param_count);
  CopyParameters(params, /*save=*/true, saved->data());
  const auto diverged = [&](const char* what) {
    CopyParameters(params, /*save=*/false, saved->data());
    TelemetryCount("trainer.diverged");
    return Status::NumericalError(
        std::string("training diverged: ") + what +
        " non-finite or above 2^256 at step " +
        std::to_string(report.steps) + "; weights restored");
  };
  // Dataset::features() is an out-of-line call (it compacts lazily): read
  // the columns once, not per gathered row.
  const Matrix& features = labeled.features();
  const std::vector<int>& labels = labeled.labels();
  const std::vector<int>& sensitive = labeled.sensitive();
  const std::size_t dim = labeled.dim();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng->Permutation(n, order);
    double epoch_loss = 0.0, epoch_ce = 0.0, epoch_pen = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config.batch_size) {
      const std::size_t end = std::min(n, start + config.batch_size);
      const std::size_t bs = end - start;
      x->ResizeForOverwrite(bs, dim);
      y->resize(bs);
      s->resize(bs);
      for (std::size_t i = 0; i < bs; ++i) {
        const std::size_t idx = (*order)[start + i];
        const double* row = features.row_data(idx);
        std::copy(row, row + dim, x->row_data(i));
        (*y)[i] = labels[idx];
        (*s)[i] = sensitive[idx];
      }
      model->ForwardInto(*x, logits);
      if (!AllInRange(logits->data(), logits->size())) {
        return diverged("logits");
      }
      const double ce =
          FusedSoftmaxCrossEntropy(*logits, *y, dlogits, proba);
      double penalty = 0.0;
      if (config.use_fairness_penalty) {
        const Result<double> pen = AddFairnessPenalty(
            *proba, *y, *s, config.fairness, dlogits, &arena);
        // Batches lacking a sensitive group cannot support the notion; the
        // penalty is simply skipped for them.
        if (pen.ok()) {
          penalty = pen.value();
        } else {
          TelemetryCount("trainer.fairness_penalty_skipped");
        }
      }
      if (config.use_individual_penalty) {
        const Result<double> pen = AddIndividualFairnessPenalty(
            *x, *logits, config.individual, dlogits);
        if (pen.ok()) penalty += pen.value();
      }
      model->ZeroGrad();
      model->Backward(*dlogits);
      if (!opt.Step(params, grads)) return diverged("weights");
      ++report.steps;
      epoch_ce += ce;
      epoch_pen += penalty;
      epoch_loss += ce + penalty;
      ++batches;
    }
    if (batches > 0) {
      report.final_loss = epoch_loss / static_cast<double>(batches);
      report.final_ce = epoch_ce / static_cast<double>(batches);
      report.final_penalty = epoch_pen / static_cast<double>(batches);
    }
  }
  TelemetryCount("trainer.steps", static_cast<std::uint64_t>(report.steps));
  return report;
}

}  // namespace faction
