#ifndef FACTION_NN_TRAINER_H_
#define FACTION_NN_TRAINER_H_

#include "common/rng.h"
#include "common/status.h"
#include "common/workspace.h"
#include "data/dataset.h"
#include "fairness/individual.h"
#include "nn/loss.h"
#include "nn/mlp.h"

namespace faction {

/// Mini-batch training configuration for one (re)fit of the classifier on
/// the labeled pool D_t (Algorithm 1 lines 7-8).
struct TrainConfig {
  int epochs = 5;
  std::size_t batch_size = 64;
  /// Learning rate gamma_t; the paper keeps it constant across tasks.
  double learning_rate = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  /// Whether the fairness regularizer of Eq. 9 is applied ("w/o fair reg"
  /// ablation flips this off).
  bool use_fairness_penalty = false;
  FairnessPenaltyConfig fairness;
  /// Optional individual-fairness consistency penalty (the Sec. IV-H
  /// extension; see fairness/individual.h). Off in the paper's
  /// group-fairness experiments.
  bool use_individual_penalty = false;
  IndividualFairnessConfig individual;
};

/// Summary of one training run.
struct TrainReport {
  double final_loss = 0.0;     ///< mean total loss over the last epoch
  double final_ce = 0.0;       ///< mean cross-entropy over the last epoch
  double final_penalty = 0.0;  ///< mean fairness penalty over the last epoch
  int steps = 0;               ///< optimizer steps taken
};

/// Trains `model` on the labeled dataset with SGD+momentum using
/// L_total = L_CE + mu*(L_fair - epsilon) when the penalty is enabled.
/// Batches that cannot support the fairness notion (e.g. single-group
/// batches) silently skip the penalty, matching the practical behaviour of
/// the reference implementation.
///
/// All per-step temporaries (batch gather buffer, label/sensitive vectors,
/// the shuffled index order, dlogits, per-row loss scratch) live in a
/// Workspace and are reused across minibatches and epochs. Pass a
/// persistent `workspace` to also reuse them across calls — the online
/// learner retrains every round, so this removes the per-round allocation
/// churn; results are identical with or without it (buffers are fully
/// overwritten each step). When `workspace` is null a call-local arena is
/// used.
///
/// Divergence guard: when a step's logits or updated weights are not
/// finite, or reach 2^256 in magnitude (an over-large learning rate, say),
/// the weights saved at entry are restored and a NumericalError is
/// returned. The spectral-norm estimate of each layer is not rolled back.
Result<TrainReport> TrainClassifier(FeatureClassifier* model,
                                    const Dataset& labeled,
                                    const TrainConfig& config, Rng* rng,
                                    Workspace* workspace = nullptr);

}  // namespace faction

#endif  // FACTION_NN_TRAINER_H_
