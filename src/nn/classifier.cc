#include "nn/classifier.h"

#include "common/check.h"
#include "common/workspace.h"
#include "tensor/ops.h"

namespace faction {

void FeatureClassifier::ForwardInto(const Matrix& x, Matrix* out) {
  // Default: one temporary from Forward; the copy-assign into *out reuses
  // its capacity across same-shape batches.
  *out = Forward(x);
}

void FeatureClassifier::LogitsInto(const Matrix& x, Workspace* /*ws*/,
                                   Matrix* out) const {
  *out = Logits(x);
}

void FeatureClassifier::ExtractFeaturesInto(const Matrix& x,
                                            Workspace* /*ws*/,
                                            Matrix* out) const {
  *out = ExtractFeatures(x);
}

void FeatureClassifier::ExtractFeaturesAndProbaInto(const Matrix& x,
                                                    Workspace* ws,
                                                    Matrix* features,
                                                    Matrix* proba) const {
  ExtractFeaturesInto(x, ws, features);
  PredictProbaInto(x, ws, proba);
}

void FeatureClassifier::PredictProbaInto(const Matrix& x, Workspace* ws,
                                         Matrix* out) const {
  Matrix* logits =
      ws->MatrixFor("classifier.proba_logits", x.rows(), num_classes());
  LogitsInto(x, ws, logits);
  SoftmaxRowsInto(*logits, out);
}

void FeatureClassifier::CopyParametersFrom(const FeatureClassifier& other) {
  const std::vector<const Matrix*> from = other.Parameters();
  std::vector<Matrix*> to = Parameters();
  FACTION_CHECK_LEN(from, to.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    FACTION_CHECK_SAME_SHAPE(*from[i], *to[i]);
    *to[i] = *from[i];
  }
}

Matrix FeatureClassifier::PredictProba(const Matrix& x) const {
  return SoftmaxRows(Logits(x));
}

std::vector<int> FeatureClassifier::Predict(const Matrix& x) const {
  const Matrix logits = Logits(x);
  std::vector<int> out(logits.rows());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* row = logits.row_data(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

}  // namespace faction
