// FACTION_HOT: CaptureSessionState runs on the serve dispatch path (the
// drain holder flips a snapshot buffer between drains), so this TU opts
// into the no-alloc-in-hot gate. Everything else — encode, decode and
// restore — is cold and fenced.

#include "serve/state_codec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/hexfloat.h"
#include "common/workspace.h"
#include "data/dataset.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace faction {

/// The single befriended accessor: every read or write of private
/// checkpointed state funnels through these static helpers, so the set of
/// fields the checkpoint covers is auditable in one place.
struct StateCodecAccess {
  // ----------------------------------------------------------- capture
  // Hot-path legal: copy assignments only (std::vector and Matrix
  // operator= reuse capacity), no local container construction.

  static void CaptureGaussian(const Gaussian& g, GaussianSnapshot* out) {
    out->count = g.count_;
    out->weight = g.weight_;
    out->ridge = g.ridge_;
    out->log_det = g.log_det_;
    out->forgetting = g.forgetting_;
    out->mean = g.mean_;
    out->sum = g.sum_;
    out->chol = g.chol_;
    out->scatter = g.scatter_;
  }

  static void CaptureDensity(const std::optional<FairDensityEstimator>& est,
                             DensitySnapshot* out) {
    out->has_value = est.has_value();
    if (!est.has_value()) return;
    const FairDensityEstimator& e = *est;
    out->dim = e.dim_;
    out->domain = e.domain_;
    out->forgetting = e.forgetting_;
    out->total = e.total_;
    out->wtotal = e.wtotal_;
    out->cells.resize(e.components_.size());
    for (std::size_t c = 0; c < out->cells.size(); ++c) {
      DensityCellSnapshot& cell = out->cells[c];
      cell.present = e.present_[c];
      cell.count = e.counts_[c];
      cell.wcount = e.wcounts_[c];
      cell.weight = e.weights_[c];
      cell.log_weight = e.log_weights_[c];
      if (cell.present) CaptureGaussian(e.components_[c], &cell.component);
    }
  }

  static void CaptureLinear(const Linear& layer, Matrix* w, Matrix* b,
                            LinearSnapshot* out) {
    *w = layer.w_;
    *b = layer.b_;
    out->scale = layer.scale_;
    out->sigma = layer.sigma_;
    out->sn_sigma = layer.sn_est_.sigma;
    out->sn_u = layer.sn_est_.u;
    out->sn_v = layer.sn_est_.v;
    out->sn_rng = layer.sn_rng_.SaveState();
  }

  static void Capture(const StreamingFaction& f, SessionState* out) {
    out->config = f.config_;
    out->rng = f.rng_.SaveState();

    const MlpClassifier& model = *f.model_;
    const std::size_t num_linear = model.hidden_.size() + 1;
    out->params.resize(2 * num_linear);
    out->layers.resize(num_linear);
    for (std::size_t i = 0; i < model.hidden_.size(); ++i) {
      CaptureLinear(*model.hidden_[i], &out->params[2 * i],
                    &out->params[2 * i + 1], &out->layers[i]);
    }
    CaptureLinear(*model.head_, &out->params[2 * num_linear - 2],
                  &out->params[2 * num_linear - 1],
                  &out->layers[num_linear - 1]);

    // Pool: read features_ directly — features() would compact the matrix
    // and discard the spare rows the zero-alloc steady state depends on.
    // The first size() rows of features_ are the valid data (row-major).
    const Dataset& pool = f.pool_;
    const std::size_t n = pool.labels_.size();
    const std::size_t d = pool.dim_;
    out->pool_size = n;
    // Grow the destination to the pool's *reserved* shape first, then trim
    // to n rows: capacity is retained, so captures between pool growths
    // are allocation-free even as n creeps up toward the reserve.
    const std::size_t reserve = n + f.config_.refit_interval + 1;
    out->pool_features.ResizeForOverwrite(reserve, d);
    out->pool_features.ResizeForOverwrite(n, d);
    std::copy(pool.features_.data(), pool.features_.data() + n * d,
              out->pool_features.data());
    out->pool_labels = pool.labels_;
    out->pool_sensitive = pool.sensitive_;
    out->pool_environments = pool.environments_;
    out->pool_labels.reserve(reserve);
    out->pool_sensitive.reserve(reserve);
    out->pool_environments.reserve(reserve);

    // Ring: canonicalize oldest-first so restore can rebuild with
    // ring_start_ = 0 (slot layout is unobservable).
    const DensityWindow& w = f.density_;
    const std::size_t rn = w.ring_size_;
    const std::size_t rd = w.ring_z_.cols();
    out->ring_size = rn;
    out->ring_z.ResizeForOverwrite(rn, rd);
    out->ring_label.resize(rn);
    out->ring_sensitive.resize(rn);
    out->ring_weight.resize(rn);
    const std::size_t cap = w.ring_label_.size();
    for (std::size_t i = 0; i < rn; ++i) {
      const std::size_t slot = (w.ring_start_ + i) % cap;
      std::copy(w.ring_z_.row_data(slot), w.ring_z_.row_data(slot) + rd,
                out->ring_z.row_data(i));
      out->ring_label[i] = w.ring_label_[slot];
      out->ring_sensitive[i] = w.ring_sensitive_[slot];
      out->ring_weight[i] = w.ring_weight_[slot];
    }

    CaptureDensity(w.estimator_, &out->density);

    out->norm_count = f.normalizer_.count();
    out->norm_min = f.normalizer_.min();
    out->norm_max = f.normalizer_.max();

    out->seen = f.seen_;
    out->queried = f.queried_;
    out->labels_since_refit = f.labels_since_refit_;
    out->trained_once = f.trained_once_;
  }

  // FACTION_COLD_BEGIN (restore: warm-start path, may allocate freely)

  static Status RestoreLinear(const LinearSnapshot& snap, const Matrix& w,
                              const Matrix& b, Linear* layer) {
    if (w.rows() != layer->w_.rows() || w.cols() != layer->w_.cols() ||
        b.rows() != layer->b_.rows() || b.cols() != layer->b_.cols()) {
      return Status::InvalidArgument(
          "RestoreSessionState: layer tensor shape mismatch");
    }
    layer->w_ = w;
    layer->b_ = b;
    layer->scale_ = snap.scale;
    layer->sigma_ = snap.sigma;
    layer->sn_est_.sigma = snap.sn_sigma;
    layer->sn_est_.u = snap.sn_u;
    layer->sn_est_.v = snap.sn_v;
    layer->sn_rng_.RestoreState(snap.sn_rng);
    return Status::Ok();
  }

  static Status RestoreDensityImpl(const DensitySnapshot& snap,
                                   const CovarianceConfig& config,
                                   std::optional<FairDensityEstimator>* out) {
    if (!snap.has_value) {
      out->reset();
      return Status::Ok();
    }
    if (snap.forgetting != config.forgetting) {
      return Status::InvalidArgument(
          "RestoreDensity: snapshot/config forgetting-mode mismatch");
    }
    const std::size_t cells = snap.cells.size();
    if (snap.domain.groups.empty() ||
        cells != static_cast<std::size_t>(snap.domain.num_classes) *
                     snap.domain.groups.size()) {
      return Status::InvalidArgument(
          "RestoreDensity: cell count does not match the domain");
    }
    FairDensityEstimator est;
    est.dim_ = snap.dim;
    est.domain_ = snap.domain;
    est.forgetting_ = snap.forgetting;
    est.total_ = snap.total;
    est.wtotal_ = snap.wtotal;
    est.components_.resize(cells);
    est.present_.assign(cells, false);
    est.counts_.assign(cells, 0);
    est.wcounts_.assign(cells, 0.0);
    est.weights_.assign(cells, 0.0);
    est.log_weights_.assign(cells, 0.0);
    // The counts every later fold and eviction relies on: a cell holds
    // rows exactly when it is present, its component counts the same rows,
    // and the cells sum to the total.
    std::size_t counted = 0;
    for (std::size_t c = 0; c < cells; ++c) {
      const DensityCellSnapshot& cell = snap.cells[c];
      if (cell.present != (cell.count > 0) ||
          cell.count > snap.total - counted) {
        return Status::InvalidArgument(
            "RestoreDensity: cell counts inconsistent with the total");
      }
      counted += cell.count;
      est.present_[c] = cell.present;
      est.counts_[c] = cell.count;
      est.wcounts_[c] = cell.wcount;
      est.weights_[c] = cell.weight;
      est.log_weights_[c] = cell.log_weight;
      if (!cell.present) continue;
      const GaussianSnapshot& gs = cell.component;
      const std::size_t d = snap.dim;
      if (gs.mean.size() != d || gs.sum.size() != d || gs.chol.rows() != d ||
          gs.chol.cols() != d || gs.scatter.rows() != d ||
          gs.scatter.cols() != d) {
        return Status::InvalidArgument(
            "RestoreDensity: component shape mismatch");
      }
      if (gs.count != cell.count || !(gs.weight > 0.0)) {
        return Status::InvalidArgument(
            "RestoreDensity: component count or weight differs from its "
            "cell's rows");
      }
      for (std::size_t j = 0; j < d; ++j) {
        if (!(gs.chol(j, j) > 0.0)) {
          return Status::InvalidArgument(
              "RestoreDensity: factor is not a Cholesky factor");
        }
      }
      if (gs.forgetting != snap.forgetting) {
        return Status::InvalidArgument(
            "RestoreDensity: component forgetting-mode mismatch");
      }
      Gaussian& g = est.components_[c];
      g.mean_ = gs.mean;
      g.chol_ = gs.chol;
      g.log_det_ = gs.log_det;
      g.count_ = gs.count;
      g.sum_ = gs.sum;
      g.scatter_ = gs.scatter;
      g.forgetting_ = gs.forgetting;
      g.weight_ = gs.weight;
      g.ridge_ = gs.ridge;
      // Pre-size the refresh scratch so the first post-restore fold or
      // eviction is as allocation-free as in the captured session.
      g.cov_scratch_.ResizeForOverwrite(d, d);
      g.reg_scratch_.ResizeForOverwrite(d, d);
      g.chol_try_.ResizeForOverwrite(d, d);
      if (gs.forgetting) {
        g.down_v_.assign(d, 0.0);
        g.down_p_.assign(d, 0.0);
      }
    }
    if (counted != snap.total) {
      return Status::InvalidArgument(
          "RestoreDensity: cell counts inconsistent with the total");
    }
    *out = std::move(est);
    return Status::Ok();
  }

  static Status Restore(const SessionState& s, StreamingFaction* f) {
    const MlpConfig& model_cfg = f->config_.model;
    if (model_cfg.input_dim != s.config.model.input_dim ||
        model_cfg.num_classes != s.config.model.num_classes ||
        model_cfg.hidden_dims != s.config.model.hidden_dims) {
      return Status::InvalidArgument(
          "RestoreSessionState: learner architecture differs from the "
          "captured config; construct the learner from state.config");
    }
    if (f->config_.density_window != s.config.density_window) {
      return Status::InvalidArgument(
          "RestoreSessionState: density_window differs from the captured "
          "config; construct the learner from state.config");
    }

    MlpClassifier& model = *f->model_;
    const std::size_t num_linear = model.hidden_.size() + 1;
    if (s.params.size() != 2 * num_linear || s.layers.size() != num_linear) {
      return Status::InvalidArgument(
          "RestoreSessionState: parameter tensor count mismatch");
    }
    for (std::size_t i = 0; i < model.hidden_.size(); ++i) {
      FACTION_RETURN_IF_ERROR(RestoreLinear(s.layers[i], s.params[2 * i],
                                            s.params[2 * i + 1],
                                            model.hidden_[i].get()));
    }
    FACTION_RETURN_IF_ERROR(
        RestoreLinear(s.layers[num_linear - 1], s.params[2 * num_linear - 2],
                      s.params[2 * num_linear - 1], model.head_.get()));

    f->rng_.RestoreState(s.rng);

    // Pool. The snapshot's feature matrix holds exactly pool_size valid
    // rows; Reserve() re-grows the spare rows the steady state expects.
    const std::size_t n = s.pool_size;
    if (s.pool_features.rows() != n || s.pool_labels.size() != n ||
        s.pool_sensitive.size() != n || s.pool_environments.size() != n ||
        (n > 0 && s.pool_features.cols() != model_cfg.input_dim)) {
      return Status::InvalidArgument(
          "RestoreSessionState: inconsistent pool section");
    }
    Dataset& pool = f->pool_;
    pool.dim_ = model_cfg.input_dim;
    pool.features_ = s.pool_features;
    pool.labels_ = s.pool_labels;
    pool.sensitive_ = s.pool_sensitive;
    pool.environments_ = s.pool_environments;
    pool.Reserve(n + f->config_.refit_interval + 1);

    // Ring: slots were canonicalized oldest-first at capture; rebuild with
    // ring_start_ = 0 into the ring the constructor sized (density_window
    // > 0).
    DensityWindow& w = f->density_;
    const std::size_t cap = w.ring_label_.size();
    if (s.ring_size > cap ||
        (s.ring_size > 0 && s.ring_z.cols() != w.ring_z_.cols())) {
      return Status::InvalidArgument(
          "RestoreSessionState: ring exceeds the configured density_window");
    }
    if (s.ring_label.size() != s.ring_size ||
        s.ring_sensitive.size() != s.ring_size ||
        s.ring_weight.size() != s.ring_size ||
        s.ring_z.rows() != s.ring_size) {
      return Status::InvalidArgument(
          "RestoreSessionState: inconsistent ring section");
    }
    for (std::size_t i = 0; i < s.ring_size; ++i) {
      std::copy(s.ring_z.row_data(i), s.ring_z.row_data(i) + s.ring_z.cols(),
                w.ring_z_.row_data(i));
      w.ring_label_[i] = s.ring_label[i];
      w.ring_sensitive_[i] = s.ring_sensitive[i];
      w.ring_weight_[i] = s.ring_weight[i];
    }
    w.ring_start_ = 0;
    w.ring_size_ = s.ring_size;

    FACTION_RETURN_IF_ERROR(
        RestoreDensityImpl(s.density, w.covariance_, &w.estimator_));
    if (w.estimator_.has_value()) {
      // Each ring row is evicted from its density cell later, so no cell
      // may hold fewer rows than the ring will take back from it.
      const FairDensityEstimator& est = *w.estimator_;
      std::vector<std::size_t> evictions(est.counts_.size(), 0);
      for (std::size_t i = 0; i < s.ring_size; ++i) {
        const int idx =
            est.ComponentIndex(s.ring_label[i], s.ring_sensitive[i]);
        if (idx >= 0 && ++evictions[static_cast<std::size_t>(idx)] >
                            est.counts_[static_cast<std::size_t>(idx)]) {
          return Status::InvalidArgument(
              "RestoreSessionState: ring holds rows its density cell lacks");
        }
      }
    }

    f->normalizer_.RestoreState(s.norm_count, s.norm_min, s.norm_max);
    f->seen_ = s.seen;
    f->queried_ = s.queried;
    f->labels_since_refit_ = s.labels_since_refit;
    f->trained_once_ = s.trained_once;

    // Warm the workspace arena: one scoring pass over a zero vector grows
    // every steady-state buffer ("streaming.x_row", the inference
    // ping-pong, ...) to its working size. ScoreSample consumes no RNG and
    // touches no persistent state, so this does not perturb parity.
    if (f->has_estimator() && f->trained_once_) {
      std::vector<double> warm_x(model_cfg.input_dim, 0.0);
      (void)f->ScoreSample(warm_x);
    }
    return Status::Ok();
  }

  // FACTION_COLD_END
};

void CaptureSessionState(const StreamingFaction& faction, SessionState* out) {
  StateCodecAccess::Capture(faction, out);
}

// FACTION_COLD_BEGIN (encode / decode / restore: background jobs and
// warm-start only — never on the dispatch path)

Status RestoreSessionState(const SessionState& state,
                           StreamingFaction* faction) {
  return StateCodecAccess::Restore(state, faction);
}

namespace {

// Decoder limits, enforced on both sides so Encode refuses exactly what
// Decode rejects. Every other count is bounded by the bytes backing it.
constexpr std::size_t kMaxSide = std::size_t{1} << 20;    // matrix side
constexpr std::size_t kMaxVector = std::size_t{1} << 24;  // vector length
constexpr std::size_t kMaxHidden = 1024;                  // hidden layers
// Elements a config makes the learner allocate up front: the density
// ring (density_window x feature dim) and the pool's refit reserve
// (refit_interval x input_dim).
constexpr std::size_t kMaxReserved = std::size_t{1} << 24;

// Dataset's label and sensitive-attribute domains.
constexpr int kLabels[] = {0, 1};
constexpr int kGroups[] = {-1, 1};

/// A Visit takes its object by const reference when writing and by
/// mutable reference when reading, so one body serves both directions.
template <class Ar, class T>
using Ref = std::conditional_t<Ar::kReading, T, const T>&;

/// NaN never round-trips, and neither does an infinity except -inf where
/// `allow_neg_inf` (mixture log-weights at zero mass).
bool Representable(double v, bool allow_neg_inf) {
  return !std::isnan(v) && (!std::isinf(v) || (allow_neg_inf && v < 0.0));
}

/// "oversized" + "tensor" -> "oversized tensor".
std::string Describe(std::string_view what, const char* field) {
  std::string msg(what);
  if (field != nullptr) msg.append(" ").append(field);
  return msg;
}

std::size_t FeatureDim(const MlpConfig& model) {
  return model.hidden_dims.empty() ? model.input_dim
                                   : model.hidden_dims.back();
}

/// Writes the "faction-session v1" text: every token is preceded by one
/// space unless it opens a line. Doubles print as hexfloat tokens built
/// from their bits (common/hexfloat.h), which round-trip every finite
/// double bit-for-bit. The first failed check sticks and turns every
/// later call into a no-op.
class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::string* out) : out_(out) { out_->clear(); }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void Tag(std::string_view tag) { Put(tag); }
  void EndLine() {
    if (!ok()) return;
    out_->push_back('\n');
    line_start_ = true;
  }

  template <class T>
  void Int(T v, const char*) {
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    Put(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  void Bool(bool v, const char*) { Put(v ? "1" : "0"); }
  void Double(double v, const char* what, bool allow_neg_inf = false) {
    if (ok() && !Representable(v, allow_neg_inf)) {
      status_ = Status::NumericalError("EncodeSessionState: " +
                                       Describe("non-finite", what));
    }
    // The serializer runs on the shared job system next to drain work, so
    // the token comes straight from the bits: printf("%a")'s bytes at a
    // fraction of its cost.
    char buf[kHexDoubleMaxChars];
    Put(std::string_view(
        buf, static_cast<std::size_t>(FormatHexDouble(buf, v) - buf)));
  }

  /// The writer's containers already hold their data, so a count the
  /// format states separately must agree with them.
  template <class T>
  void Size(const std::vector<T>& v, std::size_t n, const char* what) {
    Check(v.size() == n, "inconsistent", what);
  }
  void Values(const std::vector<double>& v, std::size_t n, const char* what) {
    Size(v, n, what);
    for (std::size_t i = 0; i < n && ok(); ++i) Double(v[i], what);
  }
  void Values(const Matrix& m, std::size_t rows, std::size_t cols,
              const char* what) {
    Check(m.rows() == rows && m.cols() == cols, "inconsistent", what);
    for (std::size_t i = 0; i < rows * cols && ok(); ++i) {
      Double(m.data()[i], what);
    }
  }

  void Check(bool cond, const char* what, const char* field = nullptr) {
    if (ok() && !cond) {
      status_ = Status::InvalidArgument("EncodeSessionState: " +
                                        Describe(what, field));
    }
  }

 private:
  void Put(std::string_view token) {
    if (!ok()) return;
    if (!line_start_) out_->push_back(' ');
    out_->append(token);
    line_start_ = false;
  }

  std::string* out_;
  bool line_start_ = true;
  Status status_;
};

/// Parses the "faction-session v1" text. Tokens are whitespace-separated;
/// line breaks carry no meaning. Every failure names the source and the
/// byte offset where parsing stopped. The first failure sticks and turns
/// every later call into a no-op.
class Reader {
 public:
  static constexpr bool kReading = true;

  Reader(std::string text, std::streamoff base, const std::string& source)
      : text_(std::move(text)), base_(base < 0 ? 0 : base), source_(source) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void Tag(const char* tag) {
    if (*tag == '\0') return;
    const std::string_view token = Next(tag);
    if (ok() && token != tag) {
      Fail("expected '" + std::string(tag) + "', got '" + std::string(token) +
           "'");
    }
  }
  void EndLine() {}

  template <class T>
  void Int(T& v, const char* what) {
    const std::string_view token = Next(what);
    if (!ok()) return;
    const char* end = token.data() + token.size();
    const std::from_chars_result r = std::from_chars(token.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end) Bad(what, token);
  }
  void Bool(bool& v, const char* what) {
    int x = 0;
    Int(x, what);
    Check(x == 0 || x == 1, "non-boolean", what);
    if (ok()) v = x == 1;
  }
  /// Only the writer's canonical hexfloat tokens parse (common/hexfloat.h):
  /// decimal text, uppercase hex and every other spelling fail.
  void Double(double& v, const char* what, bool allow_neg_inf = false) {
    const std::string_view token = Next(what);
    if (!ok()) return;
    double x = 0.0;
    if (!ParseHexDouble(token, &x)) {
      Bad(what, token);
    } else if (!Representable(x, allow_neg_inf)) {
      Fail(Describe("non-finite", what) + " '" + std::string(token) + "'");
    } else {
      v = x;
    }
  }

  /// Sizes a container for tokens still to come. Each token takes at
  /// least two bytes (separator and digit), so a count the rest of the
  /// input cannot back fails before anything is allocated.
  template <class T>
  void Size(std::vector<T>& v, std::size_t n, const char* what) {
    if (Backed(n, 1, what)) v.resize(n);
  }
  void Values(std::vector<double>& v, std::size_t n, const char* what) {
    Size(v, n, what);
    for (std::size_t i = 0; i < n && ok(); ++i) Double(v[i], what);
  }
  void Values(Matrix& m, std::size_t rows, std::size_t cols,
              const char* what) {
    if (!Backed(rows, cols, what)) return;
    m.ResizeForOverwrite(rows, cols);
    for (std::size_t i = 0; i < rows * cols && ok(); ++i) {
      Double(m.data()[i], what);
    }
  }

  void Check(bool cond, const char* what, const char* field = nullptr) {
    if (ok() && !cond) Fail(Describe(what, field));
  }

 private:
  bool Backed(std::size_t rows, std::size_t cols, const char* what) {
    const std::size_t budget = (text_.size() - pos_) / 2;
    Check(cols == 0 || rows <= budget / cols, "oversized", what);
    return ok();
  }

  // The C locale's isspace set, inline: it runs once per input byte.
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  /// The label stays a C string: it is only measured to build a failure.
  std::string_view Next(const char* what) {
    if (!ok()) return {};
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    if (pos_ == begin) Fail(std::string("truncated ") + what);
    return std::string_view(text_).substr(begin, pos_ - begin);
  }

  void Bad(const char* what, std::string_view token) {
    Fail(Describe("bad", what) + " '" + std::string(token) + "'");
  }
  void Fail(const std::string& what) {
    status_ = Status::InvalidArgument(
        "DecodeSessionState: " + what + " in " + source_ + " @byte " +
        std::to_string(static_cast<long long>(base_) +
                       static_cast<long long>(pos_)));
  }

  std::string text_;
  std::streamoff base_;
  std::size_t pos_ = 0;
  const std::string& source_;
  Status status_;
};

/// "n v1 ... vn".
template <class Ar>
void VisitVector(Ar& ar, Ref<Ar, std::vector<double>> v, const char* what) {
  std::size_t n = v.size();
  ar.Int(n, what);
  ar.Check(n <= kMaxVector, "oversized", what);
  ar.Values(v, n, what);
}

/// "rows cols values...", closing its line.
template <class Ar>
void VisitMatrix(Ar& ar, Ref<Ar, Matrix> m, const char* what) {
  std::size_t rows = m.rows();
  std::size_t cols = m.cols();
  ar.Int(rows, what);
  ar.Int(cols, what);
  ar.Check(rows <= kMaxSide && cols <= kMaxSide &&
               (cols == 0 || rows <= kMaxSide / cols + 1),
           "oversized", what);
  ar.Values(m, rows, cols, what);
  ar.EndLine();
}

/// "tag rows dim values..." for the pool and the ring, whose width the
/// model fixes; closes its line.
template <class Ar>
void VisitRows(Ar& ar, const char* tag, Ref<Ar, std::size_t> rows,
               Ref<Ar, Matrix> m, std::size_t dim, const char* what) {
  std::size_t cols = m.cols();
  ar.Tag(tag);
  ar.Int(rows, what);
  ar.Int(cols, what);
  ar.Check(cols == dim, "dimension does not match the model for", what);
  ar.Values(m, rows, cols, what);
  ar.EndLine();
}

/// "tag i1 ... in", each one of domain[0..1] (any int without a domain);
/// closes its line.
template <class Ar>
void VisitInts(Ar& ar, const char* tag, Ref<Ar, std::vector<int>> v,
               std::size_t n, const int* domain, const char* what) {
  ar.Tag(tag);
  ar.Size(v, n, what);
  for (std::size_t i = 0; i < n && ar.ok(); ++i) {
    ar.Int(v[i], what);
    ar.Check(domain == nullptr || v[i] == domain[0] || v[i] == domain[1],
             "out-of-domain", what);
  }
  ar.EndLine();
}

template <class Ar>
void Visit(Ar& ar, Ref<Ar, Rng::State> s, const char* what) {
  for (auto& word : s.s) ar.Int(word, what);
  ar.Bool(s.have_cached_gaussian, what);
  ar.Double(s.cached_gaussian, what);
  // All-zero is xoshiro's fixed point; no generator ever reaches it.
  ar.Check((s.s[0] | s.s[1] | s.s[2] | s.s[3]) != 0, "all-zero", what);
}

template <class Ar>
void Visit(Ar& ar, Ref<Ar, StreamingFactionConfig> c) {
  ar.Tag("config");
  ar.Double(c.lambda, "lambda");
  ar.Double(c.alpha, "alpha");
  ar.Int(c.warm_start, "warm_start");
  ar.Int(c.burn_in, "burn_in");
  ar.Int(c.refit_interval, "refit_interval");
  ar.Bool(c.incremental_density, "incremental_density");
  ar.Int(c.density_window, "density_window");
  ar.Double(c.density_decay, "density_decay");
  ar.Check(c.density_decay > 0.0 && c.density_decay <= 1.0,
           "density_decay outside (0, 1]");
  ar.Int(c.seed, "seed");
  ar.EndLine();

  auto& cov = c.covariance;
  ar.Tag("covariance");
  ar.Double(cov.shrinkage, "shrinkage");
  ar.Double(cov.jitter, "jitter");
  ar.Int(cov.max_jitter_doublings, "max_jitter_doublings");
  ar.Bool(cov.forgetting, "covariance forgetting flag");
  ar.Double(cov.ridge, "ridge");
  ar.EndLine();

  auto& model = c.model;
  ar.Tag("model");
  ar.Int(model.input_dim, "input_dim");
  ar.Check(model.input_dim > 0, "zero input_dim");
  ar.Int(model.num_classes, "num_classes");
  ar.Check(model.num_classes >= 2, "fewer than two classes");
  std::size_t num_hidden = model.hidden_dims.size();
  ar.Int(num_hidden, "hidden layer count");
  ar.Check(num_hidden <= kMaxHidden, "oversized hidden layer count");
  ar.Size(model.hidden_dims, num_hidden, "hidden widths");
  for (std::size_t i = 0; i < num_hidden && ar.ok(); ++i) {
    ar.Int(model.hidden_dims[i], "hidden width");
    ar.Check(model.hidden_dims[i] > 0, "zero hidden width");
  }
  ar.EndLine();
  if (!ar.ok()) return;
  ar.Check(c.density_window <= kMaxReserved / FeatureDim(model),
           "oversized density_window");
  ar.Check(c.refit_interval <= kMaxReserved / model.input_dim,
           "oversized refit_interval");

  auto& sn = model.spectral;
  ar.Tag("spectral");
  ar.Bool(sn.enabled, "spectral enabled flag");
  ar.Double(sn.coeff, "spectral coeff");
  ar.Int(sn.power_iterations, "power_iterations");
  ar.Check(sn.power_iterations >= 0, "negative power_iterations");
  ar.EndLine();

  auto& t = c.train;
  ar.Tag("train");
  ar.Int(t.epochs, "epochs");
  ar.Int(t.batch_size, "batch_size");
  ar.Double(t.learning_rate, "learning_rate");
  ar.Double(t.momentum, "momentum");
  ar.Double(t.weight_decay, "weight_decay");
  ar.Bool(t.use_fairness_penalty, "use_fairness_penalty");
  int notion = static_cast<int>(t.fairness.notion);
  ar.Int(notion, "fairness notion");
  ar.Check(notion == static_cast<int>(FairnessNotion::kDdp) ||
               notion == static_cast<int>(FairnessNotion::kDeo),
           "unknown fairness notion");
  if constexpr (Ar::kReading) {
    t.fairness.notion = static_cast<FairnessNotion>(notion);
  }
  ar.Double(t.fairness.mu, "fairness mu");
  ar.Double(t.fairness.epsilon, "fairness epsilon");
  ar.Bool(t.fairness.symmetric, "fairness symmetric flag");
  ar.Bool(t.use_individual_penalty, "use_individual_penalty");
  ar.Double(t.individual.weight, "individual weight");
  ar.Double(t.individual.bandwidth, "individual bandwidth");
  ar.Double(t.individual.similarity_cutoff, "similarity_cutoff");
  ar.Int(t.individual.max_pairs, "max_pairs");
  ar.EndLine();
}

template <class Ar>
void Visit(Ar& ar, Ref<Ar, LinearSnapshot> l) {
  ar.Tag("");  // v1 quirk: a layer line opens with a space
  ar.Double(l.scale, "layer scale");
  ar.Double(l.sigma, "layer sigma");
  ar.Double(l.sn_sigma, "layer sn_sigma");
  VisitVector(ar, l.sn_u, "layer sn_u");
  VisitVector(ar, l.sn_v, "layer sn_v");
  Visit(ar, l.sn_rng, "layer rng state");
  ar.EndLine();
}

template <class Ar>
void Visit(Ar& ar, Ref<Ar, GaussianSnapshot> g) {
  ar.Tag("gaussian");
  ar.Int(g.count, "gaussian count");
  ar.Double(g.weight, "gaussian weight");
  ar.Double(g.ridge, "gaussian ridge");
  ar.Double(g.log_det, "gaussian log_det");
  ar.Bool(g.forgetting, "gaussian forgetting flag");
  ar.EndLine();
  ar.Tag("mean");
  VisitVector(ar, g.mean, "gaussian mean");
  ar.EndLine();
  ar.Tag("sum");
  VisitVector(ar, g.sum, "gaussian sum");
  ar.EndLine();
  ar.Tag("chol");
  VisitMatrix(ar, g.chol, "gaussian factor");
  ar.Tag("scatter");
  VisitMatrix(ar, g.scatter, "gaussian scatter");
}

template <class Ar>
void Visit(Ar& ar, Ref<Ar, DensitySnapshot> d) {
  ar.Tag("density");
  ar.Bool(d.has_value, "density presence");
  ar.EndLine();
  if (!ar.ok() || !d.has_value) return;
  ar.Int(d.dim, "density dimension");
  ar.Bool(d.forgetting, "density forgetting flag");
  ar.Int(d.total, "density total");
  ar.Double(d.wtotal, "density wtotal");
  ar.EndLine();
  // v1 leaves the domain implicit: it is always the default binary one.
  const DensityDomain binary;
  if constexpr (Ar::kReading) d.domain = binary;
  ar.Check(d.domain == binary, "density domain is not the binary default");
  ar.Size(d.cells,
          static_cast<std::size_t>(binary.num_classes) * binary.groups.size(),
          "density cells");
  for (std::size_t i = 0; i < d.cells.size() && ar.ok(); ++i) {
    auto& cell = d.cells[i];
    ar.Tag("cell");
    ar.Bool(cell.present, "cell presence");
    ar.Int(cell.count, "cell count");
    ar.Double(cell.wcount, "cell wcount");
    ar.Double(cell.weight, "cell weight");
    ar.Double(cell.log_weight, "cell log-weight", /*allow_neg_inf=*/true);
    ar.EndLine();
    if (ar.ok() && cell.present) Visit(ar, cell.component);
  }
}

template <class Ar>
void Visit(Ar& ar, Ref<Ar, SessionState> s) {
  ar.Tag("faction-session");
  ar.Tag("v1");
  ar.EndLine();
  ar.Tag("stream");
  ar.Int(s.stream_id, "stream id");
  ar.Int(s.generation, "generation");
  ar.Int(s.steps, "step count");
  ar.EndLine();
  Visit(ar, s.config);
  if (!ar.ok()) return;
  const MlpConfig& model = s.config.model;
  const std::size_t window = s.config.density_window;

  ar.Tag("rng");
  Visit(ar, s.rng, "rng state");
  ar.EndLine();

  // One weight (out x in) and one bias (1 x out) per Linear, hidden
  // layers first: every width the config names is backed by a tensor.
  const std::size_t num_linear = model.hidden_dims.size() + 1;
  std::size_t num_tensors = s.params.size();
  ar.Tag("tensors");
  ar.Int(num_tensors, "tensor count");
  ar.EndLine();
  ar.Check(num_tensors == 2 * num_linear,
           "tensor count does not match the architecture");
  ar.Size(s.params, num_tensors, "tensors");
  std::size_t in = model.input_dim;
  for (std::size_t i = 0; i < num_tensors && ar.ok(); ++i) {
    const std::size_t layer = i / 2;
    const std::size_t out = layer + 1 < num_linear ? model.hidden_dims[layer]
                                                   : model.num_classes;
    const bool weight = i % 2 == 0;
    VisitMatrix(ar, s.params[i], "tensor");
    ar.Check(s.params[i].rows() == (weight ? out : 1) &&
                 s.params[i].cols() == (weight ? in : out),
             "tensor shape does not match the architecture");
    if (!weight) in = out;
  }

  std::size_t num_layers = s.layers.size();
  ar.Tag("layers");
  ar.Int(num_layers, "layer count");
  ar.EndLine();
  ar.Check(num_layers == num_linear,
           "layer count does not match the architecture");
  ar.Size(s.layers, num_layers, "layers");
  for (std::size_t i = 0; i < num_layers && ar.ok(); ++i) {
    Visit(ar, s.layers[i]);
  }

  VisitRows(ar, "pool", s.pool_size, s.pool_features, model.input_dim,
            "pool");
  VisitInts(ar, "labels", s.pool_labels, s.pool_size, kLabels, "pool label");
  VisitInts(ar, "sensitive", s.pool_sensitive, s.pool_size, kGroups,
            "pool sensitive");
  VisitInts(ar, "environments", s.pool_environments, s.pool_size, nullptr,
            "pool environment");

  VisitRows(ar, "ring", s.ring_size, s.ring_z,
            window > 0 ? FeatureDim(model) : 0, "ring");
  ar.Check(s.ring_size <= window, "ring size exceeds density_window");
  VisitInts(ar, "ringlabels", s.ring_label, s.ring_size, kLabels,
            "ring label");
  VisitInts(ar, "ringsensitive", s.ring_sensitive, s.ring_size, kGroups,
            "ring sensitive");
  ar.Tag("ringweights");
  ar.Values(s.ring_weight, s.ring_size, "ring weight");
  ar.EndLine();
  for (std::size_t i = 0; i < s.ring_size && ar.ok(); ++i) {
    // Folds enter at weight 1 and only ever decay.
    ar.Check(s.ring_weight[i] > 0.0 && s.ring_weight[i] <= 1.0,
             "ring weight outside (0, 1]");
  }

  ar.Tag("normalizer");
  ar.Int(s.norm_count, "normalizer count");
  ar.Double(s.norm_min, "normalizer min");
  ar.Double(s.norm_max, "normalizer max");
  ar.EndLine();

  ar.Tag("counters");
  ar.Int(s.seen, "seen counter");
  ar.Int(s.queried, "queried counter");
  ar.Int(s.labels_since_refit, "labels_since_refit");
  ar.Bool(s.trained_once, "trained_once flag");
  ar.EndLine();

  Visit(ar, s.density);
  ar.Check(!s.density.has_value || s.density.dim == FeatureDim(model),
           "density dimension does not match the model features");
  ar.Tag("end");
  ar.EndLine();
}

}  // namespace

Status EncodeSessionState(const SessionState& state, std::string* out) {
  Writer writer(out);
  Visit(writer, state);
  if (!writer.ok()) out->clear();
  // Appending grew the buffer geometrically; a checkpoint buffer keeps
  // its bytes until the next generation, so hold only what they need.
  out->shrink_to_fit();
  return writer.status();
}

namespace {

Status DecodeText(std::string text, std::streamoff base,
                  const std::string& source, SessionState* out) {
  Reader reader(std::move(text), base, source);
  Visit(reader, *out);
  return reader.status();
}

}  // namespace

Status DecodeSessionState(std::istream& is, const std::string& source,
                          SessionState* out) {
  const std::streamoff base = is.tellg();
  std::string text;
  char chunk[1 << 14];
  do {
    is.read(chunk, sizeof(chunk));
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  } while (is);
  return DecodeText(std::move(text), base, source, out);
}

Status DecodeSessionStateFromFile(const std::string& path,
                                  SessionState* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    return Status::NotFound("DecodeSessionStateFromFile: cannot open " +
                            path);
  }
  // One read into a buffer sized from the file's length. What has no
  // length (a directory, say) reads as empty and fails as truncated.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  std::string text(error ? 0 : static_cast<std::size_t>(size), '\0');
  is.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(is.gcount()));
  return DecodeText(std::move(text), 0, path, out);
}

// FACTION_COLD_END

}  // namespace faction
