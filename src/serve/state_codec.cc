// FACTION_HOT: CaptureSessionState runs on the serve dispatch path (the
// drain holder flips a snapshot buffer between drains), so this TU opts
// into the no-alloc-in-hot gate. Everything else — encode, decode,
// restore, the standalone pipeline codecs — is cold and fenced.

#include "serve/state_codec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
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
    if (w.rows() != layer->w_.rows() || w.cols() != layer->w_.cols()) {
      return Status::InvalidArgument(
          "RestoreSessionState: layer weight shape mismatch");
    }
    if (b.rows() != layer->b_.rows() || b.cols() != layer->b_.cols()) {
      return Status::InvalidArgument(
          "RestoreSessionState: layer bias shape mismatch");
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
    for (std::size_t c = 0; c < cells; ++c) {
      const DensityCellSnapshot& cell = snap.cells[c];
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
      if (gs.count == 0) {
        return Status::InvalidArgument(
            "RestoreDensity: present component with zero count");
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

  // ------------------------------------------- standalone pipeline state

  static void CaptureDrift(const DriftDetector& d, DriftDetectorState* out) {
    out->n = d.stats_.n_;
    out->mean = d.stats_.mean_;
    out->m2 = d.stats_.m2_;
    out->cooldown_remaining = d.cooldown_remaining_;
  }

  static void RestoreDrift(const DriftDetectorState& s, DriftDetector* d) {
    d->stats_.n_ = s.n;
    d->stats_.mean_ = s.mean;
    d->stats_.m2_ = s.m2;
    d->cooldown_remaining_ = s.cooldown_remaining;
  }

  static void CaptureBandit(const BanditStrategy& b, BanditState* out) {
    out->pulls = b.pulls_;
    out->reward_sum = b.reward_sum_;
  }

  static void RestoreBandit(const BanditState& s, BanditStrategy* b) {
    b->pulls_ = s.pulls;
    b->reward_sum_ = s.reward_sum;
  }

  static void CaptureDisentangled(const DisentangledStrategy& d,
                                  DisentangledState* out) {
    out->global = d.global_;
    out->deltas = d.deltas_;
  }

  static void RestoreDisentangled(const DisentangledState& s,
                                  DisentangledStrategy* d) {
    d->global_ = s.global;
    d->deltas_ = s.deltas;
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

Status RestoreDensity(const DensitySnapshot& snapshot,
                      const CovarianceConfig& config,
                      std::optional<FairDensityEstimator>* out) {
  return StateCodecAccess::RestoreDensityImpl(snapshot, config, out);
}

namespace {

constexpr char kSessionMagic[] = "faction-session v1";
constexpr char kDriftMagic[] = "faction-drift v1";
constexpr char kBanditMagic[] = "faction-bandit v1";
constexpr char kDisentangledMagic[] = "faction-disentangled v1";

// ----------------------------------------------------------------- encode

void PutDouble(std::ostream& os, double v) {
  // Hexfloat round-trips every finite double bit-for-bit (nn/serialize.cc
  // idiom). The infinities print as "inf"/"-inf", which the reader accepts
  // — log_weights_ carries -inf for zero-mass mixture cells. snprintf %a
  // rather than iostream hexfloat: the serializer runs on the shared job
  // system next to drain work, and printf formatting is several times
  // cheaper than the locale-aware ostream path for the same bytes.
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), " %a", v);
  os.write(buf, n);
}

void PutDoubles(std::ostream& os, const double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) PutDouble(os, v[i]);
}

void PutVector(std::ostream& os, const std::vector<double>& v) {
  os << v.size();
  PutDoubles(os, v.data(), v.size());
}

void PutInts(std::ostream& os, const std::vector<int>& v) {
  for (const int x : v) os << ' ' << x;
}

void PutRngState(std::ostream& os, const Rng::State& s) {
  os << s.s[0] << ' ' << s.s[1] << ' ' << s.s[2] << ' ' << s.s[3] << ' '
     << (s.have_cached_gaussian ? 1 : 0);
  PutDouble(os, s.cached_gaussian);
}

void PutMatrix(std::ostream& os, const Matrix& m) {
  os << m.rows() << ' ' << m.cols();
  PutDoubles(os, m.data(), m.rows() * m.cols());
  os << '\n';
}

void PutGaussian(std::ostream& os, const GaussianSnapshot& g) {
  os << "gaussian " << g.count;
  PutDouble(os, g.weight);
  PutDouble(os, g.ridge);
  PutDouble(os, g.log_det);
  os << ' ' << (g.forgetting ? 1 : 0) << '\n';
  os << "mean ";
  PutVector(os, g.mean);
  os << "\nsum ";
  PutVector(os, g.sum);
  os << "\nchol ";
  PutMatrix(os, g.chol);
  os << "scatter ";
  PutMatrix(os, g.scatter);
}

// ----------------------------------------------------------------- decode

/// Token-stream reader over an istream; every failure names the source and
/// the byte offset where parsing stopped.
class TokenReader {
 public:
  TokenReader(std::istream& is, const std::string& source)
      : is_(is), source_(source) {}

  Status Fail(const std::string& what) {
    // A failed extraction sets failbit, under which tellg() returns -1;
    // clear first so the offset points at the stream position reached.
    is_.clear();
    const std::streamoff pos = static_cast<std::streamoff>(is_.tellg());
    std::string msg = "DecodeSessionState: " + what + " in " + source_;
    if (pos >= 0) {
      msg += " @byte " + std::to_string(static_cast<long long>(pos));
    }
    return Status::InvalidArgument(std::move(msg));
  }

  Status Token(std::string* out, const char* what) {
    if (!(is_ >> *out)) return Fail(std::string("truncated ") + what);
    return Status::Ok();
  }

  Status Expect(const char* tag) {
    FACTION_RETURN_IF_ERROR(Token(&tok_, tag));
    if (tok_ != tag) {
      return Fail(std::string("expected '") + tag + "', got '" + tok_ + "'");
    }
    return Status::Ok();
  }

  Status ReadU64(std::uint64_t* out, const char* what) {
    if (!(is_ >> *out)) return Fail(std::string("bad ") + what);
    return Status::Ok();
  }

  Status ReadSize(std::size_t* out, const char* what) {
    if (!(is_ >> *out)) return Fail(std::string("bad ") + what);
    return Status::Ok();
  }

  Status ReadInt(int* out, const char* what) {
    if (!(is_ >> *out)) return Fail(std::string("bad ") + what);
    return Status::Ok();
  }

  Status ReadBool(bool* out, const char* what) {
    int v = 0;
    FACTION_RETURN_IF_ERROR(ReadInt(&v, what));
    if (v != 0 && v != 1) return Fail(std::string("non-boolean ") + what);
    *out = (v == 1);
    return Status::Ok();
  }

  /// Parses one double token via strtod: accepts hexfloat and the
  /// infinities (mixture log-weights are -inf at zero mass), rejects NaN
  /// and trailing garbage.
  Status ReadDouble(double* out, const char* what) {
    FACTION_RETURN_IF_ERROR(Token(&tok_, what));
    const char* begin = tok_.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0') {
      return Fail(std::string("bad ") + what + " '" + tok_ + "'");
    }
    if (std::isnan(v)) {
      return Fail(std::string("non-finite ") + what + " '" + tok_ + "'");
    }
    *out = v;
    return Status::Ok();
  }

  Status ReadDoubles(double* out, std::size_t n, const char* what) {
    for (std::size_t i = 0; i < n; ++i) {
      FACTION_RETURN_IF_ERROR(ReadDouble(&out[i], what));
    }
    return Status::Ok();
  }

  Status ReadVector(std::vector<double>* out, const char* what,
                    std::size_t max_len = 1u << 24) {
    std::size_t n = 0;
    FACTION_RETURN_IF_ERROR(ReadSize(&n, what));
    if (n > max_len) return Fail(std::string("oversized ") + what);
    out->resize(n);
    return ReadDoubles(out->data(), n, what);
  }

  Status ReadInts(std::vector<int>* out, std::size_t n, const char* what) {
    out->resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      FACTION_RETURN_IF_ERROR(ReadInt(&(*out)[i], what));
    }
    return Status::Ok();
  }

  Status ReadRngState(Rng::State* out, const char* what) {
    for (int i = 0; i < 4; ++i) {
      FACTION_RETURN_IF_ERROR(ReadU64(&out->s[i], what));
    }
    FACTION_RETURN_IF_ERROR(ReadBool(&out->have_cached_gaussian, what));
    return ReadDouble(&out->cached_gaussian, what);
  }

  Status ReadMatrix(Matrix* out, const char* what,
                    std::size_t max_dim = 1u << 20) {
    std::size_t r = 0, c = 0;
    FACTION_RETURN_IF_ERROR(ReadSize(&r, what));
    FACTION_RETURN_IF_ERROR(ReadSize(&c, what));
    if (r > max_dim || c > max_dim || (c != 0 && r > max_dim / c + 1)) {
      return Fail(std::string("oversized ") + what);
    }
    out->ResizeForOverwrite(r, c);
    return ReadDoubles(out->data(), r * c, what);
  }

  Status ReadGaussian(GaussianSnapshot* out) {
    FACTION_RETURN_IF_ERROR(Expect("gaussian"));
    FACTION_RETURN_IF_ERROR(ReadSize(&out->count, "gaussian count"));
    FACTION_RETURN_IF_ERROR(ReadDouble(&out->weight, "gaussian weight"));
    FACTION_RETURN_IF_ERROR(ReadDouble(&out->ridge, "gaussian ridge"));
    FACTION_RETURN_IF_ERROR(ReadDouble(&out->log_det, "gaussian log_det"));
    FACTION_RETURN_IF_ERROR(
        ReadBool(&out->forgetting, "gaussian forgetting flag"));
    FACTION_RETURN_IF_ERROR(Expect("mean"));
    FACTION_RETURN_IF_ERROR(ReadVector(&out->mean, "gaussian mean"));
    FACTION_RETURN_IF_ERROR(Expect("sum"));
    FACTION_RETURN_IF_ERROR(ReadVector(&out->sum, "gaussian sum"));
    FACTION_RETURN_IF_ERROR(Expect("chol"));
    FACTION_RETURN_IF_ERROR(ReadMatrix(&out->chol, "gaussian factor"));
    FACTION_RETURN_IF_ERROR(Expect("scatter"));
    return ReadMatrix(&out->scatter, "gaussian scatter");
  }

  Status ExpectMagic(const char* word1, const char* word2) {
    FACTION_RETURN_IF_ERROR(Token(&tok_, "magic header"));
    std::string second;
    FACTION_RETURN_IF_ERROR(Token(&second, "magic header"));
    if (tok_ != word1 || second != word2) {
      return Fail("bad magic header '" + tok_ + " " + second + "'");
    }
    return Status::Ok();
  }

 private:
  std::istream& is_;
  std::string source_;
  std::string tok_;
};

}  // namespace

void EncodeSessionState(const SessionState& state, std::string* out) {
  std::ostringstream os;
  os << std::hexfloat;  // integers are unaffected; every double round-trips
  os << kSessionMagic << '\n';
  os << "stream " << state.stream_id << ' ' << state.generation << ' '
     << state.steps << '\n';

  const StreamingFactionConfig& c = state.config;
  os << "config";
  PutDouble(os, c.lambda);
  PutDouble(os, c.alpha);
  os << ' ' << c.warm_start << ' ' << c.burn_in << ' ' << c.refit_interval
     << ' ' << (c.incremental_density ? 1 : 0) << ' ' << c.density_window;
  PutDouble(os, c.density_decay);
  os << ' ' << c.seed << '\n';

  os << "covariance";
  PutDouble(os, c.covariance.shrinkage);
  PutDouble(os, c.covariance.jitter);
  os << ' ' << c.covariance.max_jitter_doublings << ' '
     << (c.covariance.forgetting ? 1 : 0);
  PutDouble(os, c.covariance.ridge);
  os << '\n';

  os << "model " << c.model.input_dim << ' ' << c.model.num_classes << ' '
     << c.model.hidden_dims.size();
  for (const std::size_t h : c.model.hidden_dims) os << ' ' << h;
  os << '\n';

  os << "spectral " << (c.model.spectral.enabled ? 1 : 0);
  PutDouble(os, c.model.spectral.coeff);
  os << ' ' << c.model.spectral.power_iterations << '\n';

  const TrainConfig& t = c.train;
  os << "train " << t.epochs << ' ' << t.batch_size;
  PutDouble(os, t.learning_rate);
  PutDouble(os, t.momentum);
  PutDouble(os, t.weight_decay);
  os << ' ' << (t.use_fairness_penalty ? 1 : 0) << ' '
     << static_cast<int>(t.fairness.notion);
  PutDouble(os, t.fairness.mu);
  PutDouble(os, t.fairness.epsilon);
  os << ' ' << (t.fairness.symmetric ? 1 : 0) << ' '
     << (t.use_individual_penalty ? 1 : 0);
  PutDouble(os, t.individual.weight);
  PutDouble(os, t.individual.bandwidth);
  PutDouble(os, t.individual.similarity_cutoff);
  os << ' ' << t.individual.max_pairs << '\n';

  os << "rng ";
  PutRngState(os, state.rng);
  os << '\n';

  os << "tensors " << state.params.size() << '\n';
  for (const Matrix& m : state.params) PutMatrix(os, m);

  os << "layers " << state.layers.size() << '\n';
  for (const LinearSnapshot& l : state.layers) {
    PutDouble(os, l.scale);
    PutDouble(os, l.sigma);
    PutDouble(os, l.sn_sigma);
    os << ' ';
    PutVector(os, l.sn_u);
    os << ' ';
    PutVector(os, l.sn_v);
    os << ' ';
    PutRngState(os, l.sn_rng);
    os << '\n';
  }

  os << "pool " << state.pool_size << ' ' << state.pool_features.cols();
  PutDoubles(os, state.pool_features.data(),
             state.pool_size * state.pool_features.cols());
  os << "\nlabels";
  PutInts(os, state.pool_labels);
  os << "\nsensitive";
  PutInts(os, state.pool_sensitive);
  os << "\nenvironments";
  PutInts(os, state.pool_environments);
  os << '\n';

  os << "ring " << state.ring_size << ' ' << state.ring_z.cols();
  PutDoubles(os, state.ring_z.data(), state.ring_size * state.ring_z.cols());
  os << "\nringlabels";
  PutInts(os, state.ring_label);
  os << "\nringsensitive";
  PutInts(os, state.ring_sensitive);
  os << "\nringweights";
  PutDoubles(os, state.ring_weight.data(), state.ring_weight.size());
  os << '\n';

  os << "normalizer " << state.norm_count;
  PutDouble(os, state.norm_min);
  PutDouble(os, state.norm_max);
  os << '\n';

  os << "counters " << state.seen << ' ' << state.queried << ' '
     << state.labels_since_refit << ' ' << (state.trained_once ? 1 : 0)
     << '\n';

  const DensitySnapshot& dsnap = state.density;
  os << "density " << (dsnap.has_value ? 1 : 0) << '\n';
  if (dsnap.has_value) {
    os << dsnap.dim << ' ' << (dsnap.forgetting ? 1 : 0) << ' '
       << dsnap.total;
    PutDouble(os, dsnap.wtotal);
    os << '\n';
    // v1 leaves the domain implicit: it is always the default binary one.
    FACTION_CHECK(dsnap.domain == DensityDomain{});
    for (const DensityCellSnapshot& cell : dsnap.cells) {
      os << "cell " << (cell.present ? 1 : 0) << ' ' << cell.count;
      PutDouble(os, cell.wcount);
      PutDouble(os, cell.weight);
      PutDouble(os, cell.log_weight);
      os << '\n';
      if (cell.present) PutGaussian(os, cell.component);
    }
  }
  os << "end\n";
  *out = os.str();
}

Status DecodeSessionState(std::istream& is, const std::string& source,
                          SessionState* out) {
  TokenReader r(is, source);
  FACTION_RETURN_IF_ERROR(r.ExpectMagic("faction-session", "v1"));

  FACTION_RETURN_IF_ERROR(r.Expect("stream"));
  FACTION_RETURN_IF_ERROR(r.ReadU64(&out->stream_id, "stream id"));
  FACTION_RETURN_IF_ERROR(r.ReadU64(&out->generation, "generation"));
  FACTION_RETURN_IF_ERROR(r.ReadU64(&out->steps, "step count"));

  StreamingFactionConfig& c = out->config;
  FACTION_RETURN_IF_ERROR(r.Expect("config"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&c.lambda, "lambda"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&c.alpha, "alpha"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&c.warm_start, "warm_start"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&c.burn_in, "burn_in"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&c.refit_interval, "refit_interval"));
  FACTION_RETURN_IF_ERROR(
      r.ReadBool(&c.incremental_density, "incremental_density"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&c.density_window, "density_window"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&c.density_decay, "density_decay"));
  FACTION_RETURN_IF_ERROR(r.ReadU64(&c.seed, "seed"));

  FACTION_RETURN_IF_ERROR(r.Expect("covariance"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&c.covariance.shrinkage, "shrinkage"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&c.covariance.jitter, "jitter"));
  FACTION_RETURN_IF_ERROR(
      r.ReadInt(&c.covariance.max_jitter_doublings, "max_jitter_doublings"));
  FACTION_RETURN_IF_ERROR(
      r.ReadBool(&c.covariance.forgetting, "covariance forgetting flag"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&c.covariance.ridge, "ridge"));

  FACTION_RETURN_IF_ERROR(r.Expect("model"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&c.model.input_dim, "input_dim"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&c.model.num_classes, "num_classes"));
  std::size_t num_hidden = 0;
  FACTION_RETURN_IF_ERROR(r.ReadSize(&num_hidden, "hidden layer count"));
  if (num_hidden > 1024) return r.Fail("oversized hidden layer count");
  c.model.hidden_dims.resize(num_hidden);
  for (std::size_t i = 0; i < num_hidden; ++i) {
    FACTION_RETURN_IF_ERROR(
        r.ReadSize(&c.model.hidden_dims[i], "hidden width"));
  }

  FACTION_RETURN_IF_ERROR(r.Expect("spectral"));
  FACTION_RETURN_IF_ERROR(
      r.ReadBool(&c.model.spectral.enabled, "spectral enabled flag"));
  FACTION_RETURN_IF_ERROR(
      r.ReadDouble(&c.model.spectral.coeff, "spectral coeff"));
  FACTION_RETURN_IF_ERROR(
      r.ReadInt(&c.model.spectral.power_iterations, "power_iterations"));

  TrainConfig& t = c.train;
  FACTION_RETURN_IF_ERROR(r.Expect("train"));
  FACTION_RETURN_IF_ERROR(r.ReadInt(&t.epochs, "epochs"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&t.batch_size, "batch_size"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&t.learning_rate, "learning_rate"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&t.momentum, "momentum"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&t.weight_decay, "weight_decay"));
  FACTION_RETURN_IF_ERROR(
      r.ReadBool(&t.use_fairness_penalty, "use_fairness_penalty"));
  int notion = 0;
  FACTION_RETURN_IF_ERROR(r.ReadInt(&notion, "fairness notion"));
  if (notion != static_cast<int>(FairnessNotion::kDdp) &&
      notion != static_cast<int>(FairnessNotion::kDeo)) {
    return r.Fail("unknown fairness notion");
  }
  t.fairness.notion = static_cast<FairnessNotion>(notion);
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&t.fairness.mu, "fairness mu"));
  FACTION_RETURN_IF_ERROR(
      r.ReadDouble(&t.fairness.epsilon, "fairness epsilon"));
  FACTION_RETURN_IF_ERROR(
      r.ReadBool(&t.fairness.symmetric, "fairness symmetric flag"));
  FACTION_RETURN_IF_ERROR(
      r.ReadBool(&t.use_individual_penalty, "use_individual_penalty"));
  FACTION_RETURN_IF_ERROR(
      r.ReadDouble(&t.individual.weight, "individual weight"));
  FACTION_RETURN_IF_ERROR(
      r.ReadDouble(&t.individual.bandwidth, "individual bandwidth"));
  FACTION_RETURN_IF_ERROR(
      r.ReadDouble(&t.individual.similarity_cutoff, "similarity_cutoff"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&t.individual.max_pairs, "max_pairs"));

  FACTION_RETURN_IF_ERROR(r.Expect("rng"));
  FACTION_RETURN_IF_ERROR(r.ReadRngState(&out->rng, "rng state"));

  FACTION_RETURN_IF_ERROR(r.Expect("tensors"));
  std::size_t num_tensors = 0;
  FACTION_RETURN_IF_ERROR(r.ReadSize(&num_tensors, "tensor count"));
  if (num_tensors != 2 * (num_hidden + 1)) {
    return r.Fail("tensor count does not match the architecture");
  }
  out->params.resize(num_tensors);
  for (std::size_t i = 0; i < num_tensors; ++i) {
    FACTION_RETURN_IF_ERROR(r.ReadMatrix(&out->params[i], "tensor"));
  }

  FACTION_RETURN_IF_ERROR(r.Expect("layers"));
  std::size_t num_layers = 0;
  FACTION_RETURN_IF_ERROR(r.ReadSize(&num_layers, "layer count"));
  if (num_layers != num_hidden + 1) {
    return r.Fail("layer count does not match the architecture");
  }
  out->layers.resize(num_layers);
  for (std::size_t i = 0; i < num_layers; ++i) {
    LinearSnapshot& l = out->layers[i];
    FACTION_RETURN_IF_ERROR(r.ReadDouble(&l.scale, "layer scale"));
    FACTION_RETURN_IF_ERROR(r.ReadDouble(&l.sigma, "layer sigma"));
    FACTION_RETURN_IF_ERROR(r.ReadDouble(&l.sn_sigma, "layer sn_sigma"));
    FACTION_RETURN_IF_ERROR(r.ReadVector(&l.sn_u, "layer sn_u"));
    FACTION_RETURN_IF_ERROR(r.ReadVector(&l.sn_v, "layer sn_v"));
    FACTION_RETURN_IF_ERROR(r.ReadRngState(&l.sn_rng, "layer rng state"));
  }

  FACTION_RETURN_IF_ERROR(r.Expect("pool"));
  std::size_t pool_dim = 0;
  FACTION_RETURN_IF_ERROR(r.ReadSize(&out->pool_size, "pool size"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&pool_dim, "pool dimension"));
  if (pool_dim != c.model.input_dim) {
    return r.Fail("pool dimension does not match the model input");
  }
  out->pool_features.ResizeForOverwrite(out->pool_size, pool_dim);
  FACTION_RETURN_IF_ERROR(r.ReadDoubles(
      out->pool_features.data(), out->pool_size * pool_dim, "pool row"));
  FACTION_RETURN_IF_ERROR(r.Expect("labels"));
  FACTION_RETURN_IF_ERROR(
      r.ReadInts(&out->pool_labels, out->pool_size, "pool label"));
  FACTION_RETURN_IF_ERROR(r.Expect("sensitive"));
  FACTION_RETURN_IF_ERROR(
      r.ReadInts(&out->pool_sensitive, out->pool_size, "pool sensitive"));
  FACTION_RETURN_IF_ERROR(r.Expect("environments"));
  FACTION_RETURN_IF_ERROR(r.ReadInts(&out->pool_environments, out->pool_size,
                                     "pool environment"));

  FACTION_RETURN_IF_ERROR(r.Expect("ring"));
  std::size_t ring_dim = 0;
  FACTION_RETURN_IF_ERROR(r.ReadSize(&out->ring_size, "ring size"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&ring_dim, "ring dimension"));
  if (out->ring_size > c.density_window) {
    return r.Fail("ring size exceeds density_window");
  }
  out->ring_z.ResizeForOverwrite(out->ring_size, ring_dim);
  FACTION_RETURN_IF_ERROR(r.ReadDoubles(
      out->ring_z.data(), out->ring_size * ring_dim, "ring row"));
  FACTION_RETURN_IF_ERROR(r.Expect("ringlabels"));
  FACTION_RETURN_IF_ERROR(
      r.ReadInts(&out->ring_label, out->ring_size, "ring label"));
  FACTION_RETURN_IF_ERROR(r.Expect("ringsensitive"));
  FACTION_RETURN_IF_ERROR(
      r.ReadInts(&out->ring_sensitive, out->ring_size, "ring sensitive"));
  FACTION_RETURN_IF_ERROR(r.Expect("ringweights"));
  out->ring_weight.resize(out->ring_size);
  FACTION_RETURN_IF_ERROR(r.ReadDoubles(out->ring_weight.data(),
                                        out->ring_size, "ring weight"));

  FACTION_RETURN_IF_ERROR(r.Expect("normalizer"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&out->norm_count, "normalizer count"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&out->norm_min, "normalizer min"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&out->norm_max, "normalizer max"));

  FACTION_RETURN_IF_ERROR(r.Expect("counters"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&out->seen, "seen counter"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&out->queried, "queried counter"));
  FACTION_RETURN_IF_ERROR(
      r.ReadSize(&out->labels_since_refit, "labels_since_refit"));
  FACTION_RETURN_IF_ERROR(
      r.ReadBool(&out->trained_once, "trained_once flag"));

  DensitySnapshot& dsnap = out->density;
  FACTION_RETURN_IF_ERROR(r.Expect("density"));
  FACTION_RETURN_IF_ERROR(r.ReadBool(&dsnap.has_value, "density presence"));
  if (dsnap.has_value) {
    FACTION_RETURN_IF_ERROR(r.ReadSize(&dsnap.dim, "density dimension"));
    FACTION_RETURN_IF_ERROR(
        r.ReadBool(&dsnap.forgetting, "density forgetting flag"));
    FACTION_RETURN_IF_ERROR(r.ReadSize(&dsnap.total, "density total"));
    FACTION_RETURN_IF_ERROR(r.ReadDouble(&dsnap.wtotal, "density wtotal"));
    dsnap.domain = DensityDomain{};
    dsnap.cells.resize(static_cast<std::size_t>(dsnap.domain.num_classes) *
                       dsnap.domain.groups.size());
    for (DensityCellSnapshot& cell : dsnap.cells) {
      FACTION_RETURN_IF_ERROR(r.Expect("cell"));
      FACTION_RETURN_IF_ERROR(r.ReadBool(&cell.present, "cell presence"));
      FACTION_RETURN_IF_ERROR(r.ReadSize(&cell.count, "cell count"));
      FACTION_RETURN_IF_ERROR(r.ReadDouble(&cell.wcount, "cell wcount"));
      FACTION_RETURN_IF_ERROR(r.ReadDouble(&cell.weight, "cell weight"));
      FACTION_RETURN_IF_ERROR(
          r.ReadDouble(&cell.log_weight, "cell log-weight"));
      if (cell.present) {
        FACTION_RETURN_IF_ERROR(r.ReadGaussian(&cell.component));
      }
    }
  }
  return r.Expect("end");
}

Status DecodeSessionStateFromFile(const std::string& path,
                                  SessionState* out) {
  std::ifstream is(path);
  if (!is.is_open()) {
    return Status::NotFound("DecodeSessionStateFromFile: cannot open " +
                            path);
  }
  return DecodeSessionState(is, path, out);
}

// ------------------------------------------- standalone pipeline state

void CaptureDriftDetectorState(const DriftDetector& detector,
                               DriftDetectorState* out) {
  StateCodecAccess::CaptureDrift(detector, out);
}

void RestoreDriftDetectorState(const DriftDetectorState& state,
                               DriftDetector* detector) {
  StateCodecAccess::RestoreDrift(state, detector);
}

void EncodeDriftDetectorState(const DriftDetectorState& state,
                              std::string* out) {
  std::ostringstream os;
  os << std::hexfloat;
  os << kDriftMagic << '\n' << state.n;
  PutDouble(os, state.mean);
  PutDouble(os, state.m2);
  os << ' ' << state.cooldown_remaining << '\n';
  *out = os.str();
}

Status DecodeDriftDetectorState(std::istream& is, const std::string& source,
                                DriftDetectorState* out) {
  TokenReader r(is, source);
  FACTION_RETURN_IF_ERROR(r.ExpectMagic("faction-drift", "v1"));
  FACTION_RETURN_IF_ERROR(r.ReadSize(&out->n, "history count"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&out->mean, "running mean"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&out->m2, "running m2"));
  return r.ReadSize(&out->cooldown_remaining, "cooldown");
}

void CaptureBanditState(const BanditStrategy& strategy, BanditState* out) {
  StateCodecAccess::CaptureBandit(strategy, out);
}

void RestoreBanditState(const BanditState& state, BanditStrategy* strategy) {
  StateCodecAccess::RestoreBandit(state, strategy);
}

void EncodeBanditState(const BanditState& state, std::string* out) {
  std::ostringstream os;
  os << std::hexfloat;
  os << kBanditMagic << '\n';
  PutDouble(os, state.pulls[0]);
  PutDouble(os, state.pulls[1]);
  PutDouble(os, state.reward_sum[0]);
  PutDouble(os, state.reward_sum[1]);
  os << '\n';
  *out = os.str();
}

Status DecodeBanditState(std::istream& is, const std::string& source,
                         BanditState* out) {
  TokenReader r(is, source);
  FACTION_RETURN_IF_ERROR(r.ExpectMagic("faction-bandit", "v1"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&out->pulls[0], "arm pulls"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&out->pulls[1], "arm pulls"));
  FACTION_RETURN_IF_ERROR(r.ReadDouble(&out->reward_sum[0], "arm reward"));
  return r.ReadDouble(&out->reward_sum[1], "arm reward");
}

void CaptureDisentangledState(const DisentangledStrategy& strategy,
                              DisentangledState* out) {
  StateCodecAccess::CaptureDisentangled(strategy, out);
}

void RestoreDisentangledState(const DisentangledState& state,
                              DisentangledStrategy* strategy) {
  StateCodecAccess::RestoreDisentangled(state, strategy);
}

void EncodeDisentangledState(const DisentangledState& state,
                             std::string* out) {
  std::ostringstream os;
  os << std::hexfloat;
  os << kDisentangledMagic << '\n';
  PutVector(os, state.global);
  os << '\n' << state.deltas.size() << '\n';
  for (const auto& [env, delta] : state.deltas) {
    os << env << ' ';
    PutVector(os, delta);
    os << '\n';
  }
  *out = os.str();
}

Status DecodeDisentangledState(std::istream& is, const std::string& source,
                               DisentangledState* out) {
  TokenReader r(is, source);
  FACTION_RETURN_IF_ERROR(r.ExpectMagic("faction-disentangled", "v1"));
  FACTION_RETURN_IF_ERROR(r.ReadVector(&out->global, "global weights"));
  std::size_t num_deltas = 0;
  FACTION_RETURN_IF_ERROR(r.ReadSize(&num_deltas, "delta count"));
  if (num_deltas > 1u << 20) return r.Fail("oversized delta count");
  out->deltas.clear();
  for (std::size_t i = 0; i < num_deltas; ++i) {
    int env = 0;
    FACTION_RETURN_IF_ERROR(r.ReadInt(&env, "delta environment"));
    std::vector<double> delta;
    FACTION_RETURN_IF_ERROR(r.ReadVector(&delta, "delta weights"));
    out->deltas.emplace(env, std::move(delta));
  }
  return Status::Ok();
}

// FACTION_COLD_END

}  // namespace faction
