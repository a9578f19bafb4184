#ifndef FACTION_SERVE_STATE_CODEC_H_
#define FACTION_SERVE_STATE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/streaming_faction.h"
#include "density/fair_density.h"
#include "tensor/matrix.h"

// Full-session state codec (DESIGN.md §17): captures the COMPLETE state of
// a StreamingFaction — model parameters, per-layer spectral-normalization
// state, labeled pool, eviction ring, per-(class, sensitive) Gaussian
// sufficient statistics, incremental normalizer, RNG position, and every
// counter — into a plain-data SessionState, and restores it such that the
// restored learner's future outputs are bitwise identical to the
// uninterrupted one's. The text format is "faction-session v1": every
// double is a hexfloat token built from its bits by common/hexfloat.h
// (printf("%a")'s bytes) and round-trips bit-for-bit; the decoder accepts
// only that canonical spelling, and its errors name the source and byte
// offset. One templated Visit per
// snapshot type (state_codec.cc) drives both directions, so the encoder
// and decoder cannot drift apart and every decode check also gates the
// encoder.
//
// Split of responsibilities:
//   * CaptureSessionState is the hot half — called by the drain holder
//     between drains; allocation-free once the destination buffers are
//     warm (copy assignments reuse capacity).
//   * Encode/Decode/Restore are the cold half — they run on background
//     serializer jobs or during warm-start and may allocate freely.

namespace faction {

/// Snapshot of one fitted Gaussian component: cached factorization plus
/// the additive sufficient statistics.
struct GaussianSnapshot {
  std::size_t count = 0;
  double weight = 0.0;
  double ridge = 0.0;
  double log_det = 0.0;
  bool forgetting = false;
  std::vector<double> mean;
  std::vector<double> sum;
  Matrix chol;
  Matrix scatter;
};

/// Snapshot of one (class, sensitive) cell of the mixture.
struct DensityCellSnapshot {
  bool present = false;
  std::size_t count = 0;
  double wcount = 0.0;
  double weight = 0.0;
  double log_weight = 0.0;
  GaussianSnapshot component;  // meaningful when present
};

/// Snapshot of the (class x sensitive) mixture, one cell per component of
/// the estimator's domain. Mixture weights are stored verbatim (not
/// recomputed on restore) so the restored estimator is bitwise identical,
/// including log-weights that are -infinity for zero-mass cells. The
/// "faction-session v1" format does not encode the domain: a session's
/// estimator is always on the default binary one.
struct DensitySnapshot {
  bool has_value = false;
  std::size_t dim = 0;
  DensityDomain domain;
  bool forgetting = false;
  std::size_t total = 0;
  double wtotal = 0.0;
  std::vector<DensityCellSnapshot> cells;
};

/// Per-Linear persistent spectral-normalization state: the effective
/// weight used by inference is W * scale, and each training forward draws
/// from sn_rng, so restore-time parity needs all of it exact.
struct LinearSnapshot {
  double scale = 1.0;
  double sigma = 0.0;
  double sn_sigma = 0.0;
  std::vector<double> sn_u;
  std::vector<double> sn_v;
  Rng::State sn_rng;
};

/// The complete serializable state of one serving session. Plain data: the
/// checkpoint manager double-buffers SessionState instances and hands them
/// to background serializer jobs.
struct SessionState {
  // Stamped by the checkpoint layer, not by Capture.
  std::uint64_t stream_id = 0;
  std::uint64_t generation = 0;
  std::uint64_t steps = 0;

  StreamingFactionConfig config;
  Rng::State rng;
  /// Model parameters, layer order: hidden[0].W, hidden[0].b, ...,
  /// head.W, head.b.
  std::vector<Matrix> params;
  /// One entry per Linear, same order as the parameter pairs.
  std::vector<LinearSnapshot> layers;

  std::size_t pool_size = 0;
  Matrix pool_features;
  std::vector<int> pool_labels;
  std::vector<int> pool_sensitive;
  std::vector<int> pool_environments;

  /// Eviction ring, canonicalized oldest-first (restore rebuilds with
  /// ring_start = 0; slot layout is not observable, so this is bitwise
  /// safe).
  std::size_t ring_size = 0;
  Matrix ring_z;
  std::vector<int> ring_label;
  std::vector<int> ring_sensitive;
  std::vector<double> ring_weight;

  DensitySnapshot density;

  std::size_t norm_count = 0;
  double norm_min = 0.0;
  double norm_max = 0.0;

  std::size_t seen = 0;
  std::size_t queried = 0;
  std::size_t labels_since_refit = 0;
  bool trained_once = false;
};

/// Captures the learner's full state into *out. Hot-path legal: once the
/// destination's buffers are warm (same shapes as the previous capture)
/// the call performs no heap allocation. Does not stamp
/// stream_id/generation/steps.
void CaptureSessionState(const StreamingFaction& faction, SessionState* out);

/// Restores a captured state into a learner constructed from the SAME
/// configuration (`StreamingFaction(state.config)`). After a successful
/// restore the learner's future ShouldQuery/ProvideLabel outputs are
/// bitwise identical to the captured learner's. Pre-sizes all steady-state
/// scratch (Gaussian factor buffers, pool spare rows, workspace arena) so
/// the first post-restore arrival is as allocation-free as any other.
Status RestoreSessionState(const SessionState& state,
                           StreamingFaction* faction);

/// Serializes a SessionState to the "faction-session v1" text format
/// (hexfloat payload), overwriting *out. Refuses, with *out left empty,
/// every state DecodeSessionState would reject: NumericalError for a NaN
/// or infinite value, InvalidArgument for a shape or count the format
/// cannot carry.
Status EncodeSessionState(const SessionState& state, std::string* out);

/// Parses a "faction-session v1" stream. `source` names the stream in
/// error messages (path or a logical label); every failure reports the
/// byte offset where parsing stopped.
Status DecodeSessionState(std::istream& is, const std::string& source,
                          SessionState* out);

/// Convenience file reader: NotFound when the path cannot be opened,
/// decode errors carry the path and byte offset.
Status DecodeSessionStateFromFile(const std::string& path,
                                  SessionState* out);

}  // namespace faction

#endif  // FACTION_SERVE_STATE_CODEC_H_
