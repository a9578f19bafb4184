// Serving workloads (serve-fleet, serve-ckpt): a fleet of StreamingFaction
// sessions on ServeRuntime, driven only through CreateSession, Offer,
// Drain, EnableCheckpoints, WarmStart and the state_codec calls. Every pass
// starts from a fresh fleet and gives each session the same fixed number
// of arrivals, because per-arrival cost grows with session age. Offered
// rates are fixed constants from workloads.json, never calibrated per run.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common/fsio.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fairness/metrics.h"
#include "open_loop.h"
#include "perfbench.h"
#include "serve/serve_runtime.h"
#include "serve/state_codec.h"
#include "tracer.h"

namespace perfbench {
namespace {

using faction::Example;
using faction::ServeRuntime;
using faction::ServeSession;
using faction::Telemetry;
using Clock = std::chrono::steady_clock;
using Streams = std::vector<std::vector<Example>>;

constexpr std::size_t kInputDim = 12;
// The fleet: sessions on a runtime with two workers, beside the one
// generator thread (three threads on a 4-core host).
constexpr std::size_t kSessions = 64;
constexpr int kWorkers = 2;
// Set-ups timed before the measurement cycles (one more follows each).
constexpr std::size_t kSetupReps = 11;
// Held-out arrivals per session on which the final fleet is scored.
constexpr std::size_t kTestPerSession = 200;
// An arrival whose independently measured stages (generator lag, Offer,
// replayed service time) exceed its observed latency by more than this
// counts as not reconciling.
constexpr double kOverrunSlackMs = 0.005;
constexpr double kOverrunTolerance = 0.05;
// Measurement cycles a run makes however short its time.
constexpr std::size_t kMinCycles = 3;

std::uint64_t Seed(const Options& o, const std::string& tag) {
  return faction::SubSeed(o.seed, "perfbench/" + tag);
}

/// The session shape of bench/serve_loadgen (there over 6 features, here
/// over kInputDim): a small MLP that retrains and refits its density every
/// 20 labels.
faction::StreamingFactionConfig SessionConfig(const Options& o,
                                              std::uint64_t seed) {
  faction::StreamingFactionConfig config;
  config.model.input_dim = kInputDim;
  config.model.hidden_dims = {32, 16};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 12;
  config.burn_in = 6;
  config.refit_interval = 20;
  config.density_window = o.density_window;
  config.seed = seed;
  return config;
}

/// One session's arrivals: y ~ Bernoulli(0.5), the sensitive group
/// correlated with y (P(s=+1 | y=1) = 0.7), features shifted by both.
std::vector<Example> MakeArrivals(std::size_t n, std::uint64_t seed) {
  faction::Rng rng(seed);
  std::vector<Example> arrivals(n);
  for (Example& ex : arrivals) {
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(ex.label == 1 ? 0.7 : 0.3) ? 1 : -1;
    ex.x.resize(kInputDim);
    const double center = (ex.label == 1 ? 0.6 : -0.6) +
                          (ex.sensitive == 1 ? 0.4 : -0.4);
    for (double& v : ex.x) v = rng.Gaussian(center, 1.0);
  }
  return arrivals;
}

struct Fleet {
  std::unique_ptr<ServeRuntime> runtime;
  std::vector<ServeSession*> sessions;
};

/// A runtime with fresh sessions; a non-empty `checkpoint_dir` enables
/// checkpointing into it.
Fleet BuildFleet(const Options& o, int workers,
                 const std::string& checkpoint_dir) {
  const std::size_t capacity = o.arrivals + o.continue_arrivals;
  faction::ServeRuntimeOptions runtime_options;
  runtime_options.workers = workers;
  runtime_options.max_sessions = kSessions;
  runtime_options.record_latency = false;
  Fleet fleet;
  fleet.runtime = std::make_unique<ServeRuntime>(runtime_options);
  if (!checkpoint_dir.empty()) {
    faction::CheckpointOptions checkpoint;
    checkpoint.dir = checkpoint_dir;
    checkpoint.interval_steps = o.checkpoint_interval;
    fleet.runtime->EnableCheckpoints(checkpoint);
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    faction::ServeSessionOptions session;
    session.stream_id = s;
    // A mailbox holds a whole pass, so an open-loop pass never sheds: an
    // overloaded rate shows as latency and backlog instead.
    session.faction =
        SessionConfig(o, Seed(o, "session/" + std::to_string(s)));
    session.mailbox_capacity = capacity;
    session.decision_log_capacity = capacity;
    fleet.sessions.push_back(fleet.runtime->CreateSession(session));
  }
  return fleet;
}

/// A fresh, empty directory for one pass's checkpoint files; empty when
/// the workload does not checkpoint.
std::string CheckpointDir(const Options& o) {
  if (o.checkpoint_interval == 0) return "";
  static int next = 0;
  const std::string dir = o.scratch + "/ckpt-" + std::to_string(::getpid()) +
                          "-" + std::to_string(next++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void RemoveDir(const std::string& dir) {
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

/// Times one set-up: the arrival streams, the runtime (workers started,
/// checkpointing enabled for the checkpoint workload) and the fleet. Set-ups
/// repeat between measurement cycles too, so their median spans the run
/// rather than the host's state at its start.
void TimeSetup(const Options& o, Streams* streams,
               std::vector<double>* setup_s) {
  const std::size_t total = o.arrivals + o.continue_arrivals;
  const std::string dir = CheckpointDir(o);
  const Clock::time_point start = Clock::now();
  streams->clear();
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams->push_back(
        MakeArrivals(total, Seed(o, "arrivals/" + std::to_string(s))));
  }
  {
    Fleet fleet = BuildFleet(o, kWorkers, dir);
    setup_s->push_back(SecondsSince(start));
  }
  RemoveDir(dir);
}

/// Waits, without lending this thread to the workers, until each session
/// has completed `steps[s]` arrivals.
void AwaitSteps(ServeRuntime* runtime,
                const std::vector<ServeSession*>& sessions,
                const std::vector<std::size_t>& steps) {
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    while (sessions[s]->steps() < steps[s]) std::this_thread::yield();
  }
  runtime->Drain();
}

class FleetTarget final : public ServeTarget {
 public:
  FleetTarget(const Fleet* fleet, const Streams* streams)
      : fleet_(fleet), streams_(streams) {}

  std::size_t sessions() const override { return fleet_->sessions.size(); }
  bool Offer(std::size_t session, std::size_t index) override {
    return fleet_->runtime->Offer(fleet_->sessions[session],
                                  (*streams_)[session][index]);
  }
  std::size_t Completed(std::size_t session) const override {
    return fleet_->sessions[session]->steps();
  }

 private:
  const Fleet* fleet_;
  const Streams* streams_;
};

/// The same arrivals served inline on this thread (workers = 0): the
/// decision reference for every pass and each arrival's service time.
/// Sessions are independent, so the replay serves them one after another,
/// each through all its arrivals, as a worker drains a full mailbox.
struct Replay {
  Fleet fleet;  ///< kept for the quality and codec measurements
  std::vector<std::vector<std::uint8_t>> decisions;
  std::vector<std::vector<double>> service_us;
  /// Whether the arrival retrained and refit its session (traced run only,
  /// from MarkRefits).
  std::vector<std::vector<std::uint8_t>> refit;
};

/// The timed replay; the program's counters stay off.
Replay RunReplay(const Options& o, const Streams& streams, Tracer* tracer,
                 Report* report) {
  const std::size_t total = o.arrivals + o.continue_arrivals;
  Replay replay;
  replay.fleet = BuildFleet(o, 0, "");
  replay.service_us.assign(kSessions, std::vector<double>(total, 0.0));
  std::size_t refused = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t i = 0; i < total; ++i) {
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      {
        ScopedSpan span(tracer, "core.step", s * total + i);
        ok = replay.fleet.runtime->Offer(replay.fleet.sessions[s],
                                         streams[s][i]);
      }
      replay.service_us[s][i] =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      if (!ok) ++refused;
    }
  }
  report->Count(kSessions * total, refused, "replay arrivals accepted");
  for (const ServeSession* session : replay.fleet.sessions) {
    replay.decisions.push_back(session->decisions());
  }
  return replay;
}

/// Wall time of one inline replay of the first `arrivals` per session, on
/// a fresh fleet and without per-arrival timing.
double ReplayPassSeconds(const Options& o, const Streams& streams) {
  Fleet fleet = BuildFleet(o, 0, "");
  const Clock::time_point start = Clock::now();
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t i = 0; i < o.arrivals; ++i) {
      fleet.runtime->Offer(fleet.sessions[s], streams[s][i]);
    }
  }
  return SecondsSince(start);
}

/// Counts sessions whose decision log is not `expected` decisions long or
/// differs from the replay's decisions from `first[s]` on.
void CheckDecisions(const std::vector<ServeSession*>& sessions,
                    const Replay& replay,
                    const std::vector<std::size_t>& first,
                    std::size_t expected, Report* report,
                    const std::string& what) {
  std::size_t mismatched = 0;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const std::vector<std::uint8_t>& log = sessions[s]->decisions();
    const std::vector<std::uint8_t>& ref = replay.decisions[s];
    const bool same =
        log.size() == expected && first[s] + expected <= ref.size() &&
        std::equal(log.begin(), log.end(),
                   ref.begin() + static_cast<std::ptrdiff_t>(first[s]));
    if (!same) ++mismatched;
  }
  report->Count(sessions.size(), mismatched, what);
}

/// Marks the arrivals that retrained and refit their session, from a
/// second, untimed inline replay with the program's counters on. Every
/// counter update takes a global lock, so counting stays out of every
/// timed pass; the counted replay must decide as the timed one.
void MarkRefits(const Options& o, const Streams& streams, Replay* replay,
                Report* report) {
  const std::size_t total = o.arrivals + o.continue_arrivals;
  replay->refit.assign(kSessions, std::vector<std::uint8_t>(total, 0));
  Fleet fleet = BuildFleet(o, 0, "");
  Telemetry* telemetry = Telemetry::Enable();
  telemetry->Reset();
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t i = 0; i < total; ++i) {
      const std::uint64_t refits = telemetry->CounterValue("streaming.refit");
      fleet.runtime->Offer(fleet.sessions[s], streams[s][i]);
      replay->refit[s][i] =
          telemetry->CounterValue("streaming.refit") != refits;
    }
  }
  Telemetry::Disable();
  CheckDecisions(fleet.sessions, *replay,
                 std::vector<std::size_t>(kSessions, 0), total, report,
                 "counted replay decides as the timed replay");
}

double Counter(const Telemetry* telemetry, const char* name) {
  return static_cast<double>(telemetry->CounterValue(name));
}

/// Accuracy and DDP of the replayed fleet's final models on held-out
/// arrivals; the serving counterpart of the learner's stream metrics.
void FleetQuality(const Options& o, const Replay& replay, Report* report) {
  std::vector<int> predicted, labels, groups;
  std::size_t failed = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (const Example& ex : MakeArrivals(
             kTestPerSession, Seed(o, "test/" + std::to_string(s)))) {
      const faction::Result<int> p =
          replay.fleet.sessions[s]->faction().Predict(ex.x);
      if (!p.ok()) {
        ++failed;
        continue;
      }
      predicted.push_back(p.value());
      labels.push_back(ex.label);
      groups.push_back(ex.sensitive);
    }
  }
  report->Count(kSessions * kTestPerSession, failed, "fleet predictions");
  const faction::Result<double> accuracy = faction::Accuracy(predicted, labels);
  const faction::Result<double> ddp =
      faction::DemographicParityDifference(predicted, groups);
  report->Check(accuracy.ok() && ddp.ok() && accuracy.value() > 0.5,
                "fleet accuracy beats chance");
  report->values["accuracy"] = accuracy.value_or(0.0);
  report->values["ddp"] = ddp.value_or(0.0);
}

/// Serves each restored session its next `continue_arrivals` and checks
/// its decisions against the replay from the session's manifest step on.
void ContinueRestored(const Options& o, const Streams& streams,
                      const Replay& replay, ServeRuntime* runtime,
                      Report* report) {
  std::vector<ServeSession*> sessions(kSessions);
  std::vector<std::size_t> first(kSessions), target(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions[s] = runtime->registry().Find(s);
    if (sessions[s] == nullptr || sessions[s]->steps() > o.arrivals) {
      report->Check(false, "restored session " + std::to_string(s));
      return;
    }
    first[s] = sessions[s]->steps();
    target[s] = first[s] + o.continue_arrivals;
  }
  std::size_t refused = 0;
  for (std::size_t i = 0; i < o.continue_arrivals; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (!runtime->Offer(sessions[s], streams[s][first[s] + i])) {
        ++refused;
        --target[s];
      }
    }
  }
  AwaitSteps(runtime, sessions, target);
  report->Count(kSessions * o.continue_arrivals, refused,
                "restored arrivals accepted");
  CheckDecisions(sessions, replay, first, o.continue_arrivals, report,
                 "restored sessions decide as the replay after their "
                 "manifest step");
}

/// Job-system counters of the first runtime of a saturation pass, up to
/// its Flush; read only while the program's counters are on.
struct JobCounts {
  double executed = 0.0;
  double stolen = 0.0;
  double parked = 0.0;
  double serializers = 0.0;  ///< checkpoint serializer jobs, one per capture
};

struct Saturation {
  double serve_s = 0.0;      ///< first Offer to last completion
  double run_s = 0.0;        ///< plus Flush and WarmStart when checkpointing
  double warmstart_s = 0.0;
  JobCounts jobs;
};

/// Closed loop: the whole pass is queued at once, session after session,
/// so every mailbox fills with one drain scheduled and stays full until
/// the workers drain it; queueing takes a small part of the pass, which
/// the workers then bound. With checkpointing, the pass ends with
/// Flush, a WarmStart of a fresh runtime from the manifest, and the
/// restored fleet serving `continue_arrivals` more per session.
Saturation SaturationPass(const Options& o, const Streams& streams,
                          const Replay& replay, Report* report) {
  const std::string dir = CheckpointDir(o);
  Saturation sat;
  std::string manifest;
  {
    Fleet fleet = BuildFleet(o, kWorkers, dir);
    std::vector<std::size_t> target(kSessions, o.arrivals);
    std::size_t refused = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t i = 0; i < o.arrivals; ++i) {
        if (!fleet.runtime->Offer(fleet.sessions[s], streams[s][i])) {
          ++refused;
          --target[s];
        }
      }
    }
    AwaitSteps(fleet.runtime.get(), fleet.sessions, target);
    sat.serve_s = SecondsSince(start);
    sat.run_s = sat.serve_s;
    report->Count(kSessions * o.arrivals, refused,
                  "saturation arrivals accepted");
    CheckDecisions(fleet.sessions, replay,
                   std::vector<std::size_t>(kSessions, 0), o.arrivals,
                   report, "saturation decisions match the replay");
    if (faction::CheckpointManager* checkpoints =
            fleet.runtime->checkpoints()) {
      const Clock::time_point flush_start = Clock::now();
      checkpoints->Flush();
      sat.run_s += SecondsSince(flush_start);
      report->Check(checkpoints->failures() == 0,
                    "checkpoint serializations succeed");
      manifest = checkpoints->ManifestPath();
    }
    // Before the restored runtime adds its own jobs.
    if (const Telemetry* telemetry = Telemetry::Get()) {
      sat.jobs.executed = Counter(telemetry, "serve.jobs.executed");
      sat.jobs.stolen = Counter(telemetry, "serve.jobs.stolen");
      sat.jobs.parked = Counter(telemetry, "serve.workers.parked");
      sat.jobs.serializers = Counter(telemetry, "serve.checkpoint.captured");
    }
  }
  if (!manifest.empty()) {
    faction::ServeRuntimeOptions runtime_options;
    runtime_options.workers = kWorkers;
    runtime_options.max_sessions = kSessions;
    runtime_options.record_latency = false;
    ServeRuntime restored(runtime_options);
    faction::WarmStartOptions warm;
    warm.mailbox_capacity = o.continue_arrivals;
    warm.decision_log_capacity = o.continue_arrivals;
    const Clock::time_point start = Clock::now();
    const faction::Result<faction::WarmStartReport> warmed =
        restored.WarmStart(manifest, warm);
    sat.warmstart_s = SecondsSince(start);
    sat.run_s += sat.warmstart_s;
    report->Check(warmed.ok() && warmed.value().sessions == kSessions,
                  "warm start restores every session");
    if (warmed.ok()) ContinueRestored(o, streams, replay, &restored, report);
  }
  RemoveDir(dir);
  return sat;
}

struct LoadPass {
  std::vector<Arrival> schedule;
  OpenLoopResult load;
};

/// Open loop at one fixed rate on a fresh fleet (with checkpointing for
/// the checkpoint workload).
LoadPass OpenLoopPass(const Options& o, const Streams& streams,
                      const Replay& replay, double rate,
                      const std::string& tag, Tracer* tracer,
                      Report* report) {
  const std::string dir = CheckpointDir(o);
  LoadPass pass;
  pass.schedule = PoissonSchedule(kSessions, o.arrivals, rate,
                                  Seed(o, "schedule/" + tag));
  {
    Fleet fleet = BuildFleet(o, kWorkers, dir);
    FleetTarget target(&fleet, &streams);
    pass.load = RunOpenLoop(&target, pass.schedule, tracer);
    fleet.runtime->Drain();
    report->Count(pass.schedule.size(), pass.load.refused,
                  "open-loop arrivals accepted (" + tag + ")");
    CheckDecisions(fleet.sessions, replay,
                   std::vector<std::size_t>(kSessions, 0), o.arrivals,
                   report, "decisions match the replay (" + tag + ")");
    if (faction::CheckpointManager* checkpoints =
            fleet.runtime->checkpoints()) {
      checkpoints->Flush();
      report->Check(checkpoints->failures() == 0,
                    "checkpoint serializations succeed (" + tag + ")");
    }
  }
  RemoveDir(dir);
  return pass;
}

std::vector<double> Finite(const std::vector<double>& values) {
  std::vector<double> out;
  for (const double v : values) {
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

/// Per-arrival core cost from the traced replay: steps without a refit,
/// refits, and the share of service time the refits take.
void ReplayLayers(const Replay& replay, Report* report) {
  std::vector<double> step_us, refit_ms;
  double refit_total = 0.0, service_total = 0.0;
  std::size_t queries = 0, arrivals = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t i = 0; i < replay.service_us[s].size(); ++i) {
      const double us = replay.service_us[s][i];
      service_total += us;
      if (replay.refit[s][i] != 0) {
        refit_ms.push_back(us / 1e3);
        refit_total += us;
      } else {
        step_us.push_back(us);
      }
    }
    for (const std::uint8_t d : replay.decisions[s]) queries += d;
    arrivals += replay.decisions[s].size();
  }
  auto& v = report->values;
  v["core.step_us_p50"] = Median(step_us);
  v["core.step_us_p99"] = Percentile(step_us, 990);
  v["core.refit_ms_p50"] = Median(refit_ms);
  v["core.refit_ms_max"] = Percentile(refit_ms, 1000);
  v["core.refits"] = static_cast<double>(refit_ms.size());
  v["core.refit_share"] = refit_total / service_total;
  v["core.query_frac"] =
      static_cast<double>(queries) / static_cast<double>(arrivals);
}

/// Times the public codec calls on every session of the replayed fleet.
void CodecLayers(const Replay& replay, Report* report) {
  std::vector<double> capture_us, encode_ms, decode_ms, restore_ms;
  double bytes = 0.0;
  std::size_t failed = 0;
  faction::SessionState state, decoded;
  std::string encoded;
  for (const ServeSession* session : replay.fleet.sessions) {
    // The first capture sizes the buffers; the drain path captures into
    // warm buffers, so the second one is timed.
    faction::CaptureSessionState(session->faction(), &state);
    Clock::time_point t = Clock::now();
    faction::CaptureSessionState(session->faction(), &state);
    capture_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t).count());
    t = Clock::now();
    faction::EncodeSessionState(state, &encoded);
    encode_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t).count());
    bytes += static_cast<double>(encoded.size());
    std::istringstream in(encoded);
    t = Clock::now();
    const faction::Status decode =
        faction::DecodeSessionState(in, "perfbench", &decoded);
    decode_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t).count());
    if (!decode.ok()) {
      ++failed;
      continue;
    }
    faction::StreamingFaction restored(decoded.config);
    t = Clock::now();
    const faction::Status restore =
        faction::RestoreSessionState(decoded, &restored);
    restore_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t).count());
    if (!restore.ok()) ++failed;
  }
  report->Count(kSessions, failed, "codec round trips");
  auto& v = report->values;
  v["ckpt.capture_us"] = Median(capture_us);
  v["ckpt.encode_ms"] = Median(encode_ms);
  v["ckpt.decode_ms"] = Median(decode_ms);
  v["ckpt.restore_ms"] = Median(restore_ms);
  v["ckpt.bytes"] = bytes / static_cast<double>(kSessions);
}

/// One more pass at the reference rate (the first) with every Offer traced
/// and the program's counters off: Offer time, wait, backlog, and the
/// reconciliation of the separately measured stages against the latency.
/// Tracing overhead compares this pass's median latency with the median of
/// the untraced passes' medians at the same rate.
void TracedReferencePass(const Options& o, const Streams& streams,
                         const Replay& replay, double untraced_p50_ms,
                         Tracer* tracer, Report* report) {
  const LoadPass pass = OpenLoopPass(o, streams, replay, o.rates.front(),
                                     "traced", tracer, report);
  // Wait is latency minus the arrival's service time from the replay.
  // Reconciliation: generator lag and service, measured separately, must
  // fit inside the observed latency; what remains is mailbox wait plus the
  // part of Offer that does not overlap the service (a worker may start on
  // the arrival before Offer returns).
  std::vector<double> latency, wait, offer, residual;
  std::size_t overrun = 0;
  for (std::size_t pos = 0; pos < pass.schedule.size(); ++pos) {
    const double lat = pass.load.latency_ms[pos];
    if (!std::isfinite(lat)) continue;
    const double service_ms =
        replay.service_us[pass.schedule[pos].session][pass.load.index[pos]] /
        1e3;
    const double rest = lat - pass.load.lag_ms[pos] - service_ms;
    latency.push_back(lat);
    wait.push_back(lat - service_ms);
    offer.push_back(pass.load.offer_us[pos]);
    residual.push_back(rest);
    if (rest < -kOverrunSlackMs) ++overrun;
  }
  auto& v = report->values;
  v["serve.offer_us_p50"] = Median(offer);
  v["serve.offer_us_p99"] = Percentile(offer, 990);
  v["serve.wait_ms_p50"] = Median(wait);
  v["serve.wait_ms_p99"] = Percentile(wait, 990);
  v["serve.backlog_max"] = static_cast<double>(pass.load.backlog_max);
  v["trace.overhead_ms_p50"] = Median(latency) - untraced_p50_ms;
  const double overrun_frac =
      latency.empty() ? 0.0
                      : static_cast<double>(overrun) /
                            static_cast<double>(latency.size());
  v["reconcile.serve_residual_ms_p50"] = Median(residual);
  v["reconcile.serve_overrun_frac"] = overrun_frac;
  std::cout << "reconcile: lag + service leave a median "
            << Median(residual) << " ms of mailbox wait; " << overrun_frac
            << " of arrivals overrun their latency (tolerance "
            << kOverrunTolerance << ": "
            << (overrun_frac <= kOverrunTolerance ? "within" : "OUTSIDE")
            << ")\n";
}

/// One more pass at the reference rate with the program's counters on and
/// no time taken from it: the checkpoint, density, trainer and gemm work
/// done at that rate.
void CountedReferencePass(const Options& o, const Streams& streams,
                          const Replay& replay, Report* report) {
  const std::uint64_t fsyncs = faction::FsyncCallsForTest();
  Telemetry* telemetry = Telemetry::Enable();
  telemetry->Reset();
  OpenLoopPass(o, streams, replay, o.rates.front(), "counted", nullptr,
               report);
  Telemetry::Disable();
  auto& v = report->values;
  v["fsio.fsyncs"] =
      static_cast<double>(faction::FsyncCallsForTest() - fsyncs);
  v["ckpt.captured"] = Counter(telemetry, "serve.checkpoint.captured");
  v["ckpt.serialized"] = Counter(telemetry, "serve.checkpoint.serialized");
  v["ckpt.skipped_busy"] = Counter(telemetry, "serve.checkpoint.skipped_busy");
  v["ckpt.failures"] = Counter(telemetry, "serve.checkpoint.errors");
  v["density.fits"] = Counter(telemetry, "density.fair_fit");
  v["density.updates"] = Counter(telemetry, "density.fair_update");
  v["density.downdates"] = Counter(telemetry, "density.downdates");
  v["density.fallback_refactors"] =
      Counter(telemetry, "density.downdate_fallback_refactors");
  v["nn.trainer_steps"] = Counter(telemetry, "trainer.steps");
  v["tensor.gemm_calls"] = Counter(telemetry, "simd.gemm_calls");
  v["tensor.gemm_flops"] = telemetry->HistogramFor("simd.gemm_flops").sum;
}

}  // namespace

int RunServeWorkload(const Options& o, Report* report) {
  Streams streams;
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    TimeSetup(o, &streams, &setup_s);
  }
  const Clock::time_point measure_start = Clock::now();

  Tracer tracer;
  Tracer* spans = o.trace ? &tracer : nullptr;
  Replay replay = RunReplay(o, streams, spans, report);
  FleetQuality(o, replay, report);

  // Tracing off, the run's time goes to cycles of short units: an inline
  // replay of one pass (the reference path), a saturation pass (the unit
  // of work), and an open-loop pass at each fixed rate. Interleaving them
  // spreads each metric's units over the whole run. The closed-loop times
  // and p50_ms are the fastest unit, as the learner's run times are: in
  // slow stretches of the host the reference-rate median latency rose from
  // 0.017 ms to 3 ms for minutes. The per-layer tails are medians over
  // passes. Latency statistics are taken per pass, where the tail
  // percentile follows from the pass's fixed sample count.
  const int tail = TailPermille(kSessions * o.arrivals);
  std::vector<double> replay_s, run_s, serve_s, warmstart_s, reference_lag;
  std::vector<std::vector<double>> p50_ms(o.rates.size()),
      tail_ms(o.rates.size());
  double cycle_s = 0.0;
  for (std::size_t cycle = 0;
       cycle < kMinCycles || SecondsSince(measure_start) + cycle_s <= o.seconds;
       ++cycle) {
    const Clock::time_point cycle_start = Clock::now();
    replay_s.push_back(ReplayPassSeconds(o, streams));
    const Saturation sat = SaturationPass(o, streams, replay, report);
    run_s.push_back(sat.run_s);
    serve_s.push_back(sat.serve_s);
    warmstart_s.push_back(sat.warmstart_s);
    for (std::size_t r = 0; r < o.rates.size(); ++r) {
      const LoadPass pass =
          OpenLoopPass(o, streams, replay, o.rates[r],
                       "rate/" + std::to_string(r) + "/" +
                           std::to_string(cycle),
                       nullptr, report);
      const std::vector<double> latency = Finite(pass.load.latency_ms);
      p50_ms[r].push_back(Median(latency));
      tail_ms[r].push_back(Percentile(latency, tail));
      if (r == 0) {
        reference_lag.insert(reference_lag.end(), pass.load.lag_ms.begin(),
                             pass.load.lag_ms.end());
      }
    }
    Streams discarded;
    TimeSetup(o, &discarded, &setup_s);
    cycle_s = SecondsSince(cycle_start);
  }
  auto& v = report->values;
  v["setup_s"] = Median(setup_s);
  v["ref_run_s"] = Fastest(replay_s);
  v["run_s"] = Fastest(run_s);
  v["serve.sat_rate"] =
      static_cast<double>(kSessions * o.arrivals) / Fastest(serve_s);
  v["ckpt.warmstart_s"] = Median(warmstart_s);
  std::vector<RatePoint> points;
  for (std::size_t r = 0; r < o.rates.size(); ++r) {
    points.push_back({o.rates[r], Median(tail_ms[r])});
    std::cout << "rate " << o.rates[r] << "/s: " << tail_ms[r].size()
              << " passes of " << kSessions * o.arrivals
              << " arrivals, p50 fastest " << Fastest(p50_ms[r])
              << " and median " << Median(p50_ms[r]) << " ms, p"
              << tail / 10.0 << " " << points.back().tail_ms << " ms\n";
  }
  v["p50_ms"] = Fastest(p50_ms.front());
  v["latency.tail_ms"] = points.front().tail_ms;
  v["serve.slo_rate"] = SloRate(points, o.limit_ms);
  v["serve.tail_ms_high"] = points.back().tail_ms;
  v["gen.lag_ms_p99"] = Percentile(reference_lag, 990);
  std::cout << replay_s.size() << " replays and " << run_s.size()
            << " saturation passes; saturation " << v["serve.sat_rate"]
            << "/s; p" << tail / 10.0 << " reaches " << o.limit_ms
            << " ms at " << v["serve.slo_rate"] << "/s\n";

  if (o.trace) {
    MarkRefits(o, streams, &replay, report);
    ReplayLayers(replay, report);
    // A saturation pass with the program's counters on: job-system work
    // per arrival when every mailbox is full.
    Telemetry::Enable()->Reset();
    const Saturation counted = SaturationPass(o, streams, replay, report);
    Telemetry::Disable();
    v["serve.jobs_executed"] = counted.jobs.executed;
    v["serve.jobs_stolen"] = counted.jobs.stolen;
    v["serve.workers_parked"] = counted.jobs.parked;
    const double drains = counted.jobs.executed - counted.jobs.serializers;
    v["serve.arrivals_per_drain"] =
        drains > 0.0 ? static_cast<double>(kSessions * o.arrivals) / drains
                     : 0.0;
    TracedReferencePass(o, streams, replay, Median(p50_ms.front()), spans,
                        report);
    CountedReferencePass(o, streams, replay, report);
    if (o.checkpoint_interval > 0) CodecLayers(replay, report);
    const std::string path = o.scratch + "/spans-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".jsonl";
    report->Check(tracer.WriteJsonl(path), "spans written to " + path);
  }
  return 0;
}

}  // namespace perfbench
