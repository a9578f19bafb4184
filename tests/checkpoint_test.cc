// Checkpoint/state-streaming tests (DESIGN.md §17): bitwise
// capture/encode/decode/restore round trips for the full session state,
// pinned "faction-session v1" bytes, kill-then-restore decision parity at
// any worker count, warm-start from a manifest, generation/rotation
// protocol, the never-stall skip path, and the inputs the codec, the
// manifest reader and WarmStart must refuse with a Status (never an
// abort).
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "serve/checkpoint.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "serve/state_codec.h"

namespace faction {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers (mirroring tests/serve_test.cc's replay harness).

StreamingFactionConfig SmallConfig(std::uint64_t seed) {
  StreamingFactionConfig config;
  config.model.input_dim = 6;
  config.model.hidden_dims = {8};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 12;
  config.burn_in = 6;
  config.refit_interval = 20;
  config.seed = seed;
  return config;
}

// Sliding window + exponential decay: exercises the eviction ring and the
// forgetting-mode (ridge) Gaussian state in the codec.
StreamingFactionConfig WindowedConfig(std::uint64_t seed) {
  StreamingFactionConfig config = SmallConfig(seed);
  config.density_window = 48;
  config.density_decay = 0.99;
  return config;
}

std::vector<Example> MakeStream(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    Example& ex = stream[i];
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
    ex.environment = 0;
    ex.x.resize(dim);
    const double center = ex.label == 1 ? 1.5 : -1.5;
    const double shift = ex.sensitive == 1 ? 0.4 : -0.4;
    for (std::size_t d = 0; d < dim; ++d) {
      ex.x[d] = rng.Gaussian(center + shift, 1.0);
    }
  }
  return stream;
}

std::vector<std::uint64_t> ParamBits(const StreamingFaction& faction) {
  std::vector<std::uint64_t> bits;
  for (const Matrix* m : faction.model().Parameters()) {
    const std::size_t n = m->rows() * m->cols();
    const std::size_t base = bits.size();
    bits.resize(base + n);
    static_assert(sizeof(double) == sizeof(std::uint64_t), "");
    std::memcpy(bits.data() + base, m->data(), n * sizeof(double));
  }
  return bits;
}

// Folds stream[begin, end) into the learner, recording query decisions.
void RunStream(StreamingFaction* faction, const std::vector<Example>& stream,
               std::size_t begin, std::size_t end,
               std::vector<std::uint8_t>* decisions) {
  for (std::size_t i = begin; i < end; ++i) {
    const bool query = faction->ShouldQuery(stream[i]).value();
    if (query) {
      ASSERT_TRUE(faction->ProvideLabel(stream[i]).ok());
    }
    if (decisions != nullptr) decisions->push_back(query ? 1 : 0);
  }
}

// Fresh per-test scratch directory under /tmp (unique per test name and
// process so stale files from earlier runs cannot leak in).
std::string MakeScratchDir(const std::string& name) {
  const std::string dir = "/tmp/faction_ckpt_" + name + "_" +
                          std::to_string(static_cast<long long>(::getpid()));
  ::mkdir(dir.c_str(), 0755);
  // Clear anything a previous in-process test invocation left behind.
  for (int g = 0; g < 64; ++g) {
    for (int s = 0; s < 64; ++s) {
      std::remove((dir + "/session-" + std::to_string(s) + ".gen" +
                   std::to_string(g) + ".ckpt")
                      .c_str());
    }
  }
  std::remove((dir + "/manifest").c_str());
  return dir;
}

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

// ---------------------------------------------------------------------------
// Codec round trips.

class CheckpointCodecTest : public testing::TestWithParam<bool> {};

// Capture -> encode -> decode -> encode must be byte-identical: the text
// format loses nothing the codec captured (hexfloat doubles round-trip
// bit-for-bit, including -inf log-weights of zero-mass cells).
TEST_P(CheckpointCodecTest, EncodeDecodeEncodeIsByteIdentical) {
  const StreamingFactionConfig config =
      GetParam() ? WindowedConfig(11) : SmallConfig(11);
  StreamingFaction faction(config);
  const std::vector<Example> stream =
      MakeStream(100, config.model.input_dim, 2025);
  RunStream(&faction, stream, 0, 100, nullptr);

  SessionState state;
  CaptureSessionState(faction, &state);
  state.stream_id = 7;
  state.generation = 3;
  state.steps = 100;

  std::string first;
  EncodeSessionState(state, &first);
  ASSERT_FALSE(first.empty());

  std::istringstream is(first);
  SessionState decoded;
  const Status decode = DecodeSessionState(is, "roundtrip", &decoded);
  ASSERT_TRUE(decode.ok()) << decode.ToString();
  EXPECT_EQ(7u, decoded.stream_id);
  EXPECT_EQ(3u, decoded.generation);
  EXPECT_EQ(100u, decoded.steps);
  EXPECT_EQ(state.pool_size, decoded.pool_size);
  EXPECT_EQ(state.ring_size, decoded.ring_size);
  EXPECT_EQ(state.density.has_value, decoded.density.has_value);

  std::string second;
  EncodeSessionState(decoded, &second);
  EXPECT_EQ(first, second);
}

// The core guarantee: a learner restored from a checkpoint produces
// bitwise-identical future decisions and parameters to the uninterrupted
// learner.
TEST_P(CheckpointCodecTest, KillThenRestoreIsBitwiseIdentical) {
  const StreamingFactionConfig config =
      GetParam() ? WindowedConfig(21) : SmallConfig(21);
  const std::vector<Example> stream =
      MakeStream(140, config.model.input_dim, 404);

  StreamingFaction uninterrupted(config);
  std::vector<std::uint8_t> reference;
  RunStream(&uninterrupted, stream, 0, 140, &reference);

  StreamingFaction killed(config);
  std::vector<std::uint8_t> before;
  RunStream(&killed, stream, 0, 70, &before);

  // "Kill": serialize, forget the learner, decode, restore into a fresh
  // one built from the checkpointed config.
  SessionState state;
  CaptureSessionState(killed, &state);
  std::string encoded;
  EncodeSessionState(state, &encoded);
  std::istringstream is(encoded);
  SessionState decoded;
  ASSERT_TRUE(DecodeSessionState(is, "kill", &decoded).ok());

  StreamingFaction restored(decoded.config);
  const Status restore = RestoreSessionState(decoded, &restored);
  ASSERT_TRUE(restore.ok()) << restore.ToString();

  std::vector<std::uint8_t> after;
  RunStream(&restored, stream, 70, 140, &after);
  std::vector<std::uint8_t> tail(reference.begin() + 70, reference.end());
  EXPECT_EQ(tail, after);
  EXPECT_EQ(ParamBits(uninterrupted), ParamBits(restored));
  EXPECT_EQ(uninterrupted.queries_made(), restored.queries_made());
  EXPECT_EQ(uninterrupted.samples_seen(), restored.samples_seen());
  EXPECT_EQ(uninterrupted.pool_size(), restored.pool_size());
}

INSTANTIATE_TEST_SUITE_P(GrowOnlyAndWindowed, CheckpointCodecTest,
                         testing::Values(false, true));

TEST(CheckpointCodec, RestoreRejectsConfigMismatch) {
  StreamingFaction faction(SmallConfig(5));
  RunStream(&faction, MakeStream(40, 6, 9), 0, 40, nullptr);
  SessionState state;
  CaptureSessionState(faction, &state);

  StreamingFactionConfig other = SmallConfig(5);
  other.model.hidden_dims = {4};
  StreamingFaction wrong(other);
  EXPECT_FALSE(RestoreSessionState(state, &wrong).ok());
}

TEST(CheckpointCodec, DecodeErrorsNameSourceAndByteOffset) {
  StreamingFaction faction(SmallConfig(3));
  RunStream(&faction, MakeStream(30, 6, 5), 0, 30, nullptr);
  SessionState state;
  CaptureSessionState(faction, &state);
  std::string encoded;
  EncodeSessionState(state, &encoded);

  // Truncate mid-payload: the decode error must name the logical source
  // and the byte offset where parsing stopped.
  std::istringstream is(encoded.substr(0, encoded.size() / 2));
  SessionState out;
  const Status status = DecodeSessionState(is, "half.ckpt", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string::npos, status.message().find("half.ckpt"))
      << status.ToString();
  EXPECT_NE(std::string::npos, status.message().find("@byte"))
      << status.ToString();

  const Status missing =
      DecodeSessionStateFromFile("/tmp/no_such_faction_ckpt.ckpt", &out);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(std::string::npos,
            missing.message().find("/tmp/no_such_faction_ckpt.ckpt"))
      << missing.ToString();

  // A directory opens but has no file length: it decodes as empty.
  const std::string dir = MakeScratchDir("dir_as_ckpt");
  const Status directory = DecodeSessionStateFromFile(dir, &out);
  ASSERT_FALSE(directory.ok());
  EXPECT_NE(std::string::npos, directory.message().find(dir + " @byte 0"))
      << directory.ToString();
}

// ---------------------------------------------------------------------------
// Serve-layer checkpointing: background snapshots, manifest, warm-start.

TEST(CheckpointManager, SnapshotRotationAndGenerationResume) {
  const std::string dir = MakeScratchDir("rotate");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 10;
  ckpt.keep_generations = 2;

  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;  // inline: deterministic snapshot timing
  runtime_options.record_latency = false;
  const std::vector<Example> stream = MakeStream(60, 6, 77);
  {
    ServeRuntime runtime(runtime_options);
    runtime.EnableCheckpoints(ckpt);
    ServeSessionOptions options;
    options.stream_id = 4;
    options.faction = SmallConfig(31);
    options.mailbox_capacity = 64;
    ServeSession* session = runtime.CreateSession(options);
    for (std::size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(runtime.Offer(session, stream[i]));
    }
    runtime.Drain();
    runtime.checkpoints()->Flush();
    EXPECT_EQ(0u, runtime.checkpoints()->failures());
  }

  // Snapshots fired at steps 10..50 -> generations 1..5; only the last
  // keep_generations files survive rotation.
  EXPECT_FALSE(FileExists(dir + "/session-4.gen3.ckpt"));
  EXPECT_TRUE(FileExists(dir + "/session-4.gen4.ckpt"));
  EXPECT_TRUE(FileExists(dir + "/session-4.gen5.ckpt"));

  Result<std::vector<CheckpointManifestEntry>> manifest =
      CheckpointManager::ReadManifest(dir + "/manifest");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(1u, manifest.value().size());
  EXPECT_EQ(4u, manifest.value()[0].stream_id);
  EXPECT_EQ(5u, manifest.value()[0].generation);
  EXPECT_EQ(50u, manifest.value()[0].steps);
  EXPECT_EQ("session-4.gen5.ckpt", manifest.value()[0].filename);

  // Warm-start resumes the generation sequence: the next snapshot commits
  // generation 6, not 1 (which would silently shadow rotation history).
  ServeRuntime runtime2(runtime_options);
  runtime2.EnableCheckpoints(ckpt);
  Result<WarmStartReport> report = runtime2.WarmStart(dir + "/manifest");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(1u, report.value().sessions);
  EXPECT_EQ(5u, report.value().max_generation);
  EXPECT_EQ(50u, report.value().total_steps);

  ServeSession* restored = runtime2.registry().Find(4);
  ASSERT_NE(nullptr, restored);
  EXPECT_EQ(50u, restored->steps());
  for (std::size_t i = 50; i < 60; ++i) {
    ASSERT_TRUE(runtime2.Offer(restored, stream[i]));
  }
  runtime2.Drain();
  runtime2.checkpoints()->Flush();
  EXPECT_TRUE(FileExists(dir + "/session-4.gen6.ckpt"));
  manifest = CheckpointManager::ReadManifest(dir + "/manifest");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(6u, manifest.value()[0].generation);
  EXPECT_EQ(60u, manifest.value()[0].steps);
}

// A session restored through the full serve path (checkpoint files +
// manifest + WarmStart) must continue with bitwise-identical decisions to
// the uninterrupted reference — at every worker count.
TEST(ServeWarmStart, KillThenRestoreDecisionParityAcrossWorkerCounts) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kHalf = 60;
  constexpr std::size_t kTotal = 120;
  const std::string dir = MakeScratchDir("warmstart");

  // Reference: uninterrupted standalone learners.
  std::vector<std::vector<std::uint8_t>> reference(kSessions);
  std::vector<std::vector<std::uint64_t>> reference_bits(kSessions);
  std::vector<std::vector<Example>> streams(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const StreamingFactionConfig config = SmallConfig(300 + s);
    streams[s] = MakeStream(kTotal, config.model.input_dim, 900 + s);
    StreamingFaction faction(config);
    RunStream(&faction, streams[s], 0, kTotal, &reference[s]);
    reference_bits[s] = ParamBits(faction);
  }

  // Phase 1: serve the first half with checkpointing on, snapshot every
  // session at exactly kHalf steps, then "kill" the runtime.
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 25;
  {
    ServeRuntimeOptions runtime_options;
    runtime_options.workers = 4;
    runtime_options.max_sessions = kSessions;
    runtime_options.record_latency = false;
    ServeRuntime runtime(runtime_options);
    runtime.EnableCheckpoints(ckpt);
    std::vector<ServeSession*> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ServeSessionOptions options;
      options.stream_id = s;
      options.faction = SmallConfig(300 + s);
      options.mailbox_capacity = kHalf;
      sessions.push_back(runtime.CreateSession(options));
    }
    for (std::size_t i = 0; i < kHalf; ++i) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(runtime.Offer(sessions[s], streams[s][i]));
      }
    }
    runtime.Drain();
    // Interval snapshots fired mid-run at worker-timing-dependent steps;
    // pin the final generation at exactly kHalf steps (the test thread is
    // the sole holder once Drain returned).
    for (ServeSession* session : sessions) {
      ASSERT_EQ(kHalf, session->steps());
      EXPECT_TRUE(runtime.checkpoints()->SnapshotNow(session));
    }
    runtime.checkpoints()->Flush();
    EXPECT_EQ(0u, runtime.checkpoints()->failures());
  }

  // Phase 2: warm-start a fresh runtime from the manifest and serve the
  // second half — once inline, once on 4 workers.
  for (const int workers : {0, 4}) {
    ServeRuntimeOptions runtime_options;
    runtime_options.workers = workers;
    runtime_options.max_sessions = kSessions;
    runtime_options.record_latency = false;
    ServeRuntime runtime(runtime_options);
    WarmStartOptions warm;
    warm.mailbox_capacity = kTotal;
    warm.decision_log_capacity = kTotal;
    Result<WarmStartReport> report =
        runtime.WarmStart(dir + "/manifest", warm);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(kSessions, report.value().sessions);
    EXPECT_EQ(kSessions * kHalf, report.value().total_steps);

    for (std::size_t i = kHalf; i < kTotal; ++i) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        ServeSession* session = runtime.registry().Find(s);
        ASSERT_NE(nullptr, session);
        ASSERT_TRUE(runtime.Offer(session, streams[s][i]));
      }
    }
    runtime.Drain();

    for (std::size_t s = 0; s < kSessions; ++s) {
      ServeSession* session = runtime.registry().Find(s);
      ASSERT_NE(nullptr, session);
      EXPECT_EQ(kTotal, session->steps()) << "workers " << workers;
      const std::vector<std::uint8_t> tail(reference[s].begin() + kHalf,
                                           reference[s].end());
      EXPECT_EQ(tail, session->decisions())
          << "session " << s << " workers " << workers;
      EXPECT_EQ(reference_bits[s], ParamBits(session->faction()))
          << "session " << s << " workers " << workers;
    }
  }
}

// Both buffers in serializer hands -> the snapshot is skipped, never
// stalled. (Statuses are forced by hand: the deterministic stand-in for a
// serializer backlog.)
TEST(CheckpointManager, SkipsWhenBothBuffersBusy) {
  const std::string dir = MakeScratchDir("busy");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 1;
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);
  runtime.EnableCheckpoints(ckpt);
  ServeSessionOptions options;
  options.stream_id = 1;
  options.faction = SmallConfig(2);
  ServeSession* session = runtime.CreateSession(options);
  const std::vector<Example> stream = MakeStream(5, 6, 3);
  for (const Example& ex : stream) ASSERT_TRUE(runtime.Offer(session, ex));
  runtime.Drain();

  CheckpointSlot* slot = session->checkpoint_slot();
  ASSERT_NE(nullptr, slot);
  const std::uint64_t generation_before = slot->next_generation;
  slot->buffers[0].status.store(CheckpointBuffer::kQueued);
  slot->buffers[1].status.store(CheckpointBuffer::kQueued);
  EXPECT_FALSE(runtime.checkpoints()->SnapshotNow(session));
  EXPECT_EQ(generation_before, slot->next_generation);
  slot->buffers[0].status.store(CheckpointBuffer::kFree);
  slot->buffers[1].status.store(CheckpointBuffer::kFree);
  EXPECT_TRUE(runtime.checkpoints()->SnapshotNow(session));
  runtime.checkpoints()->Flush();
}

// Registry growth: session addresses and ids must stay stable while the
// registry rehashes (node-stable storage — a drain job holds raw session
// pointers while other sessions register).
TEST(SessionRegistryChurn, PointersStableAsRegistryGrows) {
  SessionRegistry registry;
  std::vector<ServeSession*> survivors;
  for (std::uint64_t id = 0; id < 32; ++id) {
    ServeSessionOptions options;
    options.stream_id = id;
    options.faction.model.input_dim = 4;
    options.faction.model.hidden_dims = {4};
    survivors.push_back(registry.Create(options));
  }
  // Each cycle registers a fresh cohort under new ids; the original
  // sessions must stay reachable at the same addresses throughout.
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      ServeSessionOptions options;
      options.stream_id = 1000 + 100 * cycle + i;
      options.faction.model.input_dim = 4;
      options.faction.model.hidden_dims = {4};
      ASSERT_NE(nullptr, registry.Create(options));
    }
    for (std::uint64_t id = 0; id < 32; ++id) {
      ASSERT_EQ(survivors[id], registry.Find(id)) << "cycle " << cycle;
      EXPECT_EQ(id, registry.Find(id)->stream_id());
    }
  }
  EXPECT_EQ(32u + 4u * 16u, registry.size());
}

// ---------------------------------------------------------------------------
// Pinned v1 bytes.

// A session's "faction-session v1" bytes are a format, not an
// implementation detail: after a fixed stream they must not change by one
// byte. The fingerprints are SubSeed's FNV-1a over the encoded text. They
// were re-recorded when the softmax family and the loss moved from libm's
// exp/log to the SIMD layer's vexp/vlog: only floating-point fields
// changed, and the same tree with only those calls on libm reproduces the
// previous pins (18353 bytes 0x012e8a5181f52dcb, 24058 bytes
// 0x20bb33edcb76aad1), taken from the encoder that predates the shared
// encode/decode Visit.
TEST(SessionCodecFingerprint, V1BytesArePinned) {
  struct Pin {
    bool windowed;
    std::size_t size;
    std::uint64_t fingerprint;
  };
  for (const Pin& pin : {Pin{false, 18348u, 0xac036e894fdfbaebull},
                         Pin{true, 24053u, 0xb5aa94f9c4197dd1ull}}) {
    const StreamingFactionConfig config =
        pin.windowed ? WindowedConfig(11) : SmallConfig(11);
    StreamingFaction faction(config);
    RunStream(&faction, MakeStream(100, config.model.input_dim, 2025), 0, 100,
              nullptr);
    SessionState state;
    CaptureSessionState(faction, &state);
    state.stream_id = 7;
    state.generation = 3;
    state.steps = 100;
    std::string bytes;
    EncodeSessionState(state, &bytes);
    EXPECT_EQ(pin.size, bytes.size()) << "windowed " << pin.windowed;
    EXPECT_EQ(pin.fingerprint, SubSeed(0, bytes)) << "windowed "
                                                  << pin.windowed;
  }
}

// ---------------------------------------------------------------------------
// Inputs that must fail with a Status, never abort.

SessionState CapturedState(const StreamingFactionConfig& config,
                           std::size_t arrivals) {
  StreamingFaction faction(config);
  RunStream(&faction, MakeStream(arrivals, config.model.input_dim, 2025), 0,
            arrivals, nullptr);
  SessionState state;
  CaptureSessionState(faction, &state);
  return state;
}

std::string Encoded(const SessionState& state) {
  std::string bytes;
  EXPECT_TRUE(EncodeSessionState(state, &bytes).ok());
  return bytes;
}

// Replaces token `index` (0 = the tag itself) of the line opened by `tag`.
std::string WithToken(const std::string& text, const std::string& tag,
                      std::size_t index, const std::string& value) {
  std::size_t begin = text.find("\n" + tag + " ");
  EXPECT_NE(std::string::npos, begin) << tag;
  begin += 1;
  for (std::size_t i = 0; i < index; ++i) begin = text.find(' ', begin) + 1;
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.substr(0, begin) + value + text.substr(end);
}

// Decode, then build the learner from the decoded config and restore: the
// whole warm-start path of one checkpoint.
Status DecodeAndRestore(const std::string& text) {
  std::istringstream is(text);
  SessionState state;
  FACTION_RETURN_IF_ERROR(DecodeSessionState(is, "probe", &state));
  StreamingFaction faction(state.config);
  return RestoreSessionState(state, &faction);
}

TEST(SessionCodecRefusal, EncodeRefusesNonFiniteValues) {
  const SessionState good = CapturedState(SmallConfig(3), 40);
  for (const double poison : {std::nan(""),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    SessionState state = good;
    state.params[0].data()[0] = poison;
    std::string bytes = "stale";
    const Status encoded = EncodeSessionState(state, &bytes);
    EXPECT_EQ(StatusCode::kNumericalError, encoded.code())
        << encoded.ToString();
    EXPECT_NE(std::string::npos, encoded.message().find("non-finite"));
    EXPECT_TRUE(bytes.empty());
  }
  // -inf is legal exactly where the format carries it: the log-weight of
  // a zero-mass mixture cell.
  SessionState state = good;
  ASSERT_TRUE(state.density.has_value);
  state.density.cells[0].log_weight = -std::numeric_limits<double>::infinity();
  std::string bytes;
  EXPECT_TRUE(EncodeSessionState(state, &bytes).ok());
  EXPECT_TRUE(DecodeAndRestore(bytes).ok());
}

// Encode refuses what Decode rejects, so a state Capture could never
// produce cannot reach a checkpoint file either.
TEST(SessionCodecRefusal, EncodeRefusesWhatDecodeRejects) {
  const SessionState good = CapturedState(WindowedConfig(3), 80);
  std::string bytes;
  SessionState state = good;
  state.config.density_decay = 2.0;
  EXPECT_FALSE(EncodeSessionState(state, &bytes).ok());
  state = good;
  state.params.pop_back();
  EXPECT_FALSE(EncodeSessionState(state, &bytes).ok());
  state = good;
  state.pool_labels[0] = 7;
  EXPECT_FALSE(EncodeSessionState(state, &bytes).ok());
  state = good;
  ASSERT_GT(state.ring_size, 0u);
  state.ring_weight[0] = 0.0;
  EXPECT_FALSE(EncodeSessionState(state, &bytes).ok());
  state = good;
  state.density.domain.groups = {0, 1};
  EXPECT_FALSE(EncodeSessionState(state, &bytes).ok());
}

// Each of these decoded as OK and then aborted the process while the
// learner was built or restored.
TEST(SessionCodecRefusal, OversizedPoolIsRejected) {
  const std::string good = Encoded(CapturedState(SmallConfig(3), 40));
  ASSERT_TRUE(DecodeAndRestore(good).ok());
  EXPECT_FALSE(
      DecodeAndRestore(WithToken(good, "pool", 1, "4611686018427387904"))
          .ok());
}

TEST(SessionCodecRefusal, InputDimNotBackedByTensorsIsRejected) {
  // A fresh session: empty pool, so the model line and the pool header
  // can claim 2^40 inputs consistently.
  const std::string good = Encoded(CapturedState(SmallConfig(3), 0));
  ASSERT_TRUE(DecodeAndRestore(good).ok());
  const std::string wide =
      WithToken(WithToken(good, "model", 1, "1099511627776"), "pool", 2,
                "1099511627776");
  EXPECT_FALSE(DecodeAndRestore(wide).ok());
  // A width small enough to pass every size bound still has to match the
  // tensors the file carries.
  const std::string seven =
      WithToken(WithToken(good, "model", 1, "7"), "pool", 2, "7");
  const Status status = DecodeAndRestore(seven);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string::npos, status.message().find("architecture"))
      << status.ToString();
}

TEST(SessionCodecRefusal, DensityDecayOutsideUnitIntervalIsRejected) {
  const std::string good = Encoded(CapturedState(WindowedConfig(3), 40));
  ASSERT_TRUE(DecodeAndRestore(good).ok());
  for (const char* decay : {"2", "0", "-0x1p-1"}) {
    EXPECT_FALSE(DecodeAndRestore(WithToken(good, "config", 8, decay)).ok())
        << decay;
  }
}

// Doubles decode only in the writer's own hexfloat spelling. Each token
// below names a value (or spells one the writer spells otherwise) and
// must fail with a Status naming the field and the byte offset.
TEST(SessionCodecRefusal, NonCanonicalDoubleTokensAreRejected) {
  const std::string good = Encoded(CapturedState(WindowedConfig(3), 40));
  for (const char* token :
       {"0X1P+0", "0x1.8Ap+1", "0x2p+0", "0x1.00000000000000p+0", "+0x1p+0",
        "0x1p+1024", "0x0.8p-1021", "1.5", "-inf"}) {
    const Status status = DecodeAndRestore(WithToken(good, "config", 1, token));
    ASSERT_FALSE(status.ok()) << token;
    EXPECT_NE(std::string::npos, status.message().find("lambda"))
        << status.ToString();
    EXPECT_NE(std::string::npos, status.message().find("@byte"))
        << status.ToString();
  }
  // The v1 bytes themselves (the encoder's output is pinned by
  // SessionCodecFingerprint) decode, restore, and re-encode to the same
  // bytes, through the decoded state and through the restored learner.
  std::istringstream is(good);
  SessionState state;
  ASSERT_TRUE(DecodeSessionState(is, "good", &state).ok());
  EXPECT_EQ(good, Encoded(state));
  StreamingFaction faction(state.config);
  ASSERT_TRUE(RestoreSessionState(state, &faction).ok());
  SessionState recaptured;
  CaptureSessionState(faction, &recaptured);
  EXPECT_EQ(good, Encoded(recaptured));
}

// The manager never commits a state it cannot read back: the manifest
// stays on the previous generation, which WarmStart still restores.
TEST(CheckpointEncodeFailure, ManifestStaysOnLastReadableGeneration) {
  const std::string dir = MakeScratchDir("nonfinite");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 1000;  // snapshots only on demand
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;
  runtime_options.record_latency = false;
  std::vector<Example> stream = MakeStream(8, 6, 8);
  // Queried during warm start (12 labels), so the NaN lands in the pool
  // before any refit could train on it.
  stream[6].x[2] = std::nan("");
  {
    ServeRuntime runtime(runtime_options);
    runtime.EnableCheckpoints(ckpt);
    ServeSessionOptions options;
    options.stream_id = 9;
    options.faction = SmallConfig(17);
    options.mailbox_capacity = 16;
    ServeSession* session = runtime.CreateSession(options);
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(runtime.Offer(session, stream[i]));
    }
    runtime.Drain();
    ASSERT_TRUE(runtime.checkpoints()->SnapshotNow(session));
    runtime.checkpoints()->Flush();
    ASSERT_EQ(0u, runtime.checkpoints()->failures());
    for (std::size_t i = 6; i < 8; ++i) {
      ASSERT_TRUE(runtime.Offer(session, stream[i]));
    }
    runtime.Drain();
    SessionState poisoned;
    CaptureSessionState(session->faction(), &poisoned);
    std::string bytes;
    ASSERT_EQ(StatusCode::kNumericalError,
              EncodeSessionState(poisoned, &bytes).code());
    ASSERT_TRUE(runtime.checkpoints()->SnapshotNow(session));
    runtime.checkpoints()->Flush();
    EXPECT_EQ(1u, runtime.checkpoints()->failures());
  }
  EXPECT_FALSE(FileExists(dir + "/session-9.gen2.ckpt"));
  EXPECT_FALSE(FileExists(dir + "/session-9.gen2.ckpt.tmp"));
  Result<std::vector<CheckpointManifestEntry>> manifest =
      CheckpointManager::ReadManifest(dir + "/manifest");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(1u, manifest.value().size());
  EXPECT_EQ(1u, manifest.value()[0].generation);
  EXPECT_EQ(6u, manifest.value()[0].steps);

  ServeRuntime restored(runtime_options);
  Result<WarmStartReport> report = restored.WarmStart(dir + "/manifest");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(1u, report.value().sessions);
  EXPECT_EQ(6u, report.value().total_steps);
}

// ---------------------------------------------------------------------------
// Manifest reader and WarmStart hardening.

// Writes two real session checkpoints (ids 1 and 2) plus their manifest.
std::string WriteTwoSessionCheckpoint(const std::string& name) {
  const std::string dir = MakeScratchDir(name);
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 1000;
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);
  runtime.EnableCheckpoints(ckpt);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    ServeSessionOptions options;
    options.stream_id = id;
    options.faction = SmallConfig(40 + id);
    options.mailbox_capacity = 32;
    ServeSession* session = runtime.CreateSession(options);
    for (const Example& ex : MakeStream(24, 6, 70 + id)) {
      EXPECT_TRUE(runtime.Offer(session, ex));
    }
    runtime.Drain();
    EXPECT_TRUE(runtime.checkpoints()->SnapshotNow(session));
  }
  runtime.checkpoints()->Flush();
  EXPECT_EQ(0u, runtime.checkpoints()->failures());
  return dir;
}

void WriteManifest(const std::string& dir, const std::string& text) {
  std::ofstream os(dir + "/manifest", std::ios::trunc);
  os << text;
}

Status WarmStartStatus(const std::string& dir, std::size_t max_sessions) {
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;
  runtime_options.max_sessions = max_sessions;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);
  return runtime.WarmStart(dir + "/manifest").status();
}

// WarmStart decodes the checkpoints on the job system, yet it stops at the
// first bad entry in manifest order with that entry's Status, having
// served exactly the entries before it — at any worker count.
TEST(ServeWarmStart, FirstFailureInManifestOrderWinsAtAnyWorkerCount) {
  constexpr std::uint64_t kEntries = 7;
  const std::string dir = MakeScratchDir("warm_order");
  {
    CheckpointOptions ckpt;
    ckpt.dir = dir;
    ckpt.interval_steps = 1000;
    ServeRuntimeOptions runtime_options;
    runtime_options.workers = 0;
    runtime_options.record_latency = false;
    ServeRuntime runtime(runtime_options);
    runtime.EnableCheckpoints(ckpt);
    for (std::uint64_t id = 0; id < kEntries; ++id) {
      ServeSessionOptions options;
      options.stream_id = id;
      options.faction = SmallConfig(60 + id);
      options.mailbox_capacity = 32;
      ServeSession* session = runtime.CreateSession(options);
      for (const Example& ex : MakeStream(24, 6, 80 + id)) {
        ASSERT_TRUE(runtime.Offer(session, ex));
      }
      runtime.Drain();
      ASSERT_TRUE(runtime.checkpoints()->SnapshotNow(session));
    }
    runtime.checkpoints()->Flush();
    ASSERT_EQ(0u, runtime.checkpoints()->failures());
  }
  // Entry 3 loses its second half; entry 5 carries a decimal double.
  for (const std::uint64_t id : {3u, 5u}) {
    const std::string path =
        dir + "/session-" + std::to_string(id) + ".gen1.ckpt";
    std::string text;
    {
      std::ifstream is(path);
      std::ostringstream os;
      os << is.rdbuf();
      text = os.str();
    }
    text = id == 3 ? text.substr(0, text.size() / 2)
                   : WithToken(text, "config", 1, "1.5");
    std::ofstream os(path, std::ios::trunc);
    os << text;
  }
  std::string first_status;
  for (const int workers : {0, 4}) {
    ServeRuntimeOptions runtime_options;
    runtime_options.workers = workers;
    runtime_options.max_sessions = kEntries;
    runtime_options.record_latency = false;
    ServeRuntime runtime(runtime_options);
    const Status status = runtime.WarmStart(dir + "/manifest").status();
    ASSERT_FALSE(status.ok()) << "workers " << workers;
    EXPECT_NE(std::string::npos, status.message().find("session-3.gen1.ckpt"))
        << status.ToString();
    if (first_status.empty()) first_status = status.ToString();
    EXPECT_EQ(first_status, status.ToString()) << "workers " << workers;
    EXPECT_EQ(3u, runtime.registry().size()) << "workers " << workers;
    for (std::uint64_t id = 0; id < kEntries; ++id) {
      EXPECT_EQ(id < 3, runtime.registry().Find(id) != nullptr)
          << "session " << id << " workers " << workers;
    }
  }
}

TEST(ManifestHardening, HugeSessionCountIsRejected) {
  const std::string dir = MakeScratchDir("manifest_count");
  WriteManifest(dir, "faction-manifest v1\nsessions 1000000000000000000\n"
                     "1 1 24 session-1.gen1.ckpt\n");
  EXPECT_FALSE(CheckpointManager::ReadManifest(dir + "/manifest").ok());
  EXPECT_FALSE(WarmStartStatus(dir, 8).ok());
}

TEST(ManifestHardening, MoreSessionsThanTheRuntimeHoldsIsAStatus) {
  const std::string dir = WriteTwoSessionCheckpoint("manifest_full");
  EXPECT_TRUE(WarmStartStatus(dir, 2).ok());
  const Status status = WarmStartStatus(dir, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, status.code())
      << status.ToString();
}

TEST(ManifestHardening, DuplicateStreamIdIsAStatus) {
  const std::string dir = WriteTwoSessionCheckpoint("manifest_dup");
  WriteManifest(dir, "faction-manifest v1\nsessions 2\n"
                     "1 1 24 session-1.gen1.ckpt\n"
                     "1 1 24 session-1.gen1.ckpt\n");
  EXPECT_FALSE(WarmStartStatus(dir, 8).ok());
}

TEST(ManifestHardening, FilenameMustBeTheEntrysOwnCheckpoint) {
  const std::string dir = WriteTwoSessionCheckpoint("manifest_name");
  for (const char* entry : {"2 1 24 session-1.gen1.ckpt",
                            "1 2 24 session-1.gen1.ckpt",
                            "1 1 24 ../session-1.gen1.ckpt",
                            "1 1 24 /tmp/session-1.gen1.ckpt",
                            "1 1 24 session-1.gen1.ckpt.tmp",
                            "1 1 24 session-01.gen1.ckpt"}) {
    WriteManifest(dir, std::string("faction-manifest v1\nsessions 1\n") +
                           entry + "\n");
    EXPECT_FALSE(CheckpointManager::ReadManifest(dir + "/manifest").ok())
        << entry;
    EXPECT_FALSE(WarmStartStatus(dir, 8).ok()) << entry;
  }
  WriteManifest(dir, "faction-manifest v1\nsessions 1\n"
                     "1 1 24 session-1.gen1.ckpt\n");
  EXPECT_TRUE(WarmStartStatus(dir, 8).ok());
}

}  // namespace
}  // namespace faction
