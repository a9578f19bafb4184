// Deterministic mutation fuzz of everything a warm start reads from disk
// (DESIGN.md §17): the "faction-session v1" decoder, session restore, the
// manifest reader and ServeRuntime::WarmStart; and of the scenario DSL
// (DESIGN.md §16). The seed corpus is real grow-only and windowed
// checkpoints, a real manifest, and the preset scenario specs the CI
// smoke drives end to end. Mutations are bit flips, truncations, splices,
// and (for checkpoints and manifests) numeric tokens replaced by edge
// values (0, -1, 2^63, 2^64-1, nan, inf); every draw comes from a stream
// seeded by SubSeed, so each run replays the same inputs. Every input must
// either fail with a Status or restore and serve 20 arrivals (a scenario:
// build a stream). An abort or a sanitizer report fails the test, and so
// does a decoded state that does not re-encode: Encode refuses exactly
// what Decode rejects.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "data/scenario.h"
#include "data/streams.h"
#include "serve/checkpoint.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "serve/state_codec.h"

namespace faction {
namespace {

constexpr int kMutationsPerKind = 300;
constexpr std::size_t kArrivals = 20;

const char* const kEdgeTokens[] = {"0",   "-1",
                                   "9223372036854775808",
                                   "18446744073709551615",
                                   "nan", "inf"};

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

StreamingFactionConfig WindowedConfig(std::uint64_t seed) {
  StreamingFactionConfig config = SmallConfig(seed);
  config.density_window = 24;
  config.density_decay = 0.99;
  return config;
}

std::vector<Example> MakeStream(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> stream(n);
  for (Example& ex : stream) {
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
    ex.x.resize(dim);
    for (double& v : ex.x) v = rng.Gaussian(ex.label == 1 ? 1.5 : -1.5, 1.0);
  }
  return stream;
}

void Serve(StreamingFaction* faction, std::size_t dim, std::uint64_t seed) {
  for (const Example& ex : MakeStream(kArrivals, dim, seed)) {
    const Result<bool> query = faction->ShouldQuery(ex);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    // A refit that fails (a degenerate pool, a diverged model) reports a
    // Status; the learner keeps serving.
    if (query.value()) (void)faction->ProvideLabel(ex);
  }
}

std::string EncodedSession(const StreamingFactionConfig& config,
                           std::size_t arrivals) {
  StreamingFaction faction(config);
  for (const Example& ex : MakeStream(arrivals, 6, 2025)) {
    if (faction.ShouldQuery(ex).value()) {
      EXPECT_TRUE(faction.ProvideLabel(ex).ok());
    }
  }
  SessionState state;
  CaptureSessionState(faction, &state);
  state.stream_id = 3;
  state.generation = 2;
  state.steps = arrivals;
  std::string bytes;
  EXPECT_TRUE(EncodeSessionState(state, &bytes).ok());
  return bytes;
}

/// Offsets of the tokens strtod reads whole (integers, hexfloats,
/// infinities), grouped by line.
std::vector<std::vector<std::size_t>> NumericTokens(const std::string& text) {
  std::vector<std::vector<std::size_t>> lines(1);
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '\n') {
      if (!lines.back().empty()) lines.emplace_back();
      ++i;
      continue;
    }
    if (text[i] == ' ') {
      ++i;
      continue;
    }
    const std::size_t end = text.find_first_of(" \n", i);
    const std::string token =
        text.substr(i, end == std::string::npos ? std::string::npos : end - i);
    char* parsed = nullptr;
    std::strtod(token.c_str(), &parsed);
    if (parsed == token.c_str() + token.size()) lines.back().push_back(i);
    i = end == std::string::npos ? text.size() : end;
  }
  if (lines.back().empty()) lines.pop_back();
  return lines;
}

/// Applies one mutation of `kind` to `seed`; `donors` feed the splices.
std::string Mutate(const std::string& seed,
                   const std::vector<std::string>& donors, int kind,
                   Rng* rng) {
  std::string out = seed;
  switch (kind) {
    case 0: {  // flip one to four bits
      const std::uint64_t flips = 1 + rng->UniformInt(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        out[rng->UniformInt(out.size())] ^=
            static_cast<char>(1u << rng->UniformInt(8));
      }
      break;
    }
    case 1:  // truncate
      out.resize(rng->UniformInt(out.size()));
      break;
    case 2: {  // splice a slice of a donor in, inserted or overwriting
      const std::string& donor = donors[rng->UniformInt(donors.size())];
      const std::size_t from = rng->UniformInt(donor.size());
      const std::size_t len = std::min<std::size_t>(
          1 + rng->UniformInt(256), donor.size() - from);
      const std::size_t at = rng->UniformInt(out.size());
      if (rng->Bernoulli(0.5)) {
        out.insert(at, donor, from, len);
      } else {
        out.replace(at, len, donor, from, len);
      }
      break;
    }
    default: {  // one numeric token, on a uniformly drawn line
      const std::vector<std::vector<std::size_t>> lines = NumericTokens(out);
      const std::vector<std::size_t>& line =
          lines[rng->UniformInt(lines.size())];
      const std::size_t at = line[rng->UniformInt(line.size())];
      const std::size_t end = std::min(out.find_first_of(" \n", at),
                                       out.size());
      out.replace(at, end - at,
                  kEdgeTokens[rng->UniformInt(std::size(kEdgeTokens))]);
      break;
    }
  }
  return out;
}

struct Tally {
  int rejected = 0;
  int served = 0;
};

void CheckSession(const std::string& text, std::uint64_t seed,
                  Tally* tally) {
  std::istringstream is(text);
  SessionState state;
  if (!DecodeSessionState(is, "fuzz", &state).ok()) {
    ++tally->rejected;
    return;
  }
  // Whatever decodes must encode again, and that encoding is a fixed
  // point of decode + encode.
  std::string again;
  const Status encoded = EncodeSessionState(state, &again);
  ASSERT_TRUE(encoded.ok()) << encoded.ToString();
  std::istringstream reread(again);
  SessionState twice;
  ASSERT_TRUE(DecodeSessionState(reread, "fuzz-again", &twice).ok());
  std::string third;
  ASSERT_TRUE(EncodeSessionState(twice, &third).ok());
  ASSERT_EQ(again, third);

  StreamingFaction faction(state.config);
  if (!RestoreSessionState(state, &faction).ok()) {
    ++tally->rejected;
    return;
  }
  Serve(&faction, state.config.model.input_dim, seed);
  ++tally->served;
}

TEST(CodecFuzz, MutatedSessionCheckpointsFailWithAStatusOrServe) {
  const std::vector<std::string> corpus = {
      EncodedSession(SmallConfig(11), 60),
      EncodedSession(WindowedConfig(11), 90),
  };
  const char* const kKinds[] = {"bitflip", "truncate", "splice", "token"};
  Tally tallies[4];
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (int kind = 0; kind < 4; ++kind) {
      Tally& tally = tallies[kind];
      for (int i = 0; i < kMutationsPerKind; ++i) {
        const std::uint64_t seed =
            SubSeed(0, "codec-fuzz/session/" + std::to_string(c) + "/" +
                           kKinds[kind] + "/" + std::to_string(i));
        Rng rng(seed);
        const std::string input = Mutate(corpus[c], corpus, kind, &rng);
        SCOPED_TRACE(testing::Message()
                     << "corpus " << c << " " << kKinds[kind] << " #" << i);
        CheckSession(input, seed, &tally);
        if (HasFatalFailure()) return;
      }
    }
  }
  // Every kind finds inputs to reject; bit flips and token swaps also
  // keep some checkpoints well-formed, so the serve path is exercised.
  for (int kind = 0; kind < 4; ++kind) {
    EXPECT_GT(tallies[kind].rejected, 0) << kKinds[kind];
  }
  EXPECT_GT(tallies[0].served, 0);
  EXPECT_GT(tallies[3].served, 0);
}

// Fresh scratch directory under /tmp, unique per process.
std::string MakeScratchDir(const std::string& name) {
  const std::string dir = "/tmp/faction_fuzz_" + name + "_" +
                          std::to_string(static_cast<long long>(::getpid()));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(CodecFuzz, MutatedManifestsFailWithAStatusOrWarmStart) {
  const std::string dir = MakeScratchDir("manifest");
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;
  runtime_options.max_sessions = 4;
  runtime_options.record_latency = false;
  {
    CheckpointOptions ckpt;
    ckpt.dir = dir;
    ckpt.interval_steps = 1000;
    ServeRuntime runtime(runtime_options);
    runtime.EnableCheckpoints(ckpt);
    for (std::uint64_t id = 1; id <= 2; ++id) {
      ServeSessionOptions options;
      options.stream_id = id;
      options.faction = id == 1 ? SmallConfig(id) : WindowedConfig(id);
      options.mailbox_capacity = 64;
      ServeSession* session = runtime.CreateSession(options);
      for (const Example& ex : MakeStream(40, 6, 90 + id)) {
        ASSERT_TRUE(runtime.Offer(session, ex));
      }
      runtime.Drain();
      ASSERT_TRUE(runtime.checkpoints()->SnapshotNow(session));
    }
    runtime.checkpoints()->Flush();
    ASSERT_EQ(0u, runtime.checkpoints()->failures());
  }
  const std::string manifest_path = dir + "/manifest";
  std::string manifest;
  {
    std::ifstream is(manifest_path);
    std::ostringstream os;
    os << is.rdbuf();
    manifest = os.str();
  }
  const char* const kKinds[] = {"bitflip", "truncate", "splice", "token"};
  Tally tally;
  for (int kind = 0; kind < 4; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::uint64_t seed =
          SubSeed(0, "codec-fuzz/manifest/" + std::string(kKinds[kind]) +
                         "/" + std::to_string(i));
      Rng rng(seed);
      const std::string input = Mutate(manifest, {manifest}, kind, &rng);
      SCOPED_TRACE(testing::Message() << kKinds[kind] << " #" << i);
      {
        std::ofstream os(manifest_path, std::ios::trunc);
        os << input;
      }
      ServeRuntime runtime(runtime_options);
      WarmStartOptions warm;
      warm.mailbox_capacity = kArrivals;
      const Result<WarmStartReport> report =
          runtime.WarmStart(manifest_path, warm);
      if (!report.ok()) {
        ++tally.rejected;
        continue;
      }
      for (ServeSession* session : runtime.registry().Sessions()) {
        for (const Example& ex : MakeStream(
                 kArrivals, session->faction().model().config().input_dim,
                 seed)) {
          ASSERT_TRUE(runtime.Offer(session, ex));
        }
      }
      runtime.Drain();
      ++tally.served;
    }
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.served, 0);
  std::remove(manifest_path.c_str());
}

TEST(CodecFuzz, MutatedScenarioSpecsFailWithAStatusOrBuildAStream) {
  const std::vector<std::string> corpus = {
      "stationary",
      "rcmnist;drift=recurring:2;order=adversarial",
      "nysf;drift=gradual:2",
      "fairface;order=shuffle;label_noise=0.05",
      "celeba;label_delay=1;imbalance=0.3",
  };
  StreamScale tiny;
  tiny.samples_per_task = 4;
  const char* const kKinds[] = {"bitflip", "truncate", "splice"};
  Tally tallies[3];
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (int kind = 0; kind < 3; ++kind) {
      Tally& tally = tallies[kind];
      for (int i = 0; i < kMutationsPerKind; ++i) {
        Rng rng(SubSeed(0, "codec-fuzz/scenario/" + std::to_string(c) + "/" +
                               kKinds[kind] + "/" + std::to_string(i)));
        const std::string input = Mutate(corpus[c], corpus, kind, &rng);
        SCOPED_TRACE(testing::Message() << "spec '" << input << "'");
        const Result<ScenarioConfig> config = ParseScenario(input);
        if (!config.ok()) {
          ++tally.rejected;
          continue;
        }
        // What parses has a canonical spelling that parses to itself.
        const std::string canonical = CanonicalScenarioSpec(config.value());
        const Result<ScenarioConfig> reparsed = ParseScenario(canonical);
        ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
        ASSERT_EQ(canonical, CanonicalScenarioSpec(reparsed.value()));
        const Result<std::vector<Dataset>> stream =
            MakeScenarioStream(config.value(), tiny);
        if (!stream.ok()) {
          ++tally.rejected;
          continue;
        }
        ASSERT_FALSE(stream.value().empty());
        ++tally.served;
      }
    }
  }
  for (int kind = 0; kind < 3; ++kind) {
    EXPECT_GT(tallies[kind].rejected, 0) << kKinds[kind];
    EXPECT_GT(tallies[kind].served, 0) << kKinds[kind];
  }
}

}  // namespace
}  // namespace faction
