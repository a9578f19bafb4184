#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "common/fsio.h"
#include "common/hexfloat.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "gtest/gtest.h"

namespace faction {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad dim");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kInternal,
        StatusCode::kNumericalError, StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  FACTION_ASSIGN_OR_RETURN(int h, Half(x));
  FACTION_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  Result<int> bad = Quarter(6);  // 6/2 = 3, odd
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  for (std::uint64_t v : seen) EXPECT_LT(v, 5u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(29);
  std::vector<std::size_t> perm;
  rng.Permutation(50, &perm);
  ASSERT_EQ(perm.size(), 50u);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(RngTest, PermutationEmptyAndSingleton) {
  Rng rng(31);
  std::vector<std::size_t> perm;
  rng.Permutation(0, &perm);
  EXPECT_TRUE(perm.empty());
  rng.Permutation(1, &perm);
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0u);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(41);
  const std::vector<double> weights = {0.0, 0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Categorical(weights));
  EXPECT_GT(seen.size(), 1u);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(43);
  Rng child = parent.Fork();
  // The child stream differs from the parent's continuation.
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.NextU64() != child.NextU64()) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, RunningStatMatchesDirect) {
  RunningStat stat;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) stat.Add(x);
  EXPECT_EQ(stat.count(), xs.size());
  EXPECT_NEAR(stat.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(stat.stddev(), StdDev(xs), 1e-12);
}

TEST(StatsTest, EmptyAndSingleton) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(StdDev({5.0}), 0.0);
  RunningStat stat;
  EXPECT_EQ(stat.variance(), 0.0);
  stat.Add(2.0);
  EXPECT_EQ(stat.variance(), 0.0);
  EXPECT_EQ(stat.mean(), 2.0);
}

TEST(StatsTest, OlsSlopeRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 1.0);
  }
  EXPECT_NEAR(OlsSlope(x, y), 3.0, 1e-12);
}

TEST(StatsTest, OlsSlopeDegenerate) {
  EXPECT_EQ(OlsSlope({1.0}, {2.0}), 0.0);
  EXPECT_EQ(OlsSlope({2.0, 2.0, 2.0}, {1.0, 5.0, 9.0}), 0.0);
}

TEST(StatsTest, OlsSlopeLogLogExponent) {
  // y = c * t^0.5 should fit slope 0.5 in log-log space.
  std::vector<double> lx, ly;
  for (int t = 1; t <= 64; t *= 2) {
    lx.push_back(std::log(static_cast<double>(t)));
    ly.push_back(std::log(2.0 * std::sqrt(static_cast<double>(t))));
  }
  EXPECT_NEAR(OlsSlope(lx, ly), 0.5, 1e-9);
}

// ----------------------------------------------------------------- Table

TEST(TableTest, PrintAligned) {
  Table t({"method", "acc"});
  t.AddRow({"FACTION", "0.83"});
  t.AddRow({"Random", "0.81"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("FACTION"), std::string::npos);
  EXPECT_NE(out.find("| method"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
}

TEST(TableTest, RowPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(TableTest, CsvQuoting) {
  Table t({"name", "note"});
  t.AddRow({"x,y", "say \"hi\""});
  std::ostringstream os;
  t.PrintCsv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatCell(0.12345, 2), "0.12");
  EXPECT_EQ(FormatCell(1.0, 0), "1");
  EXPECT_EQ(FormatMeanStd(0.5, 0.25, 2), "0.50 ± 0.25");
}

// ------------------------------------------------------------------ fsio

std::string ReadAll(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc);
  os << text;
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string ScratchPath(const std::string& name) {
  return "/tmp/faction_fsio_" + name + "_" +
         std::to_string(static_cast<long long>(::getpid()));
}

// A rename alone is atomic but not durable: the commit must fsync the tmp
// file before the rename and the parent directory after it.
TEST(FsioTest, CommitFsyncsFileAndParentDirectory) {
  const std::string path = ScratchPath("sync");
  WriteAll(path + ".tmp", "first");
  const std::uint64_t before = FsyncCallsForTest();
  ASSERT_TRUE(CommitFileDurable(path + ".tmp", path).ok());
  EXPECT_GE(FsyncCallsForTest(), before + 2)
      << "a durable commit fsyncs the tmp file and the parent directory";
  EXPECT_EQ("first", ReadAll(path));
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

// FACTION_NO_FSYNC (bulk runs) skips every fsync but keeps the atomic
// tmp+rename.
TEST(FsioTest, NoFsyncEnvSkipsSyncsButStillRenames) {
  const std::string path = ScratchPath("nosync");
  WriteAll(path, "old");
  WriteAll(path + ".tmp", "new");
  ::setenv("FACTION_NO_FSYNC", "1", 1);
  const std::uint64_t before = FsyncCallsForTest();
  const Status committed = CommitFileDurable(path + ".tmp", path);
  const std::uint64_t after = FsyncCallsForTest();
  ::unsetenv("FACTION_NO_FSYNC");
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_EQ(before, after);
  EXPECT_EQ("new", ReadAll(path));
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

// A commit that fails (here the rename: a directory cannot replace a file)
// leaves the prior file byte-identical and removes its tmp.
TEST(FsioTest, FailedCommitKeepsPriorFileAndRemovesTmp) {
  const std::string path = ScratchPath("fail");
  WriteAll(path, "good");
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(0, ::mkdir(tmp.c_str(), 0755));
  const Status committed = CommitFileDurable(tmp, path);
  EXPECT_FALSE(committed.ok());
  EXPECT_EQ("good", ReadAll(path));
  EXPECT_FALSE(Exists(tmp));
  std::remove(tmp.c_str());
  std::remove(path.c_str());
}

// -------------------------------------------------------------- hexfloat

// libc is the reference here and nowhere else: FormatHexDouble must write
// printf("%a")'s bytes, and ParseHexDouble must read them back to the
// same bits, which strtod must agree with.
void ExpectHexRoundTrip(double v) {
  char expected[64];
  const int n = std::snprintf(expected, sizeof(expected), "%a", v);
  ASSERT_GT(n, 0);
  char buf[kHexDoubleMaxChars];
  const std::string_view token(buf,
                               static_cast<std::size_t>(
                                   FormatHexDouble(buf, v) - buf));
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  ASSERT_EQ(std::string_view(expected, static_cast<std::size_t>(n)), token)
      << std::hex << bits;
  if (std::isnan(v)) return;
  double parsed = 0.0;
  ASSERT_TRUE(ParseHexDouble(token, &parsed)) << token;
  ASSERT_EQ(bits, std::bit_cast<std::uint64_t>(parsed)) << token;
  ASSERT_EQ(bits, std::bit_cast<std::uint64_t>(std::strtod(expected, nullptr)))
      << token;
}

TEST(HexFloatTest, MatchesLibcOnEdgeValues) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double min_subnormal = std::numeric_limits<double>::denorm_min();
  for (const double v :
       {0.0, -0.0, min_subnormal, -min_subnormal,
        std::nextafter(DBL_MIN, 0.0), DBL_MIN, DBL_MAX, -DBL_MAX, 1.0, -3.5,
        0.1, kInf, -kInf, std::nan(""), -std::nan("")}) {
    ExpectHexRoundTrip(v);
    if (HasFatalFailure()) return;
  }
}

TEST(HexFloatTest, MatchesLibcOnRandomBitPatterns) {
  Rng rng(SubSeed(0, "hexfloat/random-bits"));
  for (int i = 0; i < 1000000; ++i) {
    ExpectHexRoundTrip(std::bit_cast<double>(rng.NextU64()));
    if (HasFatalFailure()) return;
  }
}

TEST(HexFloatTest, RejectsEveryNonCanonicalToken) {
  for (const char* token :
       {"", "-", "1.5", "0", "nan", "-nan", "+inf", "infinity", "0X1P+0",
        "0x1.8Ap+1", "0x2p+0", "0x1.00000000000000p+0", "+0x1p+0",
        "0x1p+1024", "0x1p-1023", "0x0.8p-1021", "0x0p-1022", "0x0.0p-1022",
        "0x1.0p+0", "0x1.p+0", "0x1p-0", "0x1p+01", "0x1p", "0x1p+",
        "0x1p+1 ", " 0x1p+1", "0x1.8p+1x", "--0x1p+0"}) {
    double out = 42.0;
    EXPECT_FALSE(ParseHexDouble(token, &out)) << "'" << token << "'";
    EXPECT_EQ(42.0, out) << "'" << token << "'";
  }
}

}  // namespace
}  // namespace faction
