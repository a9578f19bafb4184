// Repository benchmark program. Runs one workload and prints its metrics by
// name with their units; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with tracing off; with
// --trace 1 they are the per-layer ones of a separate traced run.
// perfbench/run.py builds this binary and passes the workload's fixed
// parameters from perfbench/workloads.json.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "perfbench.h"
#include "tensor/simd.h"

namespace perfbench {

void Report::Count(std::uint64_t n, std::uint64_t bad,
                   const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0) {
    std::cerr << "perfbench: check failed: " << what << " (" << bad << " of "
              << n << ")\n";
  }
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Same names, units and order as BENCHMARK.json; run.py checks that they
// agree. Every workload reports every metric: a per-layer metric of a
// layer the workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},    {"run_s", "s"},       {"ref_run_s", "s"},
    {"p50_ms", "ms"},    {"accuracy", "frac"}, {"ddp", "frac"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"latency.tail_ms", "ms"},
    {"core.select_s", "s"},
    {"core.select_self_s", "s"},
    {"core.select_calls", "count"},
    {"core.candidate_rows", "count"},
    {"nn.train_fwd_s", "s"},
    {"nn.train_bwd_s", "s"},
    {"nn.train_rows", "count"},
    {"nn.select_infer_s", "s"},
    {"nn.eval_infer_s", "s"},
    {"stream.self_s", "s"},
    {"nn.trainer_steps", "count"},
    {"density.fits", "count"},
    {"density.updates", "count"},
    {"tensor.gemm_calls", "count"},
    {"tensor.gemm_flops", "flop"},
    {"faction_over_random", "ratio"},
    {"trace.overhead_s", "s"},
    {"reconcile.learner_residual", "frac"},
    {"common.threads", "count"},
    {"tensor.simd_level", "level"},
    {"host.nproc", "count"},
    {"serve.offer_us_p50", "us"},
    {"serve.offer_us_p99", "us"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.wait_ms_p99", "ms"},
    {"serve.backlog_max", "count"},
    {"serve.jobs_executed", "count"},
    {"serve.jobs_stolen", "count"},
    {"serve.workers_parked", "count"},
    {"serve.arrivals_per_drain", "ratio"},
    {"serve.sat_rate", "1/s"},
    {"serve.slo_rate", "1/s"},
    {"serve.tail_ms_high", "ms"},
    {"gen.lag_ms_p99", "ms"},
    {"core.step_us_p50", "us"},
    {"core.step_us_p99", "us"},
    {"core.refit_ms_p50", "ms"},
    {"core.refit_ms_max", "ms"},
    {"core.refits", "count"},
    {"core.refit_share", "frac"},
    {"core.query_frac", "frac"},
    {"ckpt.captured", "count"},
    {"ckpt.serialized", "count"},
    {"ckpt.skipped_busy", "count"},
    {"ckpt.failures", "count"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.capture_us", "us"},
    {"ckpt.encode_ms", "ms"},
    {"ckpt.decode_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.warmstart_s", "s"},
    {"fsio.fsyncs", "count"},
    {"density.downdates", "count"},
    {"density.fallback_refactors", "count"},
    {"trace.overhead_ms_p50", "ms"},
    {"reconcile.serve_residual_ms_p50", "ms"},
    {"reconcile.serve_overrun_frac", "frac"},
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ParseSize(const std::string& text, std::size_t* out) {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = static_cast<std::size_t>(std::stoull(text));
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && std::isfinite(*out);
}

bool ParseRates(const std::string& text, std::vector<double>* out) {
  out->clear();
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    double rate = 0.0;
    if (!ParseDouble(item, &rate) || rate <= 0.0) return false;
    if (!out->empty() && rate <= out->back()) return false;
    out->push_back(rate);
  }
  return !out->empty();
}

bool ParseArgs(int argc, char** argv, Options* o) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    std::size_t n = 0;
    bool ok = true;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--scratch") {
      o->scratch = value;
    } else if (flag == "--seed") {
      ok = ParseSize(value, &n);
      o->seed = n;
    } else if (flag == "--seconds") {
      ok = ParseDouble(value, &o->seconds) && o->seconds > 0.0;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      o->trace = value == "1";
    } else if (flag == "--samples-per-task") {
      ok = ParseSize(value, &o->samples_per_task) && o->samples_per_task > 0;
    } else if (flag == "--arrivals") {
      ok = ParseSize(value, &o->arrivals) && o->arrivals > 0;
    } else if (flag == "--continue-arrivals") {
      ok = ParseSize(value, &o->continue_arrivals);
    } else if (flag == "--rates") {
      ok = ParseRates(value, &o->rates);
    } else if (flag == "--limit-ms") {
      ok = ParseDouble(value, &o->limit_ms) && o->limit_ms > 0.0;
    } else if (flag == "--checkpoint-interval") {
      ok = ParseSize(value, &o->checkpoint_interval);
    } else if (flag == "--density-window") {
      ok = ParseSize(value, &o->density_window);
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "perfbench: bad argument " << flag << " " << value << "\n";
      return false;
    }
  }
  if (o->learner()) return true;
  // A checkpoint workload continues serving after its warm start.
  return o->arrivals > 0 && !o->rates.empty() && o->limit_ms > 0.0 &&
         (o->checkpoint_interval == 0 || o->continue_arrivals > 0);
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

template <std::size_t N>
void PrintResult(const MetricSpec (&specs)[N], bool require_all,
                 const Report& report) {
  bool correct = report.failed == 0;
  std::ostringstream metrics;
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = report.values.find(specs[i].name);
    double value = it == report.values.end() ? 0.0 : it->second;
    if (it == report.values.end() && require_all) {
      std::cerr << "perfbench: no value for " << specs[i].name << "\n";
      correct = false;
    }
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: non-finite " << specs[i].name << "\n";
      correct = false;
      value = 0.0;
    }
    std::printf("%-34s %16.6g %s\n", specs[i].name, value, specs[i].unit);
    metrics << (i == 0 ? "" : ", ") << '"' << specs[i].name
            << "\": {\"value\": " << Number(value) << ", \"unit\": \""
            << specs[i].unit << "\"}";
  }
  const double failed_frac =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("checked operations: %llu attempted, %llu failed "
              "(failed_frac %s)\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              Number(failed_frac).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct && report.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics.str().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  constexpr int kComputeThreads = 1;
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: faction_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --scratch DIR "
                 "(--samples-per-task N | --arrivals N --rates R,... "
                 "--limit-ms L [--continue-arrivals N] "
                 "[--checkpoint-interval N] [--density-window N])\n";
    return 2;
  }
  // The compute layer runs serially. On a 4-vCPU host shared with other
  // machines, the default pool of 4 threads made one nysf-2k FACTION run
  // take 2 to 10 s from run to run (1.4 s with a spread of 5% serially),
  // and it competes with the serving workers and the load generator.
  // Results are bitwise identical at any thread count.
  faction::SetParallelThreadCount(kComputeThreads);
  perfbench::Report report;
  // Provenance of every run: the compute layer's thread count and SIMD
  // tier, and the host's core count.
  report.values["common.threads"] = faction::ParallelThreadCount();
  report.values["tensor.simd_level"] =
      static_cast<double>(faction::ActiveSimdLevel());
  report.values["host.nproc"] = std::thread::hardware_concurrency();
  std::cout << "workload " << options.workload << ", seed " << options.seed
            << ", threads " << faction::ParallelThreadCount() << ", simd "
            << faction::SimdLevelName(faction::ActiveSimdLevel()) << ", nproc "
            << std::thread::hardware_concurrency() << "\n";
  const int rc = options.learner()
                     ? perfbench::RunLearnerWorkload(options, &report)
                     : perfbench::RunServeWorkload(options, &report);
  if (rc != 0) return rc;
  report.values["peak_rss_mb"] = perfbench::PeakRssMb();
  if (options.trace) {
    perfbench::PrintResult(perfbench::kPerLayer, false, report);
  } else {
    perfbench::PrintResult(perfbench::kEndToEnd, true, report);
  }
  return 0;
}
