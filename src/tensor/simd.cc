#include "tensor/simd.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "common/telemetry.h"

namespace faction {

// Per-tier tables, defined by simd_kernels.inc under tier namespaces. The
// wide tiers exist only when the compiler accepted the matching -m flag;
// their code is reached exclusively through these tables, after the cpuid
// check below — never before dispatch.
namespace simd_generic {
const SimdKernels& Kernels();
}  // namespace simd_generic
#if defined(FACTION_SIMD_HAVE_AVX2)
namespace simd_avx2 {
const SimdKernels& Kernels();
}  // namespace simd_avx2
#endif
#if defined(FACTION_SIMD_HAVE_AVX512)
namespace simd_avx512 {
const SimdKernels& Kernels();
}  // namespace simd_avx512
#endif

namespace {

std::atomic<const SimdKernels*> g_active{nullptr};

const SimdKernels* TableFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return &simd_generic::Kernels();
    case SimdLevel::kAvx2:
#if defined(FACTION_SIMD_HAVE_AVX2)
      return &simd_avx2::Kernels();
#else
      return nullptr;
#endif
    case SimdLevel::kAvx512:
#if defined(FACTION_SIMD_HAVE_AVX512)
      return &simd_avx512::Kernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return true;
    case SimdLevel::kAvx2:
#if defined(FACTION_SIMD_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(FACTION_SIMD_HAVE_AVX512)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel HighestSupported() {
  if (SimdLevelSupported(SimdLevel::kAvx512)) return SimdLevel::kAvx512;
  if (SimdLevelSupported(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kGeneric;
}

// First-use resolution: FACTION_SIMD_LEVEL when set and usable, otherwise
// the widest tier this binary and CPU support. Concurrent first calls
// resolve to the same table, so the benign store race is harmless.
const SimdKernels* Resolve() {
  SimdLevel level = HighestSupported();
  const char* env = std::getenv("FACTION_SIMD_LEVEL");
  if (env != nullptr && *env != '\0') {
    Result<SimdLevel> parsed = ParseSimdLevel(env);
    if (!parsed.ok()) {
      FACTION_LOG(kWarning) << "FACTION_SIMD_LEVEL=" << env
                            << " not recognized; using "
                            << SimdLevelName(level);
    } else if (!SimdLevelSupported(parsed.value())) {
      FACTION_LOG(kWarning) << "FACTION_SIMD_LEVEL=" << env
                            << " not supported on this host; using "
                            << SimdLevelName(level);
    } else {
      level = parsed.value();
    }
  }
  return TableFor(level);
}

}  // namespace

const SimdKernels& ActiveSimd() {
  const SimdKernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Resolve();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

SimdLevel ActiveSimdLevel() { return ActiveSimd().level; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return "generic";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdLevelSupported(SimdLevel level) {
  return TableFor(level) != nullptr && CpuSupports(level);
}

Result<SimdLevel> ParseSimdLevel(const std::string& value) {
  if (value == "generic") return SimdLevel::kGeneric;
  if (value == "avx2") return SimdLevel::kAvx2;
  if (value == "avx512") return SimdLevel::kAvx512;
  if (value == "native") return HighestSupported();
  return Status::InvalidArgument("unknown SIMD level: " + value);
}

Status SetSimdLevel(SimdLevel level) {
  if (!SimdLevelSupported(level)) {
    return Status::InvalidArgument(std::string("SIMD level not supported: ") +
                                   SimdLevelName(level));
  }
  g_active.store(TableFor(level), std::memory_order_release);
  return Status::Ok();
}

void PublishSimdTelemetry() {
  const SimdKernels& kernels = ActiveSimd();
  TelemetryGauge("simd.dispatch_level", static_cast<double>(kernels.level));
  TelemetryCount((std::string("simd.dispatch.") + kernels.name).c_str());
}

}  // namespace faction
