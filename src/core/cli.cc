#include "core/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iterator>

#include "common/check.h"

namespace faction {

namespace {

Status BadToken(const std::string& flag, const char* what,
                const std::string& token) {
  return Status::InvalidArgument(flag + ": " + what + ": '" + token + "'");
}

// Strict strtod: the whole token must parse, to a finite value.
Status ParseDouble(const std::string& flag, const std::string& token,
                   double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return BadToken(flag, "not a number", token);
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    return BadToken(flag, "out of range", token);
  }
  *out = value;
  return Status::Ok();
}

// Strict strtoull: digits only (no sign, no trailing junk), no overflow.
// strtoull on its own accepts "-1" by wrapping it to 2^64-1 and silently
// stops at the first non-digit, so "200x" would read as 200.
Status ParseUint(const std::string& flag, const std::string& token,
                 std::uint64_t* out) {
  if (token.empty() || token[0] == '+' || token[0] == '-') {
    return BadToken(flag, "not a non-negative integer", token);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return BadToken(flag, "not a non-negative integer", token);
  }
  if (errno == ERANGE) return BadToken(flag, "out of range", token);
  *out = static_cast<std::uint64_t>(value);
  return Status::Ok();
}

Status ParseSize(const std::string& flag, const std::string& token,
                 std::size_t* out) {
  std::uint64_t value = 0;
  FACTION_RETURN_IF_ERROR(ParseUint(flag, token, &value));
  *out = static_cast<std::size_t>(value);
  return Status::Ok();
}

}  // namespace

Status ParseCliArgs(int argc, const char* const* argv, CliOptions* options) {
  FACTION_CHECK(options != nullptr);
  FACTION_CHECK(argc <= 0 || argv != nullptr);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i] != nullptr ? argv[i] : "";
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return Status::Ok();
    }
    if (arg == "--csv") {
      options->csv = true;
      continue;
    }
    if (arg == "--telemetry") {
      options->telemetry = true;
      continue;
    }
    // Every other flag takes one value.
    static constexpr const char* kValueFlags[] = {
        "--trace",  "--dataset", "--scenario",       "--method",
        "--budget", "--acquisition", "--samples",    "--seed",
        "--mu",     "--lambda",  "--alpha",          "--density-window",
        "--density-decay"};
    if (std::find(std::begin(kValueFlags), std::end(kValueFlags), arg) ==
        std::end(kValueFlags)) {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
    if (i + 1 >= argc || argv[i + 1] == nullptr) {
      return Status::InvalidArgument(arg + " requires a value");
    }
    const std::string value = argv[++i];
    if (arg == "--trace") {
      options->trace_path = value;
      options->telemetry = true;
    } else if (arg == "--dataset") {
      options->dataset = value;
    } else if (arg == "--scenario") {
      options->scenario = value;
    } else if (arg == "--method") {
      options->method = value;
    } else if (arg == "--budget") {
      FACTION_RETURN_IF_ERROR(ParseSize(arg, value, &options->budget));
    } else if (arg == "--acquisition") {
      FACTION_RETURN_IF_ERROR(ParseSize(arg, value, &options->acquisition));
    } else if (arg == "--samples") {
      FACTION_RETURN_IF_ERROR(ParseSize(arg, value, &options->samples));
    } else if (arg == "--seed") {
      FACTION_RETURN_IF_ERROR(ParseUint(arg, value, &options->seed));
    } else if (arg == "--mu") {
      FACTION_RETURN_IF_ERROR(ParseDouble(arg, value, &options->mu));
    } else if (arg == "--lambda") {
      FACTION_RETURN_IF_ERROR(ParseDouble(arg, value, &options->lambda));
    } else if (arg == "--alpha") {
      FACTION_RETURN_IF_ERROR(ParseDouble(arg, value, &options->alpha));
    } else if (arg == "--density-window") {
      FACTION_RETURN_IF_ERROR(
          ParseSize(arg, value, &options->density_window));
    } else {  // --density-decay
      FACTION_RETURN_IF_ERROR(
          ParseDouble(arg, value, &options->density_decay));
      if (!(options->density_decay > 0.0 && options->density_decay <= 1.0)) {
        return Status::InvalidArgument("--density-decay must be in (0, 1]");
      }
    }
  }
  return Status::Ok();
}

}  // namespace faction
