#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace faction {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message) {
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), Basename(file),
               line, message.c_str());
}

}  // namespace faction
