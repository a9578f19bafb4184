#ifndef FACTION_COMMON_LOGGING_H_
#define FACTION_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace faction {

/// Log severities, ascending.
enum class LogLevel { kInfo, kWarning, kError };

/// Emits one formatted log line to stderr.
void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message);

namespace internal_logging {

/// Stream-style accumulator used by the FACTION_LOG macro; writes on
/// destruction.
class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace faction

/// Usage: FACTION_LOG(kInfo) << "fitted " << n << " components";
#define FACTION_LOG(severity)                                     \
  ::faction::internal_logging::LogStream(                         \
      ::faction::LogLevel::severity, __FILE__, __LINE__)

// FACTION_CHECK and its variants live in common/check.h, the contracts
// layer built on top of this logger.

#endif  // FACTION_COMMON_LOGGING_H_
