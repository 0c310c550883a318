// Leveled logging to stderr.
//
// The simulator itself never logs on hot paths; logging exists for the
// threaded prototype runtime, examples, and benches. The level comes
// from the HAWK_LOG_LEVEL environment variable (debug|info|warn|error,
// default info).
#ifndef HAWK_COMMON_LOGGING_H_
#define HAWK_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace hawk {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

// Returns the process-wide minimum level that will be emitted.
LogLevel GetLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) {
      stream_ << value;
    }
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace hawk

#define HAWK_LOG(level) \
  ::hawk::internal::LogMessage(::hawk::LogLevel::k##level, __FILE__, __LINE__)

#endif  // HAWK_COMMON_LOGGING_H_
