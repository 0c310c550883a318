#include "src/common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace hawk {
namespace {

std::atomic<int> g_level{-1};  // -1 = uninitialized, resolve from environment.
std::mutex g_write_mutex;

LogLevel LevelFromEnvironment() {
  const char* env = std::getenv("HAWK_LOG_LEVEL");
  if (env == nullptr) {
    return LogLevel::kInfo;
  }
  if (std::strcmp(env, "debug") == 0) {
    return LogLevel::kDebug;
  }
  if (std::strcmp(env, "warn") == 0) {
    return LogLevel::kWarn;
  }
  if (std::strcmp(env, "error") == 0) {
    return LogLevel::kError;
  }
  return LogLevel::kInfo;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(LevelFromEnvironment());
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(level);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  enabled_ = static_cast<int>(level) >= static_cast<int>(GetLogLevel());
  if (enabled_) {
    const char* base = std::strrchr(file, '/');
    stream_ << "[" << LevelName(level) << " " << (base != nullptr ? base + 1 : file) << ":"
            << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    // Single write under a mutex so prototype-runtime threads do not
    // interleave characters.
    std::lock_guard<std::mutex> lock(g_write_mutex);
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
  (void)level_;
}

}  // namespace internal
}  // namespace hawk
