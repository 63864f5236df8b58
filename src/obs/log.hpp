// Leveled structured logger for the service/net layers.  One line per
// event, written to stderr with a single EINTR-safe write(2) so concurrent
// writers never interleave mid-line and a SIGPIPE'd or full stderr cannot
// wedge a worker.
//
// Configuration comes from the DABS_LOG environment variable, read once:
//
//   DABS_LOG=level[,json]      level in {debug, info, warn, error, off}
//
// Default is `warn` — production runs stay quiet unless something is wrong.
// Text form:
//
//   2026-08-07T12:00:00.000Z WARN journal: append failed error="ENOSPC"
//
// JSON form (DABS_LOG=warn,json) emits one object per line with the same
// fields, for log shippers.
//
// Call sites that can fire at high frequency (journal append on a dying
// disk) guard with a LogRateLimit so stderr sees at most one line per
// interval, with a `suppressed=N` count attached when the gate reopens.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

namespace dabs::obs {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError, kOff };

const char* to_string(LogLevel level) noexcept;

/// One key="value" pair attached to a log line.
struct LogField {
  std::string key;
  std::string value;

  LogField(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}
  LogField(std::string k, const char* v) : key(std::move(k)), value(v) {}
  LogField(std::string k, std::int64_t v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, std::uint64_t v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, int v) : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, double v);
};

/// Current threshold (parsed from DABS_LOG on first use).
LogLevel log_level() noexcept;

/// True when a line at `level` would be emitted — use to skip expensive
/// field formatting.
bool log_enabled(LogLevel level) noexcept;

/// Programmatic override of the DABS_LOG spec ("level[,json]"); unknown
/// levels fall back to warn.  Mostly for tests and CLI flags.
void log_configure(std::string_view spec);

/// Emit one line.  `component` is a short subsystem tag (journal, batch,
/// serve, http); `message` is a fixed human phrase; variable data
/// goes in `fields`.
void log(LogLevel level, std::string_view component, std::string_view message,
         std::initializer_list<LogField> fields = {});

/// Test hook: redirect formatted lines (newline included) to `sink`
/// instead of stderr.  Pass nullptr to restore the default.  Not for
/// production use.
void log_set_sink(std::function<void(const std::string& line)> sink);

/// Per-call-site flood gate.  Declare one (function-local static) next to
/// the log call; allow() grants at most one emission per interval and
/// reports how many attempts were swallowed since the last grant.
///
///   static obs::LogRateLimit gate(5.0);
///   std::uint64_t suppressed = 0;
///   if (gate.allow(&suppressed)) {
///     obs::log(obs::LogLevel::kWarn, "journal", "append failed",
///              {{"error", err}, {"suppressed", suppressed}});
///   }
class LogRateLimit {
 public:
  explicit LogRateLimit(double min_interval_seconds) noexcept
      : interval_ns_(static_cast<std::int64_t>(min_interval_seconds * 1e9)) {}

  /// Thread-safe.  Returns true when this call may log; *suppressed (may
  /// be nullptr) receives the number of suppressed attempts since the
  /// previous grant.
  bool allow(std::uint64_t* suppressed = nullptr) noexcept;

 private:
  std::int64_t interval_ns_;
  std::atomic<std::int64_t> last_ns_{0};
  std::atomic<std::uint64_t> suppressed_{0};
};

}  // namespace dabs::obs
