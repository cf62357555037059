#ifndef VGOD_SERVE_ACCESS_LOG_H_
#define VGOD_SERVE_ACCESS_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>

#include "core/status.h"

namespace vgod::serve {

/// One request's worth of access-log data: identity, outcome, and the
/// per-stage latency breakdown (microseconds). The stage fields mirror
/// the serve.stage.* histograms; docs/OBSERVABILITY.md documents the
/// schema. Requests that never reach a stage leave its field at 0.
struct AccessRecord {
  uint64_t request_id = 0;
  std::string path;
  int status = 200;
  int num_nodes = 0;    // Node ids asked for (subgraph requests: graph size).
  bool shed = false;    // Load-shedding rejection (queue full).
  std::string error_class;  // Empty on success; CountHttpError's class name.
  int64_t parse_us = 0;
  int64_t queue_wait_us = 0;
  int64_t score_us = 0;
  int64_t serialize_us = 0;
  int64_t total_us = 0;
  /// Peak live tensor bytes allocated by the Score() call that answered
  /// the request (net of frees, high-water on the scoring thread) — lets
  /// /debug/slow correlate tail latency with memory pressure.
  int64_t tensor_peak_bytes = 0;
};

/// One compact JSON object (no trailing newline) for the record — the
/// access-log line format, also reused by the /debug/slow payload.
std::string AccessRecordToJson(const AccessRecord& record);

/// Structured JSON access log: one line per HTTP request, flushed per
/// line so a tail -f (or tools/check_serve.py) sees requests as they
/// complete. Thread-safe; connection threads log concurrently.
class AccessLog {
 public:
  /// Opens `path` for appending. "-" or "stderr" log to stderr instead.
  static Result<std::unique_ptr<AccessLog>> Open(const std::string& path);

  void Record(const AccessRecord& record);

  /// Process-wide log gated by VGOD_ACCESS_LOG (a path, or "-"/"stderr").
  /// Returns nullptr when the variable is unset/empty/"0" or the path
  /// cannot be opened (logged once as a warning).
  static AccessLog* FromEnv();

 private:
  AccessLog() = default;

  std::mutex mu_;
  std::ofstream file_;
  bool to_stderr_ = false;
};

/// Monotonic process-wide request id; never returns 0 (0 means "no id
/// assigned yet" throughout the serving stack).
uint64_t NextRequestId();

}  // namespace vgod::serve

#endif  // VGOD_SERVE_ACCESS_LOG_H_
