#ifndef VGOD_OBS_TRACE_H_
#define VGOD_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace vgod::obs {

/// One trace event, timestamped in microseconds since the process trace
/// epoch. `ph` follows the Chrome trace_event phases this ring records:
/// 'X' complete span, 's' flow start, 'f' flow finish. Flow events carry
/// `flow_id` (the serving layer uses the request id) and tie a span on
/// one thread to a span on another in the viewer.
struct TraceEvent {
  std::string name;
  char ph = 'X';
  uint32_t tid = 0;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  uint64_t flow_id = 0;
};

/// Global on/off switch of the trace sink. When on, every VGOD_SCOPE
/// (obs/profile.h) that exits appends one complete event to the ring.
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// Applies the VGOD_TRACE environment variable: unset, "" or "0" leaves
/// tracing off; anything else turns it on. A value containing '/' or
/// ending in ".json" additionally becomes the default export path
/// returned by TraceEnvPath().
void InitTraceFromEnv();

/// Export path carried by VGOD_TRACE (empty when none was given).
std::string TraceEnvPath();

/// Microseconds since the process trace epoch (steady clock).
int64_t TraceNowMicros();

/// The same timeline at a steady-clock reading given in nanoseconds since
/// the clock's own epoch (the one reading a scope shares between sinks).
int64_t TraceMicrosAt(int64_t steady_ns);

/// Stable small id for the calling thread (used as "tid" in exports).
uint32_t TraceThreadId();

/// Appends a completed span to the in-process ring buffer (oldest events
/// are overwritten past the capacity). No-op when tracing is disabled.
void RecordCompleteEvent(std::string name, int64_t ts_us, int64_t dur_us);

/// Appends a flow event at the current timestamp on the calling thread:
/// `finish` false records the flow start ("ph":"s"), true the finish
/// ("ph":"f", binding to the enclosing slice). Record the start inside a
/// span on the producing thread and the finish inside a span on the
/// consuming thread with the same `flow_id`, and trace viewers draw an
/// arrow between the two. No-op when tracing is disabled.
void RecordFlowEvent(std::string name, uint64_t flow_id, bool finish);

/// Events currently buffered, oldest first. Number dropped by ring
/// wrap-around is reported by TraceDroppedCount().
std::vector<TraceEvent> SnapshotTraceEvents();
size_t TraceEventCount();
int64_t TraceDroppedCount();
void ClearTrace();

/// Chrome trace_event JSON ("catapult" format): load via chrome://tracing
/// or https://ui.perfetto.dev.
std::string TraceToJson();
Status WriteTrace(const std::string& path);

}  // namespace vgod::obs

#endif  // VGOD_OBS_TRACE_H_
