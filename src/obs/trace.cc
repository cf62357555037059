#include "obs/trace.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

#include "obs/json.h"
#include "obs/profile.h"

namespace vgod::obs {
namespace {

constexpr size_t kRingCapacity = 1 << 16;

/// Ring buffer of completed events. Every scope down to the tensor kernels
/// appends here, once per call rather than per element, so a mutex is
/// cheap enough; with tracing off nothing reaches this.
struct Ring {
  std::mutex mu;
  std::vector<TraceEvent> events;  // Ring storage, capacity kRingCapacity.
  size_t next = 0;                 // Ring write position.
  int64_t total = 0;               // Events ever recorded.
};

Ring& GetRing() {
  static Ring* ring = new Ring();
  return *ring;
}

std::string& EnvPathStorage() {
  static std::string* path = new std::string();
  return *path;
}

int64_t TraceEpochNs() {
  static const int64_t epoch_ns = profile_internal::ProfileNowNs();
  return epoch_ns;
}

}  // namespace

bool TraceEnabled() {
  return (profile_internal::g_sinks.load(std::memory_order_relaxed) &
          profile_internal::kTraceSink) != 0;
}

void SetTraceEnabled(bool enabled) {
  TraceEpochNs();  // Pin the epoch no later than the first enable.
  profile_internal::SetSink(profile_internal::kTraceSink, enabled);
}

void InitTraceFromEnv() {
  const char* value = std::getenv("VGOD_TRACE");
  if (value == nullptr || value[0] == '\0' ||
      (value[0] == '0' && value[1] == '\0')) {
    return;
  }
  const std::string text(value);
  if (text.find('/') != std::string::npos ||
      (text.size() > 5 && text.compare(text.size() - 5, 5, ".json") == 0)) {
    EnvPathStorage() = text;
  }
  SetTraceEnabled(true);
}

std::string TraceEnvPath() { return EnvPathStorage(); }

int64_t TraceNowMicros() {
  return TraceMicrosAt(profile_internal::ProfileNowNs());
}

int64_t TraceMicrosAt(int64_t steady_ns) {
  return (steady_ns - TraceEpochNs()) / 1000;
}

uint32_t TraceThreadId() {
  // Small per-thread id assigned in first-use order: stabler across runs
  // than hashed std::thread::id values, and readable in trace viewers.
  static std::atomic<uint32_t> next_id{1};
  thread_local const uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

void RecordEvent(TraceEvent event) {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.events.size() < kRingCapacity) {
    ring.events.push_back(std::move(event));
  } else {
    ring.events[ring.next] = std::move(event);
  }
  ring.next = (ring.next + 1) % kRingCapacity;
  ++ring.total;
}

}  // namespace

void RecordCompleteEvent(std::string name, int64_t ts_us, int64_t dur_us) {
  if (!TraceEnabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.tid = TraceThreadId();
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  RecordEvent(std::move(event));
}

void RecordFlowEvent(std::string name, uint64_t flow_id, bool finish) {
  if (!TraceEnabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.ph = finish ? 'f' : 's';
  event.tid = TraceThreadId();
  event.ts_us = TraceNowMicros();
  event.flow_id = flow_id;
  RecordEvent(std::move(event));
}

std::vector<TraceEvent> SnapshotTraceEvents() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.events.size() < kRingCapacity) return ring.events;
  // Unroll the ring: oldest event sits at the write position.
  std::vector<TraceEvent> out;
  out.reserve(kRingCapacity);
  for (size_t i = 0; i < kRingCapacity; ++i) {
    out.push_back(ring.events[(ring.next + i) % kRingCapacity]);
  }
  return out;
}

size_t TraceEventCount() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  return ring.events.size();
}

int64_t TraceDroppedCount() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  return ring.total - static_cast<int64_t>(ring.events.size());
}

void ClearTrace() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.events.clear();
  ring.next = 0;
  ring.total = 0;
}

std::string TraceToJson() {
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append("{\"name\":");
    AppendJsonString(&out, events[i].name);
    out.append(",\"cat\":\"vgod\",\"ph\":\"");
    out.push_back(events[i].ph);
    out.append("\",\"pid\":1,\"tid\":");
    AppendJsonNumber(&out, static_cast<double>(events[i].tid));
    out.append(",\"ts\":");
    AppendJsonNumber(&out, static_cast<double>(events[i].ts_us));
    if (events[i].ph == 'X') {
      out.append(",\"dur\":");
      AppendJsonNumber(&out, static_cast<double>(events[i].dur_us));
    } else {
      // Flow events carry the binding id instead of a duration; the
      // finish additionally binds to the enclosing slice ("bp":"e").
      out.append(",\"id\":");
      AppendJsonNumber(&out, static_cast<double>(events[i].flow_id));
      if (events[i].ph == 'f') out.append(",\"bp\":\"e\"");
    }
    out.push_back('}');
  }
  out.append("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
  AppendJsonNumber(&out, static_cast<double>(TraceDroppedCount()));
  out.append("}}");
  return out;
}

Status WriteTrace(const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot write trace to " + path);
  file << TraceToJson() << "\n";
  if (!file) return Status::IoError("failed writing trace to " + path);
  return Status::Ok();
}

}  // namespace vgod::obs
