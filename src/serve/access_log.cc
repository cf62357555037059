#include "serve/access_log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "core/logging.h"
#include "obs/json.h"

namespace vgod::serve {

std::string AccessRecordToJson(const AccessRecord& record) {
  std::string out = "{\"id\":" + std::to_string(record.request_id);
  out.append(",\"path\":");
  obs::AppendJsonString(&out, record.path);
  out.append(",\"status\":" + std::to_string(record.status));
  out.append(",\"nodes\":" + std::to_string(record.num_nodes));
  out.append(record.shed ? ",\"shed\":true" : ",\"shed\":false");
  out.append(",\"error_class\":");
  obs::AppendJsonString(&out, record.error_class);
  out.append(",\"parse_us\":" + std::to_string(record.parse_us));
  out.append(",\"queue_wait_us\":" + std::to_string(record.queue_wait_us));
  out.append(",\"score_us\":" + std::to_string(record.score_us));
  out.append(",\"serialize_us\":" + std::to_string(record.serialize_us));
  out.append(",\"total_us\":" + std::to_string(record.total_us));
  out.append(",\"tensor_peak_bytes\":" +
             std::to_string(record.tensor_peak_bytes));
  out.push_back('}');
  return out;
}

Result<std::unique_ptr<AccessLog>> AccessLog::Open(const std::string& path) {
  std::unique_ptr<AccessLog> log(new AccessLog());
  if (path == "-" || path == "stderr") {
    log->to_stderr_ = true;
    return log;
  }
  log->file_.open(path, std::ios::app);
  if (!log->file_) {
    return Status::IoError("cannot open access log " + path);
  }
  return log;
}

void AccessLog::Record(const AccessRecord& record) {
  const std::string line = AccessRecordToJson(record);
  std::lock_guard<std::mutex> lock(mu_);
  if (to_stderr_) {
    std::fprintf(stderr, "%s\n", line.c_str());
    return;
  }
  file_ << line << '\n';
  file_.flush();
}

AccessLog* AccessLog::FromEnv() {
  static AccessLog* log = []() -> AccessLog* {
    const char* value = std::getenv("VGOD_ACCESS_LOG");
    if (value == nullptr || value[0] == '\0' ||
        (value[0] == '0' && value[1] == '\0')) {
      return nullptr;
    }
    Result<std::unique_ptr<AccessLog>> opened = Open(value);
    if (!opened.ok()) {
      VGOD_LOG(Warning) << "VGOD_ACCESS_LOG disabled: "
                        << opened.status().ToString();
      return nullptr;
    }
    return opened.value().release();
  }();
  return log;
}

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace vgod::serve
