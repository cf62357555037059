// Open-loop HTTP load from one thread over a few keep-alive connections.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <deque>
#include <string>
#include <vector>

#include "core/status.h"

namespace perfbench {

/// One request of a schedule. `due` is seconds after the phase starts.
struct Scheduled {
  double due = 0.0;
  int connection = 0;
  const std::string* wire = nullptr;  // full HTTP request bytes
  int kind = 0;                       // caller's label
  int index = 0;                      // caller's label
};

struct Completion {
  double due = 0.0;   // absolute, Now() clock
  double sent = 0.0;  // when the generator queued the bytes
  double done = 0.0;  // when the whole response had arrived
  int status = 0;     // 0: no response (connection lost or drain timeout)
  std::string body;
};

/// Sends every request at its due time, pipelined on its connection, and
/// times it from when it was due (so a stall also delays what follows).
class LoadGenerator {
 public:
  LoadGenerator() = default;
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  vgod::Status Connect(int port, int connections);
  /// Runs `schedule` (sorted by due) and returns one completion per entry.
  /// Requests still unanswered `drain_seconds` after the last due time are
  /// failed. Response bodies are kept only for kinds in `keep_kinds`.
  std::vector<Completion> Run(const std::vector<Scheduled>& schedule,
                              double drain_seconds,
                              const std::vector<int>& keep_kinds);

 private:
  struct Connection {
    int fd = -1;
    std::string out;
    size_t out_offset = 0;
    std::string in;
    std::deque<int> in_flight;  // schedule indices, in send order
  };
  bool Reconnect(Connection* connection);
  int port_ = 0;
  std::vector<Connection> connections_;
};

/// "POST <target>" request bytes with a JSON body.
std::string PostRequest(const std::string& target, const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
