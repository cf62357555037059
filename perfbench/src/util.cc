// Statistics, the report, the span recorder, workload inputs and the
// server child process.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench.h"
#include "core/rng.h"
#include "datasets/registry.h"
#include "injection/injection.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ------------------------------------------------------------------ report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Check(bool ok, const std::string& what,
                   const std::string& detail) {
  if (ok) {
    ++passed_checks_;
    return;
  }
  ++failed_checks_;
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s %s\n", what.c_str(),
               detail.c_str());
}

namespace {

void AppendNumber(std::string* out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : 0.0);
  out->append(buffer);
}

void AppendKey(std::string* out, const std::string& key) {
  vgod::obs::AppendJsonString(out, key);
  out->push_back(':');
}

}  // namespace

void Report::Print(const std::string& workload, uint64_t seed) const {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string info = "{\"workload\":";
  vgod::obs::AppendJsonString(&info, workload);
  info += ",\"seed\":" + std::to_string(seed) + ",\"threads\":{";
  info += "\"kernel\":" + std::to_string(kKernelThreads) +
          ",\"server_engine\":" + std::to_string(kEngineThreads) +
          ",\"server_kernel\":" + std::to_string(kServerKernelThreads) +
          ",\"server_dispatch\":" + std::to_string(kDispatchThreads) +
          ",\"load_connections\":" + std::to_string(kConnections) +
          ",\"load_threads\":1},\"checks\":{\"passed\":" +
          std::to_string(passed_checks_) +
          ",\"failed\":" + std::to_string(failed_checks_) + "},\"phases\":[";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const Phase& p = phases_[i];
    attempted += p.attempted;
    failed += p.failed;
    if (i > 0) info.push_back(',');
    info += "{\"name\":";
    vgod::obs::AppendJsonString(&info, p.name);
    info += ",\"attempted\":" + std::to_string(p.attempted) +
            ",\"succeeded\":" + std::to_string(p.succeeded) +
            ",\"failed\":" + std::to_string(p.failed);
    if (p.offered_rps > 0.0) {
      info += ",\"offered_rps\":";
      AppendNumber(&info, p.offered_rps);
      info += ",\"generator_late_ms\":{\"p50\":";
      AppendNumber(&info, p.late_p50_ms);
      info += ",\"p99\":";
      AppendNumber(&info, p.late_p99_ms);
      info += ",\"max\":";
      AppendNumber(&info, p.late_max_ms);
      info += "}";
    }
    info += "}";
  }
  info += "],\"notes\":{";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) info.push_back(',');
    first = false;
    AppendKey(&info, key);
    AppendNumber(&info, value);
  }
  info += "}}";

  std::string result = "{\"correct\":";
  result += correct() ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(std::max<int64_t>(attempted, 1)) +
            ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) result.push_back(',');
    AppendKey(&result, metrics_[i].first);
    result += "{\"value\":";
    AppendNumber(&result, metrics_[i].second.first);
    result += ",\"unit\":";
    vgod::obs::AppendJsonString(&result, metrics_[i].second.second);
    result += "}";
  }
  result += "}}";
  std::printf("%s\n%s\n", info.c_str(), result.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ spans

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int Tracer::Begin(const std::string& name, uint64_t request_id) {
  SpanRecord span;
  span.name = name;
  span.start = Now();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end = Now();
  // Spans close in LIFO order on the benchmark's single thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Record(const std::string& name, double start, double end,
                    uint64_t request_id) {
  if (!enabled_) return;
  SpanRecord span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  spans_.push_back(std::move(span));
}

Status Tracer::Write(const std::string& path) const {
  // Self time: a span's duration minus the union of its children's
  // intervals (children of one parent may overlap: concurrent requests).
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0 && span.end >= span.start) {
      children[span.parent].push_back({span.start, span.end});
    }
  }
  std::map<std::string, std::pair<double, int64_t>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end < span.start) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = span.start;
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, cursor);
      const double to = std::min(hi, span.end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    auto& entry = self[span.name];
    entry.first += (span.end - span.start) - covered;
    entry.second += 1;
  }
  std::string out = "{\"self_time_s\":{";
  bool first = true;
  for (const auto& [name, entry] : self) {
    if (!first) out.push_back(',');
    first = false;
    AppendKey(&out, name);
    out += "{\"total\":";
    AppendNumber(&out, entry.first);
    out += ",\"spans\":" + std::to_string(entry.second) + "}";
  }
  out += "},\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (i > 0) out.push_back(',');
    out += "{\"id\":" + std::to_string(i) + ",\"name\":";
    vgod::obs::AppendJsonString(&out, span.name);
    out += ",\"start\":";
    AppendNumber(&out, span.start);
    out += ",\"end\":";
    AppendNumber(&out, span.end);
    out += ",\"parent\":" + std::to_string(span.parent) +
           ",\"request_id\":" + std::to_string(span.request_id) + "}";
  }
  out += "]}\n";
  std::ofstream file(path);
  if (!file) return Status::Internal("cannot write " + path);
  file << out;
  // The self-time table also goes to stderr, next to the run's log.
  for (const auto& [name, entry] : self) {
    std::fprintf(stderr, "[perfbench] self %-36s %10.4f s over %lld spans\n",
                 name.c_str(), entry.first,
                 static_cast<long long>(entry.second));
  }
  return Status::Ok();
}

// ------------------------------------------------------------------ inputs

Result<DetectInputs> MakeDetectInputs(uint64_t seed, double scale) {
  Result<vgod::datasets::Dataset> dataset =
      vgod::datasets::MakeDataset(kDataset, scale, seed);
  if (!dataset.ok()) return dataset.status();
  vgod::Rng rng(seed ^ 0x5eed1e55ULL);
  Result<vgod::injection::InjectionResult> injected =
      vgod::injection::InjectStandard(dataset.value().graph,
                                      dataset.value().default_num_cliques,
                                      kCliqueSize, kCandidateSet, &rng);
  if (!injected.ok()) return injected.status();
  DetectInputs inputs;
  inputs.graph = std::move(injected.value().graph);
  inputs.labels = std::move(injected.value().combined);
  return inputs;
}

vgod::detectors::VgodConfig BenchVgodConfig(uint64_t /*seed*/) {
  return vgod::detectors::VgodConfig{};
}

vgod::detectors::DominantConfig BenchDominantConfig(uint64_t /*seed*/) {
  vgod::detectors::DominantConfig config;
  config.epochs = kDominantEpochs;
  return config;
}

// ------------------------------------------------------------------- HTTP

namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Result<std::string> HttpCall(int port, const std::string& method,
                             const std::string& target,
                             const std::string& body, int* status) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return Status::Internal("connect failed");
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nhost: 127.0.0.1\r\nconnection: close\r\n"
                        "content-length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return Status::Internal("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 ||
      header_end == std::string::npos) {
    return Status::Internal("malformed HTTP response");
  }
  *status = std::atoi(response.c_str() + 9);
  return response.substr(header_end + 4);
}

Result<vgod::obs::JsonValue> GetJson(int port, const std::string& target) {
  int status = 0;
  Result<std::string> body = HttpCall(port, "GET", target, "", &status);
  if (!body.ok()) return body.status();
  if (status != 200) {
    return Status::Internal("GET " + target + " returned " +
                            std::to_string(status));
  }
  return vgod::obs::ParseJson(body.value());
}

double MetricsDelta::Field(const char* section, const std::string& name,
                           const char* field) const {
  auto read = [&](const vgod::obs::JsonValue& root) {
    const vgod::obs::JsonValue& value = root.at(section).at(name);
    if (field != nullptr) return value.at(field).number();
    return value.number();
  };
  return read(after_) - read(before_);
}

double MetricsDelta::Gauge(const std::string& name) const {
  return Field("gauges", name, nullptr);
}
double MetricsDelta::HistCount(const std::string& name) const {
  return Field("histograms", name, "count");
}
double MetricsDelta::HistSum(const std::string& name) const {
  return Field("histograms", name, "sum");
}
double MetricsDelta::HistMean(const std::string& name) const {
  const double count = HistCount(name);
  return count > 0.0 ? HistSum(name) / count : 0.0;
}

// ----------------------------------------------------------------- server

Status ServerProcess::Start(const ServerArgs& args, double timeout_seconds) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::Internal("pipe failed");
  }
  std::vector<std::string> argv_storage = {
      args.binary,
      "--bundle=" + args.bundle,
      "--graph=" + args.graph,
      "--port=0",
      "--threads=" + std::to_string(kEngineThreads),
      "--num_threads=" + std::to_string(kServerKernelThreads),
      "--dispatch-threads=" + std::to_string(kDispatchThreads),
      // Deep enough that no fixed-rate or search phase ever sheds.
      "--max-queue=100000",
  };
  if (args.streaming) {
    argv_storage.push_back("--streaming");
    argv_storage.push_back("--compact-every=" +
                           std::to_string(args.compact_every));
  }
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  const double deadline = Now() + timeout_seconds;
  std::string banner;
  while (port_ == 0) {
    const double left = deadline - Now();
    if (left <= 0) return Status::Internal("server did not start");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buffer[512];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
    if (n <= 0) return Status::Internal("server exited during start-up");
    banner.append(buffer, static_cast<size_t>(n));
    const size_t at = banner.find("listening on 127.0.0.1:");
    if (at != std::string::npos && banner.find('\n', at) != std::string::npos) {
      port_ = std::atoi(banner.c_str() + at + 23);
    }
  }
  while (Now() < deadline) {
    int status = 0;
    Result<std::string> ready =
        HttpCall(port_, "GET", "/healthz/ready", "", &status);
    if (ready.ok() && status == 200) return Status::Ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Internal("server never became ready");
}

int ServerProcess::Stop() {
  if (pid_ < 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const double deadline = Now() + 20.0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status = -1;
  }
  pid_ = -1;
  port_ = 0;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return status == -1 ? -1 : (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
