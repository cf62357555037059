#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "core/logging.h"
#include "obs/metrics.h"

namespace vgod::serve {
namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 64 * 1024 * 1024;
/// Parsed-but-unanswered requests buffered per connection before the
/// event loop pauses reading from it (pipelining backpressure): a client
/// blasting requests cannot grow server memory faster than responses
/// drain.
constexpr size_t kMaxPipelined = 32;

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string SerializeResponse(const HttpResponse& response, bool close) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     HttpStatusReason(response.status) + "\r\n";
  wire += "content-type: " + response.content_type + "\r\n";
  wire += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  wire += close ? "connection: close\r\n" : "connection: keep-alive\r\n";
  wire += "\r\n";
  wire += response.body;
  return wire;
}

/// Header block for an open-ended streaming response: no content-length,
/// explicit close semantics (the stream is the connection's last
/// exchange), and cache-busting per the SSE spec.
std::string SerializeStreamHeader(const HttpResponse& response) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     HttpStatusReason(response.status) + "\r\n";
  wire += "content-type: " + response.content_type + "\r\n";
  wire += "cache-control: no-cache\r\n";
  wire += "connection: close\r\n";
  wire += "\r\n";
  wire += response.body;
  return wire;
}

/// Bodyless error response for requests the transport rejects before the
/// handler can see them (and for admission-control 503s).
std::string EarlyErrorWire(int status) {
  return "HTTP/1.1 " + std::to_string(status) + " " +
         HttpStatusReason(status) +
         "\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
}

/// Whether this request's response must be the connection's last.
/// HTTP/1.1 defaults to keep-alive unless the client says close;
/// HTTP/1.0 defaults to close unless the client says keep-alive.
bool RequestWantsClose(const HttpRequest& request) {
  const auto it = request.headers.find("connection");
  const std::string value =
      it == request.headers.end() ? "" : Lower(Trim(it->second));
  if (request.version == "HTTP/1.0") return value != "keep-alive";
  return value == "close";
}

void SetOpenConnectionsGauge(size_t n) {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "serve.transport.open_connections");
  gauge->Set(static_cast<double>(n));
}

Result<std::string> DecodeFormValue(const std::string& raw) {
  const auto hex = [](char h) -> int {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c == '+') {
      out.push_back(' ');
      continue;
    }
    if (c != '%') {
      out.push_back(c);
      continue;
    }
    if (i + 2 >= raw.size()) {
      return Status::InvalidArgument(
          "truncated percent-escape in query value '" + raw + "'");
    }
    const int hi = hex(raw[i + 1]);
    const int lo = hex(raw[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("malformed percent-escape '" +
                                     raw.substr(i, 3) + "' in query value");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

}  // namespace

HttpResponse HttpResponse::Json(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::Prometheus(std::string body) {
  HttpResponse response;
  response.status = 200;
  // The version tag tells Prometheus scrapers this is text exposition
  // format 0.0.4 rather than protobuf.
  response.content_type = "text/plain; version=0.0.4";
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::EventStream(std::string initial_payload) {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/event-stream";
  response.body = std::move(initial_payload);
  response.stream = true;
  return response;
}

void SplitTarget(const std::string& target, std::string* path,
                 std::string* query) {
  const size_t q = target.find('?');
  if (q == std::string::npos) {
    *path = target;
    query->clear();
    return;
  }
  *path = target.substr(0, q);
  *query = target.substr(q + 1);
}

Result<std::string> QueryParam(const std::string& query,
                               const std::string& key) {
  size_t begin = 0;
  while (begin <= query.size()) {
    size_t end = query.find('&', begin);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(begin, end - begin);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return DecodeFormValue(pair.substr(eq + 1));
    }
    if (eq == std::string::npos && pair == key) return std::string();
    begin = end + 1;
  }
  return std::string();
}

const char* HttpErrorClass(int status) {
  switch (status) {
    case 400: return "bad_request";
    case 404: return "not_found";
    case 405: return "method_not_allowed";
    case 409: return "conflict";
    case 413: return "payload_too_large";
    case 431: return "header_fields_too_large";
    case 500: return "internal";
    case 503: return "unavailable";
    default:  return "other";
  }
}

void CountHttpError(int status) {
  obs::MetricsRegistry::Global()
      .GetCounter("serve.errors." + std::string(HttpErrorClass(status)))
      ->Increment();
}

void CountStatusClass(int status) {
  const char* name = nullptr;
  if (status >= 200 && status < 300) {
    name = "serve.http.status.2xx";
  } else if (status >= 300 && status < 400) {
    name = "serve.http.status.3xx";
  } else if (status >= 400 && status < 500) {
    name = "serve.http.status.4xx";
  } else if (status >= 500 && status < 600) {
    name = "serve.http.status.5xx";
  } else {
    name = "serve.http.status.other";
  }
  obs::MetricsRegistry::Global().GetCounter(name)->Increment();
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(Handler handler, TransportOptions options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.dispatch_threads < 1) options_.dispatch_threads = 1;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(int port) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("server already started");
    if (stopped_) return Status::FailedPrecondition("server was stopped");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind port " + std::to_string(port) + ": " +
                           error);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + error);
  }
  if (::listen(fd, 128) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + error);
  }
  const int epoll_fd = ::epoll_create1(0);
  if (epoll_fd < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("epoll_create1: " + error);
  }
  const int wake_fd = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    ::close(epoll_fd);
    return Status::IoError("eventfd: " + error);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0 ||
      (ev.data.fd = wake_fd,
       ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0)) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    ::close(epoll_fd);
    ::close(wake_fd);
    return Status::IoError("epoll_ctl: " + error);
  }

  listen_fd_ = fd;
  epoll_fd_ = epoll_fd;
  wake_fd_ = wake_fd;
  port_ = ntohs(addr.sin_port);
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  event_thread_ = std::thread([this] { EventLoop(); });
  dispatch_pool_.reserve(options_.dispatch_threads);
  for (int i = 0; i < options_.dispatch_threads; ++i) {
    dispatch_pool_.emplace_back([this] { DispatchLoop(); });
  }
  return Status::Ok();
}

void HttpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
    if (wake_fd_ >= 0) {
      uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(wake_fd_, &one, sizeof(one));
    }
  }
  dispatch_cv_.notify_all();
  if (event_thread_.joinable()) event_thread_.join();
  for (std::thread& worker : dispatch_pool_) {
    if (worker.joinable()) worker.join();
  }
  dispatch_pool_.clear();
  {
    // After retired_, late Responders (e.g. from an engine still
    // draining) drop their completions without touching wake_fd_ — so
    // the fds below cannot be written after they close and recycle.
    std::lock_guard<std::mutex> lock(mu_);
    retired_ = true;
    completions_.clear();
    dispatch_queue_.clear();
    stream_chunks_.clear();
    live_streams_.clear();
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::EventLoop() {
  std::vector<epoll_event> events(256);
  auto next_idle_sweep = std::chrono::steady_clock::now();
  for (;;) {
    // Cap the wait so the idle sweep runs even on a silent server; with
    // no idle timeout the loop blocks until a socket or the eventfd fires.
    const int timeout_ms =
        options_.idle_timeout_ms > 0 ? std::min(options_.idle_timeout_ms, 500)
                                     : -1;
    const auto wait_start = std::chrono::steady_clock::now();
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    VGOD_HISTOGRAM_OBSERVE("serve.transport.epoll_wait.seconds",
                           SecondsSince(wait_start));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      VGOD_LOG(Warning) << "epoll_wait failed: " << std::strerror(errno)
                        << "; transport exiting";
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        HandleCompletions();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Closed earlier in this batch.
      Connection& conn = it->second;
      if (ev & (EPOLLHUP | EPOLLERR)) {
        // Peer fully gone (reset / both halves closed): any buffered
        // response is undeliverable.
        CloseConnection(fd);
        continue;
      }
      if ((ev & EPOLLRDHUP) && conn.streaming) {
        // Subscriber sent FIN; a stream has nothing more to read from
        // the peer, so a half-close is an unsubscribe.
        CloseConnection(fd);
        continue;
      }
      if (ev & EPOLLIN) {
        if (!ReadReady(conn)) continue;
      }
      Settle(conn);
    }
    const auto now = std::chrono::steady_clock::now();
    if (options_.idle_timeout_ms > 0 && now >= next_idle_sweep) {
      CloseIdleConnections();
      next_idle_sweep = now + std::chrono::milliseconds(std::min(
                                  options_.idle_timeout_ms, 500));
    }
  }
  // Teardown on the owning thread: every connection fd is event-thread
  // state, so closing here cannot race a concurrent use.
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  conn_fd_by_id_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_streams_.clear();
  }
  SetOpenConnectionsGauge(0);
}

void HttpServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient failure; epoll re-arms.
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Admission control: a fast bounded 503 instead of an unbounded
      // accept backlog (docs/SERVING.md "Admission control").
      VGOD_COUNTER_INC("serve.transport.rejected");
      CountHttpError(503);
      CountStatusClass(503);
      const std::string wire = EarlyErrorWire(503);
      [[maybe_unused]] const ssize_t sent =
          ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn.interest = EPOLLIN;
    conn.last_active = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    VGOD_COUNTER_INC("serve.http.connections");
    VGOD_COUNTER_INC("serve.transport.accepted");
    conn_fd_by_id_[conn.id] = fd;
    conns_.emplace(fd, std::move(conn));
    SetOpenConnectionsGauge(conns_.size());
  }
}

bool HttpServer::ReadReady(Connection& conn) {
  char chunk[16 * 1024];
  while (!conn.reading_paused && !conn.peer_eof &&
         conn.parse != Connection::Parse::kDead) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<size_t>(n));
      conn.last_active = std::chrono::steady_clock::now();
      ParseInput(conn);
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn.fd);
    return false;
  }
  return true;
}

void HttpServer::ParseInput(Connection& conn) {
  for (;;) {
    if (conn.parse == Connection::Parse::kDead) return;
    if (conn.parse == Connection::Parse::kHeaders) {
      const size_t header_end = conn.in.find("\r\n\r\n");
      if (header_end == std::string::npos) {
        // 431 (RFC 6585), not 413: the oversized thing is the header
        // block, not a payload.
        if (conn.in.size() > kMaxHeaderBytes) EarlyError(conn, 431);
        return;
      }
      if (header_end > kMaxHeaderBytes) {
        EarlyError(conn, 431);
        return;
      }
      HttpRequest request;
      const std::string head = conn.in.substr(0, header_end);
      size_t line_end = head.find("\r\n");
      const std::string request_line =
          head.substr(0, std::min(line_end, head.size()));
      const size_t sp1 = request_line.find(' ');
      const size_t sp2 =
          sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
      if (sp1 == 0 || sp2 == std::string::npos) {
        EarlyError(conn, 400);
        return;
      }
      request.method = request_line.substr(0, sp1);
      request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
      request.version = Trim(request_line.substr(sp2 + 1));
      if (request.target.empty() ||
          (request.version != "HTTP/1.1" && request.version != "HTTP/1.0")) {
        EarlyError(conn, 400);
        return;
      }
      bool saw_content_length = false;
      while (line_end != std::string::npos && line_end < head.size()) {
        const size_t next = head.find("\r\n", line_end + 2);
        const std::string line =
            head.substr(line_end + 2, next == std::string::npos
                                          ? std::string::npos
                                          : next - line_end - 2);
        const size_t colon = line.find(':');
        if (colon != std::string::npos) {
          const std::string name = Lower(Trim(line.substr(0, colon)));
          if (name == "content-length") {
            if (saw_content_length) {
              // Duplicate Content-Length is a request-smuggling vector
              // under pipelining: two parsers disagreeing on which value
              // wins disagree on where the next request starts. Reject
              // even identical repeats.
              EarlyError(conn, 400);
              return;
            }
            saw_content_length = true;
          }
          request.headers[name] = Trim(line.substr(colon + 1));
        }
        line_end = next;
      }

      // Body length per content-length. The value is attacker-controlled:
      // only a digits-only token that consumes the whole header value is
      // a length (RFC 9110 §8.6); anything else ("123abc", "-1", "1e9",
      // empty) is malformed and gets 400. 413 is reserved for well-formed
      // lengths beyond the body cap.
      size_t content_length = 0;
      if (saw_content_length) {
        const std::string& token = request.headers.at("content-length");
        unsigned long long parsed = 0;
        const auto [end, ec] = std::from_chars(
            token.data(), token.data() + token.size(), parsed);
        if (ec == std::errc::result_out_of_range &&
            end == token.data() + token.size()) {
          // Digits-only but beyond unsigned long long: a length, just
          // absurd.
          EarlyError(conn, 413);
          return;
        }
        if (ec != std::errc() || end != token.data() + token.size()) {
          EarlyError(conn, 400);
          return;
        }
        if (parsed > kMaxBodyBytes) {
          EarlyError(conn, 413);
          return;
        }
        content_length = static_cast<size_t>(parsed);
      }
      conn.in.erase(0, header_end + 4);
      conn.partial = std::move(request);
      conn.body_needed = content_length;
      conn.parse = Connection::Parse::kBody;
    }
    if (conn.parse == Connection::Parse::kBody) {
      if (conn.in.size() < conn.body_needed) return;  // Need more bytes.
      conn.partial.body = conn.in.substr(0, conn.body_needed);
      conn.in.erase(0, conn.body_needed);
      const bool close = RequestWantsClose(conn.partial);
      conn.ready.emplace_back(std::move(conn.partial), close);
      conn.partial = HttpRequest{};
      conn.body_needed = 0;
      conn.parse = Connection::Parse::kHeaders;
      if (close) {
        // Nothing after an explicit close request gets dispatched.
        conn.parse = Connection::Parse::kDead;
        return;
      }
      if (conn.ready.size() >= kMaxPipelined) {
        conn.reading_paused = true;
        return;
      }
    }
  }
}

void HttpServer::EarlyError(Connection& conn, int status) {
  conn.parse = Connection::Parse::kDead;
  conn.partial = HttpRequest{};
  conn.in.clear();
  if (!conn.busy && conn.ready.empty()) {
    EmitEarlyError(conn, status);
  } else {
    // Responses already owed to this connection go out first; the error
    // rides behind them (deferred_error) so replies stay in order.
    conn.deferred_error = status;
  }
}

void HttpServer::EmitEarlyError(Connection& conn, int status) {
  CountHttpError(status);
  CountStatusClass(status);
  conn.out += EarlyErrorWire(status);
  conn.close_after_flush = true;
}

void HttpServer::PumpDispatch(Connection& conn) {
  if (conn.busy || conn.close_after_flush || conn.ready.empty()) return;
  std::pair<HttpRequest, bool> next = std::move(conn.ready.front());
  conn.ready.pop_front();
  conn.busy = true;
  conn.inflight_close = next.second;
  VGOD_COUNTER_INC("serve.http.requests");
  DispatchItem item;
  item.conn_id = conn.id;
  item.request = std::move(next.first);
  item.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    dispatch_queue_.push_back(std::move(item));
  }
  dispatch_cv_.notify_one();
}

void HttpServer::HandleCompletions() {
  std::vector<Completion> done;
  std::vector<StreamChunk> chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done.swap(completions_);
    chunks.swap(stream_chunks_);
  }
  for (Completion& completion : done) {
    const auto id_it = conn_fd_by_id_.find(completion.conn_id);
    if (id_it == conn_fd_by_id_.end()) continue;  // Connection died.
    const auto it = conns_.find(id_it->second);
    if (it == conns_.end()) continue;
    Connection& conn = it->second;
    conn.busy = false;
    conn.last_active = std::chrono::steady_clock::now();
    if (completion.response.stream) {
      // Install an open-ended stream: the response header goes out
      // without a content-length, the parser retires (this is the
      // connection's last exchange — pipelined stragglers are dropped),
      // and the id joins the PushStream liveness list before the
      // subscription hook runs.
      conn.out += SerializeStreamHeader(completion.response);
      conn.streaming = true;
      conn.parse = Connection::Parse::kDead;
      conn.ready.clear();
      conn.deferred_error = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        live_streams_.push_back(conn.id);
      }
      VGOD_COUNTER_INC("serve.transport.streams_opened");
      if (completion.response.on_stream_open) {
        completion.response.on_stream_open(conn.id);
      }
      Settle(conn);
      continue;
    }
    const bool close = conn.inflight_close;
    conn.out += SerializeResponse(completion.response, close);
    if (close) conn.close_after_flush = true;
    Settle(conn);
  }
  for (StreamChunk& chunk : chunks) {
    const auto id_it = conn_fd_by_id_.find(chunk.conn_id);
    if (id_it == conn_fd_by_id_.end()) continue;  // Already pruned.
    const auto it = conns_.find(id_it->second);
    if (it == conns_.end()) continue;
    Connection& conn = it->second;
    if (!conn.streaming) continue;  // Stream header not installed yet.
    conn.out += std::move(chunk.data);
    conn.last_active = std::chrono::steady_clock::now();
    Settle(conn);
  }
}

bool HttpServer::FlushOut(Connection& conn) {
  while (!conn.out.empty()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<size_t>(n));
      conn.last_active = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // Kernel buffer full; EPOLLOUT resumes the flush.
    }
    CloseConnection(conn.fd);  // Peer reset mid-write.
    return false;
  }
  return true;
}

void HttpServer::Settle(Connection& conn) {
  if (conn.reading_paused && conn.parse != Connection::Parse::kDead &&
      conn.ready.size() < kMaxPipelined) {
    conn.reading_paused = false;
    ParseInput(conn);  // Drain bytes buffered while paused.
  }
  if (conn.deferred_error != 0 && !conn.busy && conn.ready.empty()) {
    EmitEarlyError(conn, conn.deferred_error);
    conn.deferred_error = 0;
  }
  PumpDispatch(conn);
  if (!FlushOut(conn)) return;  // Closed on write failure.
  if (!conn.busy && conn.out.empty() &&
      (conn.close_after_flush ||
       (conn.peer_eof && conn.ready.empty() && conn.deferred_error == 0))) {
    CloseConnection(conn.fd);
    return;
  }
  UpdateInterest(conn);
}

void HttpServer::UpdateInterest(Connection& conn) {
  uint32_t want = 0;
  if (!conn.reading_paused && !conn.peer_eof && !conn.close_after_flush &&
      conn.parse != Connection::Parse::kDead) {
    want |= EPOLLIN;
  }
  // A streaming connection never reads again; EPOLLRDHUP is how the
  // event thread learns the subscriber hung up.
  if (conn.streaming) want |= EPOLLRDHUP;
  if (!conn.out.empty()) want |= EPOLLOUT;
  if (want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = want;
}

void HttpServer::CloseConnection(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second.streaming) {
    std::lock_guard<std::mutex> lock(mu_);
    live_streams_.erase(
        std::remove(live_streams_.begin(), live_streams_.end(),
                    it->second.id),
        live_streams_.end());
  }
  conn_fd_by_id_.erase(it->second.id);
  conns_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  SetOpenConnectionsGauge(conns_.size());
}

void HttpServer::CloseIdleConnections() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    // Streaming connections are intentionally long-lived: their liveness
    // check is the periodic SSE keepalive comment, not the idle sweep.
    if (!conn.streaming && !conn.busy && conn.out.empty() &&
        conn.ready.empty() && now - conn.last_active > limit) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    VGOD_COUNTER_INC("serve.transport.idle_closed");
    CloseConnection(fd);
  }
}

void HttpServer::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    dispatch_cv_.wait(lock, [this] {
      return stop_requested_ || !dispatch_queue_.empty();
    });
    if (stop_requested_) return;  // Connections are gone; drop the queue.
    DispatchItem item = std::move(dispatch_queue_.front());
    dispatch_queue_.pop_front();
    lock.unlock();
    VGOD_HISTOGRAM_OBSERVE("serve.transport.dispatch.seconds",
                           SecondsSince(item.enqueued));
    const uint64_t conn_id = item.conn_id;
    handler_(item.request, [this, conn_id](HttpResponse response) {
      CompleteRequest(conn_id, std::move(response));
    });
    lock.lock();
  }
}

bool HttpServer::PushStream(uint64_t conn_id, std::string data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (retired_ || stop_requested_) return false;
  if (std::find(live_streams_.begin(), live_streams_.end(), conn_id) ==
      live_streams_.end()) {
    return false;
  }
  StreamChunk chunk;
  chunk.conn_id = conn_id;
  chunk.data = std::move(data);
  stream_chunks_.push_back(std::move(chunk));
  // Same wake-under-lock pattern as CompleteRequest: Stop() sets
  // retired_ under mu_ before closing wake_fd_.
  uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  return true;
}

size_t HttpServer::StreamCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_streams_.size();
}

void HttpServer::CompleteRequest(uint64_t conn_id, HttpResponse response) {
  CountStatusClass(response.status);
  std::lock_guard<std::mutex> lock(mu_);
  if (retired_ || stop_requested_) return;  // Transport gone; drop.
  Completion completion;
  completion.conn_id = conn_id;
  completion.response = std::move(response);
  completions_.push_back(std::move(completion));
  // Write under the lock: Stop() closes wake_fd_ only after taking mu_
  // and setting retired_, so this can never hit a recycled fd.
  uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace vgod::serve
