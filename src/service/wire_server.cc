#include "service/wire_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace lec {

namespace {

/// Micros <-> seconds for the wire's relative deadline budget. The wire
/// carries integer microseconds so both encodings serialize it exactly;
/// sub-microsecond budget resolution is far below scheduling noise.
uint64_t BudgetToMicros(double seconds) {
  if (!std::isfinite(seconds)) return kNoDeadline;
  if (seconds <= 0) return 0;
  double micros = seconds * 1e6;
  if (micros >= static_cast<double>(kNoDeadline)) return kNoDeadline - 1;
  return static_cast<uint64_t>(std::llround(micros));
}

double MicrosToBudget(uint64_t micros) {
  if (micros == kNoDeadline) return std::numeric_limits<double>::infinity();
  return static_cast<double>(micros) * 1e-6;
}

/// read() to completion, tolerating EINTR and short reads. Returns the
/// byte count actually read (< n only on EOF); throws on socket errors.
size_t ReadFully(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("socket read failed: ") +
                               std::strerror(errno));
    }
    if (r == 0) break;  // EOF
    got += static_cast<size_t>(r);
  }
  return got;
}

void WriteFully(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::write(fd, buf + sent, n - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("socket write failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<size_t>(w);
  }
}

ServeStatus StatusFromWire(uint32_t raw) {
  switch (raw) {
    case 0:
      return ServeStatus::kOk;
    case 1:
      return ServeStatus::kRejected;
    case 2:
      return ServeStatus::kShutdown;
    case 3:
      return ServeStatus::kError;
    default:
      throw serde::SerdeError("wireresp: unknown ServeStatus " +
                              std::to_string(raw));
  }
}

}  // namespace

// -- Payload codecs ----------------------------------------------------------

std::string EncodeWireRequest(const serde::ServeRequest& request,
                              double deadline_budget_seconds,
                              serde::Encoding encoding) {
  std::string out;
  serde::Writer w(&out, encoding);
  w.Tag("wirereq");
  w.U64(BudgetToMicros(deadline_budget_seconds));
  serde::Write(w, request);
  return out;
}

WireRequest DecodeWireRequest(std::string_view payload) {
  serde::Reader r(payload);
  r.ExpectTag("wirereq");
  WireRequest wire;
  wire.encoding = r.encoding();
  wire.deadline_budget_seconds = MicrosToBudget(r.U64());
  wire.request = serde::ReadServeRequest(r);
  return wire;
}

std::string EncodeWireResponse(const WireResponse& response,
                               serde::Encoding encoding) {
  std::string out;
  serde::Writer w(&out, encoding);
  w.Tag("wireresp");
  w.U32(static_cast<uint32_t>(response.status));
  w.Bool(response.degraded);
  w.Bool(response.coalesced);
  w.Str(response.error);
  w.Bool(response.result.has_value());
  if (response.result) serde::Write(w, *response.result);
  return out;
}

WireResponse DecodeWireResponse(std::string_view payload) {
  serde::Reader r(payload);
  r.ExpectTag("wireresp");
  WireResponse wire;
  wire.status = StatusFromWire(r.U32());
  wire.degraded = r.Bool();
  wire.coalesced = r.Bool();
  wire.error = r.Str();
  if (r.Bool()) wire.result = serde::ReadOptimizeResult(r);
  return wire;
}

WireResponse OutcomeToWire(const ServeOutcome& outcome) {
  WireResponse wire;
  wire.status = outcome.status;
  wire.degraded = outcome.degraded;
  wire.coalesced = outcome.coalesced;
  wire.error = outcome.error;
  if (outcome.status == ServeStatus::kOk) wire.result = outcome.result;
  return wire;
}

// -- Framing -----------------------------------------------------------------

bool ReadFrame(int fd, std::string* payload) {
  char prefix[4];
  size_t got = ReadFully(fd, prefix, sizeof(prefix));
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got < sizeof(prefix)) {
    throw std::runtime_error("torn frame: EOF inside length prefix");
  }
  uint32_t len = static_cast<uint32_t>(static_cast<unsigned char>(prefix[0])) |
                 static_cast<uint32_t>(static_cast<unsigned char>(prefix[1]))
                     << 8 |
                 static_cast<uint32_t>(static_cast<unsigned char>(prefix[2]))
                     << 16 |
                 static_cast<uint32_t>(static_cast<unsigned char>(prefix[3]))
                     << 24;
  if (len > kMaxFramePayload) {
    throw std::runtime_error("frame payload of " + std::to_string(len) +
                             " bytes exceeds kMaxFramePayload");
  }
  payload->resize(len);
  if (ReadFully(fd, payload->data(), len) < len) {
    throw std::runtime_error("torn frame: EOF inside payload");
  }
  return true;
}

void WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::runtime_error("refusing to write frame above kMaxFramePayload");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  // One write() per frame: a separate prefix write would leave the payload
  // segment Nagle-delayed behind the peer's delayed ACK (~40 ms per frame
  // on loopback), which is the whole request latency at serving rates.
  std::string frame;
  frame.reserve(sizeof(len) + payload.size());
  frame.push_back(static_cast<char>(len & 0xff));
  frame.push_back(static_cast<char>((len >> 8) & 0xff));
  frame.push_back(static_cast<char>((len >> 16) & 0xff));
  frame.push_back(static_cast<char>((len >> 24) & 0xff));
  frame.append(payload);
  WriteFully(fd, frame.data(), frame.size());
}

// Belt to the single-write suspenders: no small-segment coalescing delay
// on request/response sockets — frames are self-contained messages.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// -- WireServer --------------------------------------------------------------

WireServer::WireServer(ServePipeline* pipeline, Options options)
    : pipeline_(pipeline) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, options.backlog) < 0) {
    int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("bind/listen failed: ") +
                             std::strerror(err));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

WireServer::~WireServer() { Stop(); }

void WireServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed or broken — Stop() is responsible
    }
    ++stats_.connections;
    SetNoDelay(fd);
    handlers_.emplace(fd, std::thread([this, fd] { HandleConnection(fd); }));
  }
}

void WireServer::HandleConnection(int fd) {
  try {
    std::string payload;
    while (ReadFrame(fd, &payload)) {
      WireResponse response;
      serde::Encoding encoding = serde::Encoding::kText;
      try {
        WireRequest wire = DecodeWireRequest(payload);
        encoding = wire.encoding;
        ServeTicket ticket =
            pipeline_->Submit(wire.request, wire.deadline_budget_seconds);
        response = OutcomeToWire(ticket.Wait());
      } catch (const serde::SerdeError& e) {
        // The length prefix kept the stream in sync; answer the error and
        // keep the connection alive for the next frame.
        response.status = ServeStatus::kError;
        response.error = std::string("malformed request: ") + e.what();
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.protocol_errors;
      }
      WriteFrame(fd, EncodeWireResponse(response, encoding));
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
    }
  } catch (const std::exception&) {
    // Torn frame or socket error: drop the connection, keep the server up.
  }
  // Reap under the lock: close(fd) and the map erase are atomic together,
  // so Stop() can never shutdown() a recycled descriptor number.
  std::lock_guard<std::mutex> lock(mu_);
  ::close(fd);
  auto it = handlers_.find(fd);
  if (it != handlers_.end()) {
    finished_.push_back(std::move(it->second));
    handlers_.erase(it);
  }
}

void WireServer::Stop() {
  // Claim the accept thread under the lock so concurrent Stop() calls
  // join disjoint handles; the listener fd is only shutdown() here and
  // close()d after the accept thread joins, so AcceptLoop never races a
  // recycled descriptor number.
  std::thread accept_thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    // Unblock every handler parked in read(); they reap themselves.
    for (auto& [fd, thread] : handlers_) ::shutdown(fd, SHUT_RDWR);
    accept_thread.swap(accept_thread_);
  }
  if (accept_thread.joinable()) {
    accept_thread.join();
    std::lock_guard<std::mutex> lock(mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  for (;;) {
    std::vector<std::thread> to_join;
    bool live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      to_join.swap(finished_);
      live = !handlers_.empty();
    }
    for (std::thread& t : to_join) t.join();
    if (!live && to_join.empty()) return;
    if (live) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

WireServer::Stats WireServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// -- WireClient --------------------------------------------------------------

WireClient::WireClient(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("connect() failed: ") +
                             std::strerror(err));
  }
  SetNoDelay(fd_);
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

WireResponse WireClient::Call(const serde::ServeRequest& request,
                              double deadline_budget_seconds,
                              serde::Encoding encoding) {
  return DecodeWireResponse(
      CallRaw(EncodeWireRequest(request, deadline_budget_seconds, encoding)));
}

std::string WireClient::CallRaw(std::string_view payload) {
  WriteFrame(fd_, payload);
  std::string response;
  if (!ReadFrame(fd_, &response)) {
    throw std::runtime_error("server closed the connection mid-call");
  }
  return response;
}

}  // namespace lec

