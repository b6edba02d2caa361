// Socket front end for the serving pipeline — length-prefixed wire framing.
//
// Everything before this layer serves requests that originate inside the
// process (the REPL's stdin stream, in-process pipeline callers). The wire
// server puts the pipeline behind a TCP socket so load can be generated
// from OUTSIDE the process (tools/lec_loadgen, or anything that speaks the
// framing below), with the thread split the pipeline was built for:
// per-connection protocol threads parse frames and block on tickets;
// compute stays on the pipeline's worker pool.
//
// Framing — one frame per message, in both directions:
//
//   [u32 little-endian payload length][payload bytes]
//
// A payload is one self-contained serde stream (service/serde.h — text or
// binary, sniffed per frame from the stream header, so a single connection
// may mix encodings):
//
//   request  := header "wirereq"  U64(deadline_budget_micros) ServeRequest
//   response := header "wireresp" U32(ServeStatus) Bool(degraded)
//               Bool(coalesced) Str(error) Bool(has_result)
//               [OptimizeResult if has_result]
//
// `deadline_budget_micros` is RELATIVE (budget from the server's receipt
// of the frame, the only clock both sides share without synchronization);
// kNoDeadline means none. The response mirrors the request's encoding.
// Frames above kMaxFramePayload are rejected without allocation — a
// corrupt length prefix must not look like a 4 GB allocation request.
//
// Error handling: a payload that fails to decode gets a ServeStatus::kError
// response on the same connection — the length prefix keeps the stream in
// sync, so one bad request does not poison the connection. A broken length
// prefix (short read) closes the connection. The serve outcomes themselves
// (rejected/degraded/coalesced) map 1:1 onto the response fields, so a
// remote client observes exactly what an in-process ServeTicket would.
#ifndef LECOPT_SERVICE_WIRE_SERVER_H_
#define LECOPT_SERVICE_WIRE_SERVER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/serde.h"
#include "service/serve_pipeline.h"

namespace lec {

/// Sentinel for "no deadline" on the wire.
inline constexpr uint64_t kNoDeadline = std::numeric_limits<uint64_t>::max();

/// Hard cap on one frame's payload (64 MB — generous for any ServeRequest,
/// small enough that a corrupt prefix cannot drive allocation).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// One decoded request frame.
struct WireRequest {
  serde::ServeRequest request;
  /// Budget relative to receipt, seconds; infinity = none.
  double deadline_budget_seconds = std::numeric_limits<double>::infinity();
  /// Encoding the frame arrived in (responses mirror it).
  serde::Encoding encoding = serde::Encoding::kBinary;
};

/// One response frame, mirroring ServeOutcome across the wire.
struct WireResponse {
  ServeStatus status = ServeStatus::kError;
  bool degraded = false;
  bool coalesced = false;
  std::string error;
  std::optional<OptimizeResult> result;  ///< present iff status == kOk
};

// -- Payload codecs (pure; no sockets) --------------------------------------

std::string EncodeWireRequest(
    const serde::ServeRequest& request,
    double deadline_budget_seconds = std::numeric_limits<double>::infinity(),
    serde::Encoding encoding = serde::Encoding::kBinary);
/// Throws serde::SerdeError on malformed payloads.
WireRequest DecodeWireRequest(std::string_view payload);

std::string EncodeWireResponse(
    const WireResponse& response,
    serde::Encoding encoding = serde::Encoding::kBinary);
/// Throws serde::SerdeError on malformed payloads.
WireResponse DecodeWireResponse(std::string_view payload);

/// ServeOutcome -> response frame (the server's mapping, exposed so tests
/// and the fuzz driver can pin it without a socket).
WireResponse OutcomeToWire(const ServeOutcome& outcome);

// -- Socket framing helpers (POSIX fds) -------------------------------------

/// Reads one [length][payload] frame. Returns false on clean EOF at a
/// frame boundary; throws std::runtime_error on a torn frame, an oversized
/// length, or a socket error.
bool ReadFrame(int fd, std::string* payload);

/// Writes one frame; throws std::runtime_error on error or oversize.
void WriteFrame(int fd, std::string_view payload);

/// TCP server: accept loop + one protocol thread per connection, each
/// feeding `pipeline`. Construction binds/listens/starts; Stop() (or the
/// destructor) closes the listener and every live connection, then joins.
class WireServer {
 public:
  struct Options {
    /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
    uint16_t port = 0;
    int backlog = 64;
  };

  struct Stats {
    size_t connections = 0;      ///< accepted over the server's lifetime
    size_t requests = 0;         ///< frames served (including error replies)
    size_t protocol_errors = 0;  ///< undecodable payloads answered kError
  };

  /// `pipeline` is borrowed and must outlive the server. Throws
  /// std::runtime_error if the socket cannot be bound.
  WireServer(ServePipeline* pipeline, Options options);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// The bound port (resolves ephemeral binds).
  uint16_t port() const { return port_; }

  Stats stats() const;

  /// Idempotent; joins the accept loop and every connection handler.
  void Stop();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  ServePipeline* pipeline_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  mutable std::mutex mu_;
  Stats stats_;
  bool stopping_ = false;
  std::unordered_map<int, std::thread> handlers_;  ///< fd -> protocol thread
  std::vector<std::thread> finished_;  ///< handlers awaiting join
  std::thread accept_thread_;
};

/// Minimal blocking client for the framing above — the loadgen's and the
/// tests' counterpart to WireServer. One connection, sequential calls.
class WireClient {
 public:
  /// Connects to 127.0.0.1:port; throws std::runtime_error on failure.
  explicit WireClient(uint16_t port);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// One request/response round trip. Throws on transport or decode
  /// failure; serve-level failures come back in the response's status.
  WireResponse Call(
      const serde::ServeRequest& request,
      double deadline_budget_seconds = std::numeric_limits<double>::infinity(),
      serde::Encoding encoding = serde::Encoding::kBinary);

  /// Raw frame round trip (tests use this to probe malformed payloads).
  std::string CallRaw(std::string_view payload);

 private:
  int fd_ = -1;
};

}  // namespace lec

#endif  // LECOPT_SERVICE_WIRE_SERVER_H_
