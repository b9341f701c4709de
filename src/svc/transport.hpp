// Byte-stream transport for svc frames: socketpairs for locally spawned
// workers, localhost TCP for attached ones. Both endpoints are plain file
// descriptors, so one Connection type serves every transport.
//
// Two read models share the same wire format:
//   - Workers block: recv_frame() reads header, payload, trailer.
//   - The coordinator multiplexes: fds are non-blocking, pump() drains
//     whatever the kernel has into a per-connection buffer, and
//     next_frame() peels complete frames off it.
//
// All writes go through ::send with MSG_NOSIGNAL, so a dead peer surfaces
// as an error return instead of SIGPIPE.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace bgpsim::svc {

/// One framed, bidirectional byte stream. Owns the fd.
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) : fd_{fd} {}
  ~Connection() { close(); }
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();

  /// Switch the fd to non-blocking mode (coordinator side).
  void set_nonblocking();

  /// Encode and write a whole frame. Returns false if the peer is gone
  /// (EPIPE/ECONNRESET); throws std::runtime_error on other I/O errors.
  bool send_frame(const Frame& frame);

  /// Blocking read of one frame (worker side). Returns nullopt on clean
  /// EOF at a frame boundary; throws snap::FormatError on a malformed
  /// frame or mid-frame EOF, std::runtime_error on I/O errors.
  [[nodiscard]] std::optional<Frame> recv_frame();

  /// Non-blocking drain (coordinator side, after the event loop reported
  /// readability). Appends available bytes to the internal buffer.
  enum class Pump { kOk, kEof, kClosed };
  Pump pump();

  /// Extract the next complete frame from the buffer, if any. Throws
  /// snap::FormatError on malformed bytes (the caller should drop the
  /// connection: a corrupt stream cannot be resynchronized).
  [[nodiscard]] std::optional<Frame> next_frame();

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> inbuf_;
};

/// A connected socketpair: one end for the coordinator, one for a worker
/// child process.
struct SocketPair {
  Connection coordinator;
  Connection worker;
};
[[nodiscard]] SocketPair make_socketpair();

/// Listening TCP socket bound to 127.0.0.1 (campaigns are a localhost
/// scale-out; cross-host transport would need authentication first).
class TcpListener {
 public:
  /// Bind and listen; port 0 picks an ephemeral port.
  static TcpListener bind_localhost(std::uint16_t port);

  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The listening fd, for callers that multiplex accepts through their
  /// own event loop (svcd) or must close the listener in a forked child.
  [[nodiscard]] int fd() const { return fd_; }

  /// Accept one connection; timeout_ms < 0 waits forever. Returns an
  /// invalid Connection on timeout.
  [[nodiscard]] Connection accept_one(int timeout_ms);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connect to a coordinator's TCP listener on 127.0.0.1.
[[nodiscard]] Connection connect_localhost(std::uint16_t port);

}  // namespace bgpsim::svc
