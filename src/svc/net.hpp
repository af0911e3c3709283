// Thin POSIX socket layer for the service: listen/connect on Unix-domain or
// loopback TCP endpoints, and a buffered line connection for the
// newline-delimited JSON protocol.
//
// Endpoint grammar (what tird -listen and tir-submit -connect take):
//
//   unix:/path/to/socket     Unix-domain stream socket at that path
//   tcp:HOST:PORT            TCP; HOST is a dotted IPv4 address, PORT may be
//                            0 when listening (kernel-assigned, reported by
//                            Listener::endpoint())
//
// Everything throws tir::Error with errno text on failure.  Writes use
// MSG_NOSIGNAL so a client that disconnected mid-job surfaces as an error
// return, never as a SIGPIPE kill of the daemon.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

namespace tir::svc {

/// One accepted (or connected) stream socket with buffered line reads.
/// Owned exclusively by one thread for reads; write_line() is atomic at the
/// call level but callers interleaving writers must hold their own lock
/// (the server wraps one mutex per connection).
///
/// Timeouts (off by default): set_timeouts() arms SO_RCVTIMEO/SO_SNDTIMEO
/// and picks what a read timeout means:
///
///   TimeoutMode::MidLine — the server's slow-loris defense: an idle
///     connection may sit quietly forever, but a peer that sent *part* of a
///     line and stalled is cut off (read_line throws).
///   TimeoutMode::Always  — the client's deadline: any read stall throws.
///
/// A write timeout always means the peer stopped draining; write_line
/// reports it as false (peer gone), same as EPIPE.
class LineConn {
 public:
  enum class TimeoutMode { None, MidLine, Always };

  LineConn() = default;
  explicit LineConn(int fd) : fd_(fd) {}
  ~LineConn() { close(); }

  LineConn(LineConn&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)), timeout_mode_(other.timeout_mode_) {
    other.fd_ = -1;
  }
  LineConn& operator=(LineConn&& other) noexcept;
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Arm kernel-level read/write timeouts (milliseconds; <= 0 leaves that
  /// direction unbounded) and the read-timeout semantics above.
  void set_timeouts(int recv_ms, int send_ms, TimeoutMode mode);

  /// Read up to and including the next '\n'; the line is returned without
  /// it.  False on orderly EOF with nothing buffered.  Throws on I/O errors,
  /// on lines longer than `max_line` (a malformed or malicious client), and
  /// on read timeouts per the TimeoutMode.
  bool read_line(std::string& out, std::size_t max_line = 1u << 20);

  /// Write `line` plus '\n'.  False if the peer is gone or stopped draining
  /// (EPIPE/ECONNRESET/send timeout); throws on other errors.
  bool write_line(const std::string& line);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
  TimeoutMode timeout_mode_ = TimeoutMode::None;
};

/// Listening socket for either endpoint flavour.
class Listener {
 public:
  /// Bind + listen.  A unix: path is probed first: if a process still
  /// listens on it, throws ConfigError naming the endpoint; a stale socket
  /// file (from a killed daemon) is unlinked so it cannot block restarts.
  explicit Listener(const std::string& endpoint);
  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one connection; blocks.  Invalid LineConn if the listener was
  /// closed from another thread (the shutdown path).
  LineConn accept();

  /// The resolved endpoint ("tcp:127.0.0.1:37841" after a port-0 bind).
  const std::string& endpoint() const { return endpoint_; }

  void close();

 private:
  /// Written by close() on the shutdown thread while accept() reads it on
  /// the accept thread, hence atomic.
  std::atomic<int> fd_{-1};
  std::string endpoint_;
  std::string unlink_path_;  ///< unix socket file to remove on close
};

/// Connect to a listening daemon.
LineConn dial(const std::string& endpoint);

}  // namespace tir::svc
