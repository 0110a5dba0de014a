// ControlEndpoint — line-oriented local control socket (serve layer;
// docs/ARCHITECTURE.md §7).
//
// `dtm_sim serve` listens on an AF_UNIX stream socket so a live service
// can be observed and steered without signals or restarts:
//
//   $ echo stats | nc -U /tmp/dtm.sock        # one JSON metrics snapshot
//   $ echo 'fault drop=0.05,jitter=4' | nc -U /tmp/dtm.sock
//   $ echo 'fault none' | nc -U /tmp/dtm.sock # calm the chaos back down
//   $ echo drain | nc -U /tmp/dtm.sock        # graceful drain
//
// The endpoint is deliberately dumb: non-blocking accept/read, one command
// per line, one response line per command, no threads. The serve loop
// calls poll() between pump() slices, so command handling interleaves with
// simulation at window granularity and never races engine state. Command
// *semantics* live in the caller's handler (tools/dtm_sim.cpp); this
// class only moves bytes.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace dtm {

class ControlEndpoint {
 public:
  /// Binds and listens on `path` (an existing socket file there is
  /// replaced). Throws CheckError on any socket failure.
  explicit ControlEndpoint(std::string path);
  ~ControlEndpoint();

  ControlEndpoint(const ControlEndpoint&) = delete;
  ControlEndpoint& operator=(const ControlEndpoint&) = delete;

  /// Maps one command line (trimmed, no newline) to one response string
  /// (a newline is appended on the wire).
  using Handler = std::function<std::string(const std::string&)>;

  /// Accepts pending connections and processes every complete line
  /// buffered so far; never blocks. Returns the number of commands
  /// handled.
  int poll(const Handler& handler);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct Conn {
    int fd = -1;
    std::string buf;
  };

  std::string path_;
  int listen_fd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace dtm
