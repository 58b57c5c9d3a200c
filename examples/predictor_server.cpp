// predictor_server: the accelerator predictor as a long-lived service.
//
// Speaks newline-delimited JSON (one request per line, one reply line per
// request; see docs/SERVING.md for the op reference) over stdin/stdout and,
// with --port, over TCP to any number of concurrent clients:
//
//   echo '{"op":"eval","network":"ResNet-14","configs":["..."]}' |
//     ./examples/predictor_server
//   ./examples/predictor_server --port 7878   # nc localhost 7878
//
// Single-threaded poll() event loop: client connections multiplex onto one
// thread, and all evaluation parallelism lives inside
// serve::PredictorService (util::ThreadPool — the repo's only sanctioned
// threading layer). Malformed requests get an {"ok":false,...} reply, never
// a crash. SIGINT/SIGTERM drain gracefully: pending replies are flushed,
// then a cache summary goes to stderr. The server runs inside one
// obs::RunScope, so A3CS_TRACE_PATH, A3CS_PROFILE and A3CS_PROFILE_CHROME
// work as for the other entry points (docs/OBSERVABILITY.md).
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "accel/predictor.h"
#include "ckpt/signal.h"
#include "obs/run_scope.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/config.h"
#include "util/thread_pool.h"

using namespace a3cs;

namespace {

// A misbehaving client gets disconnected rather than buffering unbounded
// replies: one request line is capped by serve::LineBuffer, and a reader
// that never drains its replies is cut off at this many pending bytes.
constexpr std::size_t kMaxPendingOut = 4u << 20;  // 4 MiB

struct Connection {
  int fd = -1;
  bool is_stdin = false;
  serve::LineBuffer in;  // bounded line assembly (oversized lines dropped)
  std::string out;       // reply bytes not yet written
  bool closed = false;
};

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Writes as much pending output as the fd accepts right now.
void flush_pending(Connection& c) {
  while (!c.out.empty()) {
    const ssize_t n =
        c.is_stdin
            ? write(STDOUT_FILENO, c.out.data(), c.out.size())
            : send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;  // a signal is not a dead peer
    // EPIPE/ECONNRESET (SIGPIPE is ignored process-wide) or EOF: the peer
    // went away; drop the rest.
    c.closed = true;
    return;
  }
}

struct Server {
  serve::PredictorService& service;
  serve::NetworkRegistry& registry;
  bool quiet = false;
  std::int64_t requests = 0;

  void handle_lines(Connection& c) {
    std::string line;
    while (c.in.next_line(&line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      const auto t0 = std::chrono::steady_clock::now();
      c.out += serve::handle_request_line(service, registry, line);
      c.out += '\n';
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      ++requests;
      if (!quiet) {
        std::fprintf(stderr, "[predictor_server] request %lld: %.3f ms\n",
                     static_cast<long long>(requests), ms);
      }
    }
    if (c.in.take_overflow()) {
      c.out +=
          "{\"ok\":false,\"error\":\"request line exceeded " +
          std::to_string(c.in.max_line_bytes()) + " bytes and was dropped\"}\n";
      if (!quiet) {
        std::fprintf(stderr, "[predictor_server] oversized request line "
                             "dropped\n");
      }
    }
    if (!c.is_stdin && c.out.size() > kMaxPendingOut) {
      // Slow reader: it is not draining replies; cut it off instead of
      // growing the output buffer without bound.
      if (!quiet) {
        std::fprintf(stderr, "[predictor_server] client too slow (%zu "
                             "pending bytes), disconnecting\n", c.out.size());
      }
      c.closed = true;
    }
  }
};

void print_cache_summary(const serve::PredictorService& service) {
  const serve::MemoCache::Stats s = service.cache().stats();
  std::fprintf(stderr,
               "[predictor_server] cache: hits=%lld misses=%lld "
               "(hit rate %.1f%%) inserts=%lld evictions=%lld "
               "occupancy=%lld/%lld\n",
               static_cast<long long>(s.hits),
               static_cast<long long>(s.misses), 100.0 * s.hit_rate(),
               static_cast<long long>(s.inserts),
               static_cast<long long>(s.evictions),
               static_cast<long long>(s.size),
               static_cast<long long>(s.capacity));
}

}  // namespace

int main(int argc, char** argv) try {
  // Every knob the server reads, before it serves anything.
  // A3CS_TRACE_PATH=... records one "serve_batch" JSONL event per eval
  // request, summarized by examples/trace_report.
  (void)obs::ObsConfig{}.with_env_overrides();
  const serve::CacheConfig cache_cfg =
      serve::CacheConfig{}.with_env_overrides();
  (void)util::ExecConfig{}.with_env_overrides();

  int port = -1;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<int>(util::parse_int(arg, argv[++i], 0, 65535));
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "usage: %s [--port N] [--quiet]\n", argv[0]);
      return 2;
    }
  }

  // Replies to stdout (and racing TCP peers) must surface as EPIPE on the
  // write, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  const obs::RunScope scope(obs::ObsConfig{}, "serve");

  accel::Predictor predictor;
  serve::PredictorService service(predictor, cache_cfg);
  serve::NetworkRegistry registry(service);
  Server server{service, registry, quiet};

  int listen_fd = -1;
  if (port >= 0) {
    listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      std::perror("[predictor_server] socket");
      return 1;
    }
    const int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        listen(listen_fd, 16) < 0) {
      std::perror("[predictor_server] bind/listen");
      return 1;
    }
    set_nonblocking(listen_fd);
    if (!quiet) {
      std::fprintf(stderr, "[predictor_server] listening on 127.0.0.1:%d\n",
                   port);
    }
  }

  std::vector<Connection> conns;
  {
    Connection c;
    c.fd = STDIN_FILENO;
    c.is_stdin = true;
    conns.push_back(std::move(c));
  }
  set_nonblocking(STDIN_FILENO);

  ckpt::StopSignalGuard guard;
  bool stdin_open = true;
  while (!ckpt::stop_requested()) {
    // Exit once every input source is gone and every reply is flushed.
    bool pending_out = false;
    for (const Connection& c : conns) {
      if (!c.closed && !c.out.empty()) pending_out = true;
    }
    const bool any_client =
        conns.size() > 1 &&
        std::any_of(conns.begin() + 1, conns.end(),
                    [](const Connection& c) { return !c.closed; });
    if (!stdin_open && listen_fd < 0 && !any_client && !pending_out) break;

    std::vector<pollfd> fds;
    std::vector<std::size_t> conn_of;  // pollfd index -> conns index
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if (c.closed || (c.is_stdin && !stdin_open && c.out.empty())) continue;
      pollfd p{};
      p.fd = c.fd;
      if (!(c.is_stdin && !stdin_open)) p.events |= POLLIN;
      if (!c.out.empty()) p.events |= POLLOUT;
      if (c.is_stdin && !c.out.empty()) {
        // Replies for the stdin client go to stdout, a different fd; poll
        // stdout for writability instead.
        p.fd = STDOUT_FILENO;
        p.events = POLLOUT;
      }
      fds.push_back(p);
      conn_of.push_back(i);
    }
    if (listen_fd >= 0) {
      pollfd p{};
      p.fd = listen_fd;
      p.events = POLLIN;
      fds.push_back(p);
    }
    if (fds.empty()) break;

    // 200 ms timeout so SIGINT/SIGTERM are noticed promptly even when idle.
    const int rc = poll(fds.data(), fds.size(), 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      std::perror("[predictor_server] poll");
      break;
    }

    for (std::size_t pi = 0; pi < conn_of.size(); ++pi) {
      Connection& c = conns[conn_of[pi]];
      const short revents = fds[pi].revents;
      if (revents & (POLLOUT)) flush_pending(c);
      // Read on POLLHUP/POLLERR too: a pipe whose writer closed after we
      // drained it reports POLLHUP *without* POLLIN, and only the read()
      // returning 0 tells us it is EOF.
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[4096];
        for (;;) {
          const ssize_t n = read(c.fd, buf, sizeof(buf));
          if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          if (c.is_stdin) {
            stdin_open = false;
          } else {
            c.closed = true;
          }
          break;
        }
        server.handle_lines(c);
        flush_pending(c);
      }
      if (!c.is_stdin && (revents & (POLLERR | POLLHUP)) && c.out.empty()) {
        c.closed = true;
      }
      if (c.closed && c.fd >= 0 && !c.is_stdin) {
        close(c.fd);
        c.fd = -1;
      }
    }

    if (listen_fd >= 0 && fds.back().revents & POLLIN) {
      for (;;) {
        const int client = accept(listen_fd, nullptr, nullptr);
        if (client < 0) break;
        set_nonblocking(client);
        Connection c;
        c.fd = client;
        conns.push_back(std::move(c));
        if (!quiet) {
          std::fprintf(stderr, "[predictor_server] client connected\n");
        }
      }
    }
  }

  // Graceful drain: give every live connection one last chance to take its
  // buffered replies, then summarize and exit 0.
  for (Connection& c : conns) {
    if (!c.closed) flush_pending(c);
    if (c.fd >= 0 && !c.is_stdin) close(c.fd);
  }
  if (listen_fd >= 0) close(listen_fd);
  if (ckpt::stop_requested() && !quiet) {
    std::fprintf(stderr, "[predictor_server] stop requested, draining\n");
  }
  if (!quiet) {
    std::fprintf(stderr, "[predictor_server] served %lld request(s)\n",
                 static_cast<long long>(server.requests));
    print_cache_summary(service);
  }
  return 0;
} catch (const util::InputError& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
