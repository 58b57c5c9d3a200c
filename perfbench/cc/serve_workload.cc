// `serve`: examples/predictor_server --port, started as a child process on
// loopback with 2 pool threads, under a closed loop of 2 TCP connections
// (each sends its next request only after its reply arrived, then thinks
// for an exponentially distributed time of mean kThinkMs). Every request
// is an `eval` of 64 accel::encode_config strings for one zoo network,
// rotating over Vanilla, ResNet-14, ResNet-20 and ResNet-38; half the
// configs come from a per-network hot set (2048 entries in all, below the
// server cache's 8192) and half are fresh, so the memo-cache serves hits
// while it fills and evicts. One step is one request round trip; items are
// configs evaluated, hits included.
#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "accel/config_io.h"
#include "accel/predictor.h"
#include "accel/space.h"
#include "bench.h"
#include "child.h"
#include "nn/zoo.h"
#include "obs/jsonl.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr const char* kNetworks[] = {"Vanilla", "ResNet-14", "ResNet-20",
                                     "ResNet-38"};
constexpr int kNumNetworks = 4;
constexpr int kHotPerNetwork = 512;
constexpr int kHotPerRequest = 32;
constexpr int kFreshPerRequest = 32;
constexpr int kConfigsPerRequest = kHotPerRequest + kFreshPerRequest;
constexpr int kConnections = 2;
// Client think time. Without it the two loops phase-lock into regimes where
// a request does or does not wait behind the other connection's, and the
// regime, and with it the latency median, flips from run to run.
constexpr double kThinkMs = 2.0;
constexpr int kNumChunks = 4;
constexpr int kSpotCheckEvery = 16;  // requests per connection
constexpr int kPredictorSample = 256;

// Requests are generated here and sent as text; the server sees only them.
struct Network {
  std::string name;
  std::vector<nn::LayerSpec> specs;
  accel::AcceleratorSpace space;
  std::vector<std::string> hot;
};

std::vector<Network> make_networks(std::uint64_t seed) {
  std::vector<Network> nets;
  util::Rng rng(derive_seed(seed, 100));
  for (const char* name : kNetworks) {
    auto specs = nn::zoo_model_specs(name, nn::ObsSpec{3, 12, 12}, 4);
    const int groups = nn::num_groups(specs);
    Network n{name, std::move(specs),
              accel::AcceleratorSpace(kNumChunks, groups), {}};
    for (int i = 0; i < kHotPerNetwork; ++i) {
      n.hot.push_back(
          accel::encode_config(n.space.decode(n.space.random_choices(rng))));
    }
    nets.push_back(std::move(n));
  }
  return nets;
}

std::string fresh_config(const Network& n, util::Rng& rng) {
  return accel::encode_config(n.space.decode(n.space.random_choices(rng)));
}

std::string eval_request(const Network& n, const std::vector<std::string>& cfgs,
                         std::int64_t id) {
  std::string line = "{\"op\":\"eval\",\"id\":" + std::to_string(id) +
                     ",\"network\":\"" + n.name + "\",\"configs\":[";
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (i > 0) line += ',';
    line += '"' + cfgs[i] + '"';
  }
  return line + "]}\n";
}

// ----------------------------------------------------------- transport ----

int free_loopback_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    throw std::runtime_error("could not pick a loopback port");
  }
  close(fd);
  return ntohs(addr.sin_port);
}

// One blocking NDJSON connection.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }

  bool connect_to(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
      return false;
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  // Sends one request line and returns its reply line (without '\n').
  std::string round_trip(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send to predictor_server failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        throw std::runtime_error("predictor_server closed the connection");
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Starts a server and waits for its first `ping` reply on a fresh
// connection; retries on another port if the server could not bind.
std::unique_ptr<ChildProcess> start_server(const std::string& path,
                                           int* port_out) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    const int port = free_loopback_port();
    auto server = std::make_unique<ChildProcess>(
        std::vector<std::string>{path, "--port", std::to_string(port),
                                 "--quiet"},
        std::vector<std::string>{"A3CS_THREADS=2"}, /*pipe_stdout=*/false);
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < 20.0 && !server->exited()) {
      Connection probe;
      if (probe.connect_to(port)) {
        if (probe.round_trip("{\"op\":\"ping\"}\n").find("\"ok\":true") ==
            std::string::npos) {
          throw std::runtime_error("predictor_server: bad ping reply");
        }
        *port_out = port;
        return server;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  throw std::runtime_error("predictor_server did not come up");
}

// ------------------------------------------------------------ the loop ----

// Fast checks on a reply line: ok, one result per config, and its dur_ms.
bool reply_ok(const std::string& reply, double* dur_ms) {
  if (reply.rfind("{\"ok\":true", 0) != 0) return false;
  int results = 0;
  for (std::size_t p = reply.find("\"fps\":"); p != std::string::npos;
       p = reply.find("\"fps\":", p + 1)) {
    ++results;
  }
  const std::size_t d = reply.rfind("\"dur_ms\":");
  if (d == std::string::npos) return false;
  *dur_ms = std::strtod(reply.c_str() + d + 9, nullptr);
  return results == kConfigsPerRequest;
}

// One pre-generated request: the closed loop only sends and receives, so
// the client's own work stays off the measured path.
struct Request {
  int network = 0;
  std::string line;
  std::int64_t duplicates = 0;     // hot configs repeated within the batch
  std::vector<std::string> spot;   // 2 hot + 2 fresh configs, by slot below
  std::chrono::microseconds think{0};  // pause after the reply
};
constexpr std::size_t kSpotSlots[] = {0, 1, kHotPerRequest, kHotPerRequest + 1};

// A connection's request stream. The pool is cycled: by the time a fresh
// config comes round again, 2 x kRequestPool x kFreshPerRequest inserts
// (far more than the cache holds) have evicted it, so it is fresh again.
struct Client {
  std::vector<Request> requests;
  std::size_t next = 0;
};
constexpr int kRequestPool = 1024;

Client make_client(const std::vector<Network>& nets, std::uint64_t seed,
                   int conn_index) {
  Client client;
  util::Rng rng(
      derive_seed(seed, 200 + static_cast<std::uint64_t>(conn_index)));
  for (int i = 0; i < kRequestPool; ++i) {
    Request r;
    r.network = (2 * i + conn_index) % kNumNetworks;
    const Network& net = nets[static_cast<std::size_t>(r.network)];
    std::vector<std::string> cfgs;
    for (int k = 0; k < kHotPerRequest; ++k) {
      cfgs.push_back(
          net.hot[static_cast<std::size_t>(rng.uniform_int(kHotPerNetwork))]);
    }
    r.duplicates = kHotPerRequest -
                   static_cast<std::int64_t>(
                       std::set<std::string>(cfgs.begin(), cfgs.end()).size());
    for (int k = 0; k < kFreshPerRequest; ++k) {
      cfgs.push_back(fresh_config(net, rng));
    }
    for (const std::size_t slot : kSpotSlots) r.spot.push_back(cfgs[slot]);
    r.think = std::chrono::microseconds(static_cast<std::int64_t>(
        -1000.0 * kThinkMs * std::log(1.0 - rng.uniform())));
    r.line = eval_request(net, cfgs, i);
    client.requests.push_back(std::move(r));
  }
  return client;
}

struct SpotCheck {
  const Request* request = nullptr;
  std::string reply;
};

struct ClientLog {
  std::vector<double> rtt_ms;  // every request
  std::vector<Mark> marks;     // configs of each successful reply
  std::vector<double> server_ms, transport_ms;  // successful ones
  std::int64_t requests = 0, failed = 0, configs = 0, duplicates = 0;
  std::vector<SpotCheck> spot;
};

void client_loop(int port, Client& client, Clock::time_point t0,
                 double seconds, ClientLog* log) {
  Connection conn;
  if (!conn.connect_to(port)) throw std::runtime_error("connect failed");
  while (seconds_since(t0) < seconds) {
    const Request& req = client.requests[client.next];
    const bool spot_check = client.next % kSpotCheckEvery == 0;
    client.next = (client.next + 1) % client.requests.size();

    std::string reply;
    const Clock::time_point sent = Clock::now();
    {
      ScopedSpan span("serve.request");
      reply = conn.round_trip(req.line);
    }
    const Clock::time_point received = Clock::now();
    const double rtt = ms_between(sent, received);

    double dur_ms = 0.0;
    ++log->requests;
    log->rtt_ms.push_back(rtt);
    if (!reply_ok(reply, &dur_ms)) {
      ++log->failed;
      continue;
    }
    log->server_ms.push_back(dur_ms);
    log->transport_ms.push_back(rtt - dur_ms);
    log->configs += kConfigsPerRequest;
    log->marks.push_back(Mark{ms_between(t0, received) / 1e3,
                              static_cast<double>(kConfigsPerRequest)});
    log->duplicates += req.duplicates;
    if (spot_check) log->spot.push_back(SpotCheck{&req, std::move(reply)});
    std::this_thread::sleep_for(req.think);
  }
}

// Runs one closed-loop thread per client for `seconds`; merged logs.
ClientLog run_clients(int port, std::vector<Client>& clients, double seconds,
                      double* busy_s) {
  std::vector<ClientLog> logs(clients.size());
  std::vector<std::string> errors(clients.size());
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          client_loop(port, clients[c], t0, seconds, &logs[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  *busy_s = seconds_since(t0);
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  ClientLog all;
  for (ClientLog& l : logs) {
    all.rtt_ms.insert(all.rtt_ms.end(), l.rtt_ms.begin(), l.rtt_ms.end());
    all.marks.insert(all.marks.end(), l.marks.begin(), l.marks.end());
    all.server_ms.insert(all.server_ms.end(), l.server_ms.begin(),
                         l.server_ms.end());
    all.transport_ms.insert(all.transport_ms.end(), l.transport_ms.begin(),
                            l.transport_ms.end());
    all.requests += l.requests;
    all.failed += l.failed;
    all.configs += l.configs;
    all.duplicates += l.duplicates;
    for (SpotCheck& s : l.spot) all.spot.push_back(std::move(s));
  }
  return all;
}

// Replies must carry the in-process predictor's exact doubles.
std::int64_t failed_spot_checks(const std::vector<Network>& nets,
                                const std::vector<SpotCheck>& spot) {
  const accel::Predictor predictor;
  std::int64_t failed = 0;
  for (const SpotCheck& s : spot) {
    const Network& net = nets[static_cast<std::size_t>(s.request->network)];
    const obs::JsonValue reply = obs::JsonValue::parse(s.reply);
    const obs::JsonValue* results = reply.find("results");
    bool ok = results != nullptr &&
              results->as_array().size() == kConfigsPerRequest;
    for (std::size_t k = 0; ok && k < s.request->spot.size(); ++k) {
      const accel::HwEval eval = predictor.evaluate(
          net.specs, accel::decode_config(s.request->spot[k]));
      const obs::JsonValue& r = results->as_array()[kSpotSlots[k]];
      ok = r.number_or("fps", -1.0) == eval.fps &&
           r.number_or("cost", -1.0) == predictor.scalar_cost(eval);
    }
    if (!ok) ++failed;
  }
  return failed;
}

struct CacheStats {
  double hits = 0, misses = 0, evictions = 0;
};

CacheStats cache_stats(int port) {
  Connection conn;
  if (!conn.connect_to(port)) throw std::runtime_error("connect failed");
  const obs::JsonValue r =
      obs::JsonValue::parse(conn.round_trip("{\"op\":\"stats\"}\n"));
  return CacheStats{r.number_or("hits", 0.0), r.number_or("misses", 0.0),
                    r.number_or("evictions", 0.0)};
}

// Mean in-process Predictor::evaluate time per config over a sample of the
// request stream, in microseconds.
double predictor_us(const std::vector<Network>& nets, std::uint64_t seed) {
  util::Rng rng(derive_seed(seed, 300));
  std::vector<std::pair<int, accel::AcceleratorConfig>> sample;
  for (int i = 0; i < kPredictorSample; ++i) {
    const int n = i % kNumNetworks;
    const Network& net = nets[static_cast<std::size_t>(n)];
    const std::string& hot =
        net.hot[static_cast<std::size_t>(rng.uniform_int(kHotPerNetwork))];
    sample.emplace_back(
        n, i % 2 == 0 ? accel::decode_config(hot)
                      : net.space.decode(net.space.random_choices(rng)));
  }
  const accel::Predictor predictor;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [n, cfg] : sample) {
    predictor.evaluate(nets[static_cast<std::size_t>(n)].specs, cfg);
  }
  return ms_between(t0, Clock::now()) * 1e3 / kPredictorSample;
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;
  const std::vector<Network> nets = make_networks(opt.seed);

  // Setup: spawn the server until its first ping reply, several times.
  std::vector<double> setup_s;
  std::unique_ptr<ChildProcess> server;
  int port = 0;
  for (int i = 0; i < kSetupLaunches; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = start_server(opt.server_path, &port);
    setup_s.push_back(seconds_since(t0));
  }
  out.metrics["setup_s"] = median(setup_s);

  // Warm the cache with every hot config once (not timed).
  {
    Connection conn;
    if (!conn.connect_to(port)) throw std::runtime_error("connect failed");
    std::int64_t id = 0;
    for (const Network& net : nets) {
      for (int i = 0; i < kHotPerNetwork; i += kConfigsPerRequest) {
        const std::vector<std::string> cfgs(
            net.hot.begin() + i, net.hot.begin() + i + kConfigsPerRequest);
        double dur_ms = 0.0;
        const std::string reply =
            conn.round_trip(eval_request(net, cfgs, --id));
        out.check(reply_ok(reply, &dur_ms), "serve: warm-up request failed");
      }
    }
  }

  std::vector<Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(make_client(nets, opt.seed, c));
  }
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  double busy_s = 0.0;
  const ClientLog timed = run_clients(port, clients, untraced_s, &busy_s);
  add_step_metrics(out, timed.rtt_ms, timed.marks, busy_s);
  const std::int64_t spot_failed = failed_spot_checks(nets, timed.spot);
  out.attempted += timed.requests;
  out.failed += timed.failed + spot_failed;
  out.check(timed.failed == 0, "serve: malformed or failed replies");
  out.check(!timed.spot.empty() && spot_failed == 0,
            "serve: replies differ from in-process Predictor::evaluate");

  if (opt.trace) {
    const CacheStats before = cache_stats(port);
    SpanRecorder::global().enable();
    double traced_busy_s = 0.0;
    const ClientLog traced =
        run_clients(port, clients, opt.seconds / 2, &traced_busy_s);
    SpanRecorder::global().disable();
    const CacheStats after = cache_stats(port);
    SpanRecorder::global().write_chrome_trace(
        opt.work_dir + "/trace-serve-" + std::to_string(opt.seed) + ".json");
    out.attempted += traced.requests;
    out.failed += traced.failed + failed_spot_checks(nets, traced.spot);

    auto& m = out.metrics;
    m["serve.server_ms"] = median(traced.server_ms);
    m["serve.transport_ms"] = median(traced.transport_ms);
    const double hits = after.hits - before.hits;
    const double lookups = hits + (after.misses - before.misses);
    m["serve.cache.hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
    m["serve.cache.evictions"] =
        (after.evictions - before.evictions) /
        static_cast<double>(traced.requests);
    m["serve.dedup_rate"] = traced.configs > 0
                                ? static_cast<double>(traced.duplicates) /
                                      static_cast<double>(traced.configs)
                                : 0.0;
    m["accel.predictor_us"] = predictor_us(nets, opt.seed);
    m["trace.items_per_s"] =
        static_cast<double>(traced.configs) / traced_busy_s;
    m["trace.untraced_items_per_s"] = m["items_per_s_mean"];
  }
  out.metrics["peak_rss_mb"] = peak_rss_mb(server->pid());
  return out;
}

}  // namespace perfbench
