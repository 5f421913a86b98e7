// The served-evaluation path: a `dvfc serve --socket` daemon with two
// workers, driven as a closed loop over two connections by one client
// thread.
//
// Each pass is 32 slots; a slot sends one request on each connection at the
// same moment and waits for both replies. A pass holds 64 requests: 10
// fresh sources (a cold compile each), 34 repeats of the hot set (cache
// hits), 16 hash-only requests for hot sources, and 2 slots that send one
// fresh source on both connections at once. These shares are an assumed
// mix, not taken from any deployment: each kind of request is there to
// load its own part of the daemon (front end, evaluation and transport,
// hash lookup, the compile race). The hot set is models/*.aspen
// plus 59 generated models, visited in rotation (34 per pass), so at most
// 36 fresh sources arrive between two uses of a hot source and the daemon's
// 256-entry cache never evicts one: every hash-only request finds its entry.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "corpus.hpp"
#include "dvf/analysis/ir.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/serve/engine.hpp"
#include "dvf/serve/protocol.hpp"
#include "json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace dvfbench {

namespace {

constexpr std::size_t kHotGenerated = 59;
constexpr std::uint64_t kFreshBase = 1000000;
constexpr int kSlotsPerPass = 32;
constexpr int kPassesPerUnit = 8;

/// Hot set and fresh-source supply for one seed.
class Corpus {
 public:
  explicit Corpus(const Options& options) : seed_(options.seed) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.repo + "/models")) {
      if (entry.path().extension() == ".aspen") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      std::stringstream text;
      text << in.rdbuf();
      ModelSource model;
      model.source = text.str();
      model.model_name = path.stem().string();
      hot_.push_back(std::move(model));
    }
    if (hot_.empty()) {
      throw std::runtime_error("no models/*.aspen under " + options.repo);
    }
    for (std::uint64_t i = 0; i < kHotGenerated; ++i) {
      hot_.push_back(generate_model(seed_, i));
    }
  }

  [[nodiscard]] const std::vector<ModelSource>& hot() const { return hot_; }
  /// A source no earlier request carried.
  ModelSource fresh() { return generate_model(seed_, kFreshBase + fresh_count_++); }

 private:
  std::uint64_t seed_;
  std::vector<ModelSource> hot_;
  std::uint64_t fresh_count_ = 0;
};

std::string eval_source_request(std::uint64_t id, const std::string& source) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"eval\",\"source\":" +
         json_quote(source) + "}";
}

std::string eval_hash_request(std::uint64_t id, const std::string& hash) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"eval\",\"hash\":" +
         json_quote(hash) + "}";
}

/// The `dvfc serve` child process. The destructor stops and reaps it.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& socket_path,
         const std::string& trace_path) {
    std::vector<std::string> args = {options.dvfc, "serve", "--socket",
                                     socket_path, "--workers", "2"};
    if (!trace_path.empty()) {
      args.push_back("--trace=" + trace_path);
      args.push_back("--metrics=json");
    }
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const std::string log = options.workdir + "/serve.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, options.dvfc.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + options.dvfc + " (log " +
                               log + "): " + std::strerror(rc));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }

  /// SIGTERM (graceful drain), then SIGKILL if the drain overruns 20 s.
  /// Returns the exit status, or -1 when it had to be killed.
  int stop() {
    if (pid_ <= 0) {
      return status_;
    }
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        return status_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
    status_ = -1;
    return status_;
  }

 private:
  pid_t pid_ = -1;
  int status_ = -1;
};

/// One client connection: blocking writes, line-framed reads.
class Connection {
 public:
  explicit Connection(const std::string& path, double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (true) {
      fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        return;
      }
      close(fd_);
      fd_ = -1;
      if (now_s() > deadline) {
        throw std::runtime_error("cannot connect to " + path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~Connection() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send_line(const std::string& line) {
    std::string frame = line + "\n";
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = write(fd_, frame.data() + off, frame.size() - off);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("write to daemon failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available; returns false on EOF or error.
  bool pump() {
    char buf[65536];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      return true;
    }
    if (n <= 0) {
      return false;
    }
    buffer_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  /// Pops one complete line if buffered.
  std::optional<std::string> pop_line() {
    const std::size_t nl = buffer_.find('\n');
    if (nl == std::string::npos) {
      return std::nullopt;
    }
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

  [[nodiscard]] bool buffered() const { return !buffer_.empty(); }

  /// Non-blocking read: 1 when bytes arrived, 0 when none were waiting, -1
  /// on EOF or error.
  int try_pump() {
    char buf[65536];
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      return 1;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return 0;
    }
    return -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Sends `a` on `ca` and `b` on `cb` together and waits for one reply line
/// on each. Round trips are stored in microseconds. The client spins on
/// non-blocking reads instead of sleeping in poll(), so its own wake-up
/// latency stays out of the measured round trip.
void exchange(Connection& ca, Connection& cb, const std::string& a,
              const std::string& b, std::string& reply_a, std::string& reply_b,
              double& rtt_a, double& rtt_b) {
  const double t0 = now_s();
  ca.send_line(a);
  const double t1 = now_s();
  cb.send_line(b);
  bool have_a = false;
  bool have_b = false;
  const auto poll_one = [](Connection& c, bool& have, std::string& reply,
                           double& rtt, double sent) {
    if (have) {
      return;
    }
    if (c.try_pump() < 0) {
      throw std::runtime_error("daemon closed the connection");
    }
    if (auto line = c.pop_line()) {
      rtt = (now_s() - sent) * 1e6;
      reply = std::move(*line);
      have = true;
    }
  };
  for (std::uint64_t spins = 1; !have_a || !have_b; ++spins) {
    poll_one(ca, have_a, reply_a, rtt_a, t0);
    poll_one(cb, have_b, reply_b, rtt_b, t1);
    if (spins % 4096 == 0 && now_s() - t0 > 30.0) {
      throw std::runtime_error("daemon stopped answering");
    }
  }
}

enum class Kind { kFresh, kHot, kHash };

struct Request {
  Kind kind = Kind::kHot;
  std::uint64_t id = 0;
  std::size_t hot = 0;        ///< hot-set index (kHot, kHash)
  std::size_t fresh = 0;      ///< index into the pass's fresh models
  std::string line;
  std::string reply;
  double rtt_us = 0.0;
};

/// Checks one pass's replies: a reply that is not `ok` counts as a failed
/// request and, like a wrong id, wrong numbers or differing results, marks
/// the run incorrect. Round trips are split by the reply's `cache` field.
void check_pass(std::vector<Request>& pass, const std::vector<ModelSource>& fresh,
                const Corpus& corpus, const std::vector<std::string>& baseline,
                RunResult& result, std::vector<double>& hits,
                std::vector<double>& misses) {
  std::map<std::size_t, const Request*> first_fresh;
  for (Request& r : pass) {
    const std::optional<JsonValue> reply = parse_json(r.reply);
    if (!reply) {
      result.fail("unparsable reply to request " + std::to_string(r.id));
      continue;
    }
    const JsonValue* ok = reply->get("ok");
    if (ok != nullptr && ok->kind == JsonValue::Kind::kBool && !ok->boolean) {
      // Every request of the mix is valid and the daemon's queue is never
      // full, so a shed or rejected request is a wrong answer.
      ++result.failed;
      result.fail("request " + std::to_string(r.id) + " was refused: " + r.reply);
      continue;
    }
    if (std::string why = check_ok_response(*reply, r.id); !why.empty()) {
      result.fail(why);
      continue;
    }
    const JsonValue* cache = reply->get("cache");
    const bool hit = cache != nullptr && cache->text == "hit";
    (hit ? hits : misses).push_back(r.rtt_us);
    const ModelSource& model =
        r.kind == Kind::kFresh ? fresh[r.fresh] : corpus.hot()[r.hot];
    if (std::string why = check_model_results(*reply, model); !why.empty()) {
      result.fail(why);
    }
    if (r.kind != Kind::kFresh) {
      if (std::string why = check_same_results(baseline[r.hot], r.reply);
          !why.empty()) {
        result.fail(model.model_name + ": " + why);
      }
    } else if (auto it = first_fresh.find(r.fresh); it != first_fresh.end()) {
      if (std::string why = check_same_results(it->second->reply, r.reply);
          !why.empty()) {
        result.fail(model.model_name + ": " + why);
      }
    } else {
      first_fresh[r.fresh] = &r;
    }
  }
}

std::uint64_t counter_of(const std::string& metrics_reply, const char* name) {
  const std::optional<JsonValue> reply = parse_json(metrics_reply);
  const JsonValue* metrics = reply ? reply->get("metrics") : nullptr;
  const JsonValue* counters = metrics ? metrics->get("counters") : nullptr;
  const JsonValue* value = counters ? counters->get(name) : nullptr;
  return value != nullptr && value->is_number()
             ? static_cast<std::uint64_t>(value->number)
             : 0;
}

/// Median duration in microseconds of the daemon's `serve.request` spans in
/// its Chrome trace.
double median_request_span_us(const std::string& trace_path) {
  std::ifstream in(trace_path);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<JsonValue> trace = parse_json(text.str());
  const JsonValue* events = trace ? trace->get("traceEvents") : nullptr;
  std::vector<double> durations;
  if (events != nullptr) {
    for (const JsonValue& e : events->items) {
      const JsonValue* name = e.get("name");
      const JsonValue* dur = e.get("dur");
      if (name != nullptr && name->text == "serve.request" && dur != nullptr) {
        durations.push_back(dur->number);
      }
    }
  }
  return median(durations);
}

}  // namespace

struct ServePath::Impl {
  Impl(const Options& o, bool traced)
      : options(o),
        corpus(o),
        socket_path(o.workdir + "/serve.sock"),
        trace_path(traced ? o.workdir + "/serve_trace.json" : ""),
        rng(o.seed ^ 0xC0FFEEull) {
    std::filesystem::remove(socket_path);
    if (traced) {
      std::filesystem::remove(trace_path);
    }
    daemon = std::make_unique<Daemon>(options, socket_path, trace_path);
    ca = std::make_unique<Connection>(socket_path, 20.0);
    cb = std::make_unique<Connection>(socket_path, 20.0);
    ca->send_line("{\"id\":0,\"op\":\"ping\"}");
    while (!ca->pop_line()) {
      if (!ca->pump()) {
        throw std::runtime_error("daemon closed the connection before the ping");
      }
    }
  }

  /// One pass of 64 requests; returns its timed seconds.
  double pass(RunResult& result, bool measured);

  Options options;
  Corpus corpus;
  std::string socket_path;
  std::string trace_path;
  // The daemon is declared first so the connections close before it stops.
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Connection> ca;
  std::unique_ptr<Connection> cb;
  std::uint64_t next_id = 1;
  std::vector<std::string> baseline;  ///< first reply per hot source
  std::vector<std::string> hashes;    ///< canonical hash per hot source
  Rng rng;
  std::size_t hot_cursor = 0;
  std::size_t hash_cursor = 0;
  std::uint64_t distinct_sources = 0;  ///< hot set + fresh sources sent
  std::uint64_t duplicate_pairs = 0;   ///< fresh sources sent on both connections

  std::vector<double> pass_req_s;
  std::vector<double> pass_hit_p50;
  std::vector<double> pass_miss_p50;
  std::vector<double> rtt_us;  ///< every measured request
  std::string metrics_reply;   ///< the daemon's `metrics` answer at the end
  double rss_mib = 0.0;
};

double ServePath::Impl::pass(RunResult& result, bool measured) {
  // Compose the pass (untimed): 60 single requests, shuffled, plus two
  // duplicate fresh pairs at random slots.
  const std::vector<ModelSource>& hot = corpus.hot();
  std::vector<ModelSource> fresh;
  std::vector<Request> singles;
  const auto add = [&singles](Kind kind, std::size_t hot_index,
                              std::size_t fresh_index) {
    Request r;
    r.kind = kind;
    r.hot = hot_index;
    r.fresh = fresh_index;
    singles.push_back(r);
  };
  for (int i = 0; i < 10; ++i) {
    add(Kind::kFresh, 0, fresh.size());
    fresh.push_back(corpus.fresh());
  }
  for (int i = 0; i < 34; ++i) {
    add(Kind::kHot, hot_cursor++ % hot.size(), 0);
  }
  for (int i = 0; i < 16; ++i) {
    add(Kind::kHash, (hash_cursor++ * 7) % hot.size(), 0);
  }
  for (std::size_t i = singles.size(); i > 1; --i) {
    std::swap(singles[i - 1], singles[rng.below(i)]);
  }
  const std::size_t dup1 = rng.below(kSlotsPerPass);
  std::size_t dup2 = rng.below(kSlotsPerPass - 1);
  dup2 += dup2 >= dup1 ? 1 : 0;
  std::vector<Request> requests;
  std::size_t next_single = 0;
  for (std::size_t slot = 0; slot < kSlotsPerPass; ++slot) {
    if (slot == dup1 || slot == dup2) {
      Request r;
      r.kind = Kind::kFresh;
      r.fresh = fresh.size();
      fresh.push_back(corpus.fresh());
      requests.push_back(r);
      requests.push_back(r);
      ++duplicate_pairs;
    } else {
      requests.push_back(singles[next_single++]);
      requests.push_back(singles[next_single++]);
    }
  }
  for (Request& r : requests) {
    r.id = next_id++;
    r.line = r.kind == Kind::kHash
                 ? eval_hash_request(r.id, hashes[r.hot])
                 : eval_source_request(r.id, r.kind == Kind::kFresh
                                                 ? fresh[r.fresh].source
                                                 : hot[r.hot].source);
  }

  const double t0 = now_s();
  for (std::size_t i = 0; i < requests.size(); i += 2) {
    exchange(*ca, *cb, requests[i].line, requests[i + 1].line,
             requests[i].reply, requests[i + 1].reply, requests[i].rtt_us,
             requests[i + 1].rtt_us);
  }
  const double elapsed = now_s() - t0;
  result.attempted += requests.size();
  distinct_sources += fresh.size();

  std::vector<double> hits;
  std::vector<double> misses;
  check_pass(requests, fresh, corpus, baseline, result, hits, misses);
  if (measured) {
    pass_req_s.push_back(static_cast<double>(requests.size()) / elapsed);
    pass_hit_p50.push_back(median(hits));
    pass_miss_p50.push_back(median(misses));
    for (const Request& r : requests) {
      rtt_us.push_back(r.rtt_us);
    }
  }
  return elapsed;
}

ServePath::ServePath(const Options& options, bool traced)
    : impl_(std::make_unique<Impl>(options, traced)) {}

ServePath::~ServePath() = default;

void ServePath::warm(RunResult& result) {
  Impl& s = *impl_;
  const std::vector<ModelSource>& hot = s.corpus.hot();
  s.baseline.assign(hot.size(), "");
  s.hashes.assign(hot.size(), "");
  for (std::size_t i = 0; i < hot.size(); i += 2) {
    const std::size_t j = std::min(i + 1, hot.size() - 1);
    const std::uint64_t id_a = s.next_id++;
    const std::uint64_t id_b = s.next_id++;
    double ra = 0.0;
    double rb = 0.0;
    std::string reply_b;
    exchange(*s.ca, *s.cb, eval_source_request(id_a, hot[i].source),
             eval_source_request(id_b, hot[j].source), s.baseline[i], reply_b,
             ra, rb);
    if (j != i) {
      s.baseline[j] = reply_b;
    }
    for (const auto& [index, id] : {std::pair{i, id_a}, std::pair{j, id_b}}) {
      const std::optional<JsonValue> reply =
          parse_json(id == id_a ? s.baseline[i] : reply_b);
      const JsonValue* hash = reply ? reply->get("hash") : nullptr;
      if (!reply || hash == nullptr || !check_ok_response(*reply, id).empty()) {
        throw std::runtime_error("hot model " + hot[index].model_name +
                                 " did not compile");
      }
      s.hashes[index] = hash->text;
      if (std::string why = check_model_results(*reply, hot[index]);
          !why.empty()) {
        result.fail(why);
      }
    }
  }
  s.distinct_sources += hot.size();
}

double ServePath::unit(RunResult& result, bool measured) {
  double seconds = 0.0;
  for (int i = 0; i < kPassesPerUnit; ++i) {
    seconds += impl_->pass(result, measured);
  }
  return seconds;
}

void ServePath::finish(RunResult& result) {
  Impl& s = *impl_;
  // Exactly one reply per request: nothing may be left over or arrive late.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (Connection* c : {s.ca.get(), s.cb.get()}) {
    pollfd fd = {c->fd(), POLLIN, 0};
    if (c->buffered() || poll(&fd, 1, 0) > 0) {
      result.fail("daemon sent a reply no request was waiting for");
    }
  }
  s.ca->send_line("{\"id\":\"m\",\"op\":\"metrics\"}");
  while (true) {
    if (auto line = s.ca->pop_line()) {
      s.metrics_reply = std::move(*line);
      break;
    }
    if (!s.ca->pump()) {
      break;
    }
  }
  s.rss_mib = peak_rss_mib(s.daemon->pid());
  s.ca.reset();
  s.cb.reset();
  if (s.daemon->stop() != 0) {
    result.fail("daemon did not drain cleanly");
  }
}

double ServePath::daemon_rss_mib() const { return impl_->rss_mib; }

double serve_trace_overhead_pct(const Options& options, RunResult& result) {
  // The daemon always records (dvfc serve enables obs itself), so the
  // tracing cost is measured on the in-process Engine, over the same mix of
  // fresh and repeated sources in every unit.
  Corpus corpus(options);
  std::uint64_t id = 1;
  return overhead_pct(options, [&] {
    std::vector<std::string> lines;
    for (int i = 0; i < 8; ++i) {
      const std::string source = corpus.fresh().source;
      for (int k = 0; k < 4; ++k) {
        lines.push_back(eval_source_request(id++, source));
      }
    }
    dvf::serve::Engine engine;
    const double t0 = now_s();
    for (const std::string& line : lines) {
      if (engine.handle_line(line).find("\"ok\":true") == std::string::npos) {
        ++result.failed;
        result.fail("in-process request refused: " + line.substr(0, 40));
      }
    }
    const double seconds = now_s() - t0;
    result.attempted += lines.size();
    return seconds;
  });
}

void probe_serve_layers(const Options& options, RunResult& result) {
  // A traced serve-mix session of fixed length: round trips, the daemon's
  // cache counters and its transport time.
  ServePath serve(options, /*traced=*/true);
  serve.warm(result);
  const double begin = now_s();
  for (int unit = 0; unit < 2 || now_s() - begin < 5.0; ++unit) {
    serve.unit(result, true);
  }
  serve.finish(result);
  const ServePath::Impl& s = serve.impl();
  // Round trips swing with the host's scheduling of the daemon's threads
  // by more than any bound an end-to-end metric could hold (30-45% between
  // runs when the hypervisor steals time), so they are layer figures.
  result.add("serve.req_per_s", median(s.pass_req_s), "req/s");
  result.add("serve.hit_p50_us", median(s.pass_hit_p50), "us");
  result.add("serve.miss_p50_us", median(s.pass_miss_p50), "us");
  const double hits = static_cast<double>(counter_of(s.metrics_reply, "serve.cache.hit"));
  const double misses =
      static_cast<double>(counter_of(s.metrics_reply, "serve.cache.miss"));
  result.add("serve.compiles_per_cold_source",
             misses / static_cast<double>(s.distinct_sources), "ratio");
  // Only a duplicate pair can compile one source twice (no source is
  // evicted before its last use), so the surplus misses, spread over the
  // pairs, give the compiles per pair whatever share of the mix they are.
  result.add("serve.compiles_per_dup_pair",
             1.0 + (misses - static_cast<double>(s.distinct_sources)) /
                       static_cast<double>(s.duplicate_pairs),
             "compiles/pair");
  result.add("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
  result.add("serve.transport_us",
             median(s.rtt_us) - median_request_span_us(s.trace_path), "us");
  result.add("serve.p99_us", quantile(s.rtt_us, 0.99), "us");

  // In-process front end, evaluation and engine, per source.
  Corpus corpus(options);
  std::vector<ModelSource> sources = corpus.hot();
  for (int i = 0; i < 200; ++i) {
    sources.push_back(corpus.fresh());
  }
  std::vector<double> parse_us, analyze_us, hash_us, model_us;
  std::vector<double> family_ns[kFamilies];
  std::uint64_t hash_sink = 0;
  for (const ModelSource& m : sources) {
    double t0 = now_s();
    const dvf::dsl::Program ast = dvf::dsl::parse(m.source);
    double t1 = now_s();
    dvf::dsl::DiagnosticEngine diags;
    const dvf::dsl::CompiledProgram program = dvf::dsl::analyze(ast, diags);
    double t2 = now_s();
    hash_sink ^= dvf::analysis::canonical_hash(program.machines, program.models);
    double t3 = now_s();
    parse_us.push_back((t1 - t0) * 1e6);
    analyze_us.push_back((t2 - t1) * 1e6);
    hash_us.push_back((t3 - t2) * 1e6);
    for (const dvf::Machine& machine : program.machines) {
      const dvf::DvfCalculator calculator(machine);
      for (const dvf::ModelSpec& model : program.models) {
        t0 = now_s();
        const auto app = calculator.try_for_model(model);
        model_us.push_back((now_s() - t0) * 1e6);
        if (!app.ok()) {
          result.fail(m.model_name + ": evaluation failed in-process");
        }
        for (const dvf::DataStructureSpec& ds : model.structures) {
          for (const dvf::PatternSpec& phase : ds.patterns) {
            t0 = now_s();
            const auto n_ha = dvf::try_estimate_accesses(phase, machine.llc);
            family_ns[phase.index()].push_back((now_s() - t0) * 1e9);
            if (!n_ha.ok()) {
              result.fail(m.model_name + ": estimate failed in-process");
            }
          }
        }
      }
    }
  }
  result.add("dsl.parse_us", median(parse_us), "us");
  result.add("dsl.analyze_us", median(analyze_us), "us");
  result.add("analysis.canonical_hash_us", median(hash_us), "us");
  if (hash_sink == 0) {
    result.fail("canonical hashes XOR to zero");
  }
  const char* family_metric[kFamilies] = {
      "patterns.streaming_ns", "patterns.random_ns", "patterns.template_ns",
      "patterns.reuse_ns", "patterns.tiled_ns"};
  for (int f = 0; f < kFamilies; ++f) {
    result.add(family_metric[f], median(family_ns[f]), "ns");
  }
  result.add("dvf.for_model_us", median(model_us), "us");

  // Engine::handle_line in-process: decode alone, a miss, then a hit.
  dvf::serve::Engine engine;
  std::vector<double> decode_us, miss_us, hit_us;
  std::uint64_t id = 1;
  for (const ModelSource& m : sources) {
    const std::string line = eval_source_request(id++, m.source);
    double t0 = now_s();
    const dvf::serve::RequestParse parsed = dvf::serve::parse_request(line);
    decode_us.push_back((now_s() - t0) * 1e6);
    t0 = now_s();
    const std::string miss = engine.handle_line(line);
    miss_us.push_back((now_s() - t0) * 1e6);
    t0 = now_s();
    const std::string hit = engine.handle_line(line);
    hit_us.push_back((now_s() - t0) * 1e6);
    if (!parsed.ok || check_same_results(miss, hit).size() != 0) {
      result.fail(m.model_name + ": in-process hit differs from miss");
    }
  }
  result.add("serve.request_decode_us", median(decode_us), "us");
  result.add("serve.engine_miss_us", median(miss_us), "us");
  result.add("serve.engine_hit_us", median(hit_us), "us");
}

}  // namespace dvfbench
