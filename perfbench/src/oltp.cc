// oltp_commits: a closed-loop client sends small write transactions and
// point reads to a separate deltamond process over loopback. The schema is
// the paper's inventory with integer keys:
//
//   threshold(i) = consume_freq(i) * delivery_time(i) + min_stock(i)
//   rule monitor: when quantity(i) < threshold(i)
//                 do set reorder(i) = reorder(i) + 1
//
// Every write changes a value, and every kFiringEvery-th write of a client
// drops a key below its threshold, so the rule fires on exactly that share
// of writes. The client keeps its own model of every key; after the run
// each key's quantity must equal the last value written and reorder(i)
// must count exactly the key's false -> true transitions.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "amosql/parser.h"
#include "amosql/session.h"
#include "common.h"
#include "net/client.h"
#include "rules/engine.h"

namespace perfbench {
namespace {

using namespace deltamon;

constexpr int64_t kKeysPerClient = 1000;
/// Every kFiringEvery-th write of a client is a threshold crossing.
constexpr uint64_t kFiringEvery = 8;
constexpr int64_t kPopulationBatch = 250;
constexpr size_t kSetupReps = 9;
/// Warm-up rounds per CPU.
constexpr int kWarmupRounds = 50;
/// The timed window runs in blocks of this length. Each block puts the
/// server and every client on one CPU, the next CPU for the next block.
constexpr uint64_t kPlacementBlockNs = 500'000'000;
/// Rounds per tracing block (traced run: blocks alternate on and off).
constexpr uint64_t kTraceBlock = 32;
/// Requests per client kept for the in-process parse/session replay.
constexpr size_t kReplayCap = 4000;

/// ---------------------------------------------------------------------
/// The deltamond child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Starts deltamond on ephemeral ports and waits for its
  /// "listening on" line.
  Status Start(const std::string& path, size_t workers) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
    const std::string workers_arg = "--workers=" + std::to_string(workers);
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return Status::Internal("fork failed");
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = open("/dev/null", O_WRONLY);
      dup2(devnull, STDOUT_FILENO);
      dup2(fds[1], STDERR_FILENO);
      execl(path.c_str(), path.c_str(), "--port=0", "--admin-port=0",
            workers_arg.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    err_fd_ = fds[0];
    std::string text;
    const uint64_t deadline = NowNs() + 20'000'000'000ULL;
    while (text.find("workers\n") == std::string::npos) {
      if (NowNs() > deadline) {
        return Status::Internal("deltamond start timeout");
      }
      pollfd p{err_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t n = read(err_fd_, buf, sizeof(buf));
      if (n <= 0) return Status::Internal("deltamond exited: " + text);
      text.append(buf, static_cast<size_t>(n));
    }
    unsigned port = 0, admin = 0;
    const size_t at = text.find("0.0.0.0:");
    if (at == std::string::npos ||
        std::sscanf(text.c_str() + at, "0.0.0.0:%u (admin http on %u)", &port,
                    &admin) != 2) {
      return Status::Internal("cannot parse deltamond banner: " + text);
    }
    port_ = static_cast<uint16_t>(port);
    admin_port_ = static_cast<uint16_t>(admin);
    return Status::OK();
  }

  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }

  /// Moves every thread of the server onto `cpu`.
  void Pin(int cpu) const {
    const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
    DIR* dir = opendir(tasks.c_str());
    if (dir == nullptr) return;
    while (const dirent* entry = readdir(dir)) {
      const int tid = std::atoi(entry->d_name);
      if (tid > 0) PinThread(tid, cpu);
    }
    closedir(dir);
  }

  /// VmHWM of the server process, in MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
      }
    }
    return 0;
  }

  /// SIGTERM, drain stderr to EOF (the shutdown summary), reap; SIGKILL
  /// if it does not exit within 10 s.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const uint64_t deadline = NowNs() + 10'000'000'000ULL;
    while (err_fd_ >= 0 && NowNs() < deadline) {
      pollfd p{err_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[4096];
      if (read(err_fd_, buf, sizeof(buf)) <= 0) break;
    }
    if (waitpid(pid_, nullptr, WNOHANG) == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (err_fd_ >= 0) close(err_fd_);
    err_fd_ = -1;
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
};

/// GET /metrics from the admin listener: every sample line as name -> value
/// (histogram buckets keep their {le="..."} suffix).
Result<std::unordered_map<std::string, double>> Scrape(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string text;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const char req[] = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
    const ssize_t len = static_cast<ssize_t>(sizeof(req) - 1);
    if (write(fd, req, sizeof(req) - 1) == len) {
      char buf[16384];
      ssize_t n;
      while ((n = read(fd, buf, sizeof(buf))) > 0) {
        text.append(buf, static_cast<size_t>(n));
      }
    }
  }
  close(fd);
  const size_t body = text.find("\r\n\r\n");
  if (text.rfind("HTTP/1.", 0) != 0 || body == std::string::npos ||
      text.find(" 200 ") == std::string::npos) {
    return Status::Internal("metrics scrape failed");
  }
  std::unordered_map<std::string, double> out;
  size_t pos = body + 4;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// The Prometheus spelling of a registry name.
std::string Mangle(std::string name) {
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

/// Registry-shaped difference of two scrapes, for the names the ledger
/// reads.
obs::MetricsSnapshot ScrapeDiff(
    const std::unordered_map<std::string, double>& before,
    const std::unordered_map<std::string, double>& after) {
  auto delta = [&](const std::string& key) -> uint64_t {
    auto a = after.find(key);
    auto b = before.find(key);
    const double va = a == after.end() ? 0 : a->second;
    const double vb = b == before.end() ? 0 : b->second;
    return va > vb ? static_cast<uint64_t>(va - vb) : 0;
  };
  obs::MetricsSnapshot s;
  for (const char* name :
       {"rules.firings", "rules.incremental_rounds", "rules.naive_rounds",
        "propagator.differentials_executed", "propagator.differentials_skipped",
        "propagator.tuples_propagated", "eval.tuples_examined",
        "eval.literal_probes", "eval.clause_evals", "db.events_logged",
        "txn.commits", "txn.batches", "txn.aborts.conflict", "net.bytes_in",
        "net.bytes_out"}) {
    s.counters[name] = delta(Mangle(name));
  }
  for (const char* name :
       {"db.delta_tuples_taken", "propagator.level_ns", "rules.check_ns",
        "rules.action_ns.monitor",
        "net.queue_wait_ns", "net.exec_ns", "net.reply_write_ns",
        "txn.commit_queue_wait_ns"}) {
    auto& h = s.histograms[name];
    h.sum = delta(Mangle(name) + "_sum");
    h.count = delta(Mangle(name) + "_count");
  }
  return s;
}

/// Upper bound of the highest non-empty bucket of a scraped histogram.
double BucketMax(const std::unordered_map<std::string, double>& scrape,
                 const std::string& name) {
  const std::string prefix = Mangle(name) + "_bucket{le=\"";
  auto total = scrape.find(Mangle(name) + "_count");
  if (total == scrape.end() || total->second == 0) return 0;
  double best = 0;
  bool found = false;
  for (const auto& [key, cumulative] : scrape) {
    if (key.rfind(prefix, 0) != 0 || cumulative < total->second) continue;
    if (key.find("+Inf") != std::string::npos) continue;
    const double le = std::strtod(key.c_str() + prefix.size(), nullptr);
    if (!found || le < best) best = le;
    found = true;
  }
  return best;
}

/// ---------------------------------------------------------------------
/// The inventory model and the request stream.

struct Key {
  int64_t consume_freq = 0;
  int64_t delivery_time = 0;
  int64_t min_stock = 0;
  int64_t quantity = 0;
  /// False -> true transitions of the condition: what reorder must count.
  int64_t fires = 0;
  int64_t Threshold() const { return consume_freq * delivery_time + min_stock; }
};

struct Model {
  int clients = 1;
  std::vector<Key> keys;  // key k lives at keys[k]; client c owns a slice
};

Model MakeModel(uint64_t seed, int clients) {
  Model m;
  m.clients = clients;
  Rng rng(seed);
  m.keys.resize(static_cast<size_t>(kKeysPerClient * clients));
  for (Key& k : m.keys) {
    k.consume_freq = rng.Range(1, 20);
    k.delivery_time = rng.Range(1, 10);
    k.min_stock = rng.Range(10, 100);
    k.quantity = k.Threshold() + rng.Range(100, 1000);
  }
  return m;
}

std::vector<std::string> SetupStatements(const Model& m) {
  std::vector<std::string> out = {
      "create function quantity(integer) -> integer;"
      "create function consume_freq(integer) -> integer;"
      "create function delivery_time(integer) -> integer;"
      "create function min_stock(integer) -> integer;"
      "create function reorder(integer) -> integer;"
      "create function threshold(integer i) -> integer as select "
      "consume_freq(i) * delivery_time(i) + min_stock(i);"};
  std::string batch;
  for (size_t k = 0; k < m.keys.size(); ++k) {
    const Key& key = m.keys[k];
    const std::string id = std::to_string(k);
    batch += "set consume_freq(" + id + ") = " +
             std::to_string(key.consume_freq) + "; set delivery_time(" + id +
             ") = " +
             std::to_string(key.delivery_time) + "; set min_stock(" + id +
             ") = " + std::to_string(key.min_stock) + "; set quantity(" + id +
             ") = " + std::to_string(key.quantity) + "; set reorder(" + id +
             ") = 0; ";
    if ((k + 1) % kPopulationBatch == 0 || k + 1 == m.keys.size()) {
      out.push_back(batch + "commit;");
      batch.clear();
    }
  }
  out.push_back(
      "create rule monitor() as when for each integer i where "
      "quantity(i) < threshold(i) do set reorder(i) = reorder(i) + 1;"
      "activate monitor();");
  return out;
}

/// One request of the stream, kept for the in-process replay.
struct Request {
  std::string text;
  bool write = false;
  int64_t expect = 0;  // reads: the quantity the model predicts
};

/// What one client thread measured.
struct ClientStats {
  PerCpuSamples write_us, read_us, firing_us, quiet_us;  // by CPU slot
  uint64_t rounds = 0;
  uint64_t writes = 0, reads = 0;          // inside the window
  uint64_t write_failed = 0, read_failed = 0, read_wrong = 0;
  uint64_t attempted_writes = 0, attempted_reads = 0;  // including warmup
  uint64_t rtt_ns = 0;                     // sum over window requests
  uint64_t window_ns = 0;
  uint64_t traced_ns = 0, traced_requests = 0;
  uint64_t untraced_ns = 0, untraced_requests = 0;
  std::vector<Request> replay;
  std::string first_error;
};

/// A closed-loop client over keys [first, first + kKeysPerClient): each
/// round sends one write transaction and one read transaction.
class LoadClient {
 public:
  LoadClient(Model& model, int index, uint64_t seed, bool trace)
      : model_(model),
        first_(static_cast<int64_t>(index) * kKeysPerClient),
        rng_(seed * 31 + static_cast<uint64_t>(index) + 7),
        trace_(trace) {}

  Status Connect(uint16_t port) {
    DELTAMON_ASSIGN_OR_RETURN(client_, net::Client::Connect("127.0.0.1", port));
    return Status::OK();
  }

  /// Runs `rounds` rounds unmeasured (rounds < 0: until `deadline_ns`,
  /// measured) on CPU `cpu`, which has slot `slot` in AllowedCpus().
  void Run(int rounds, uint64_t deadline_ns, int cpu, size_t slot) {
    PinThread(0, cpu);
    slot_ = slot;
    const bool measured = rounds < 0;
    const uint64_t start = NowNs();
    for (int r = 0; measured ? NowNs() < deadline_ns : r < rounds; ++r) {
      const bool traced =
          measured && trace_ && (stats_.rounds / kTraceBlock) % 2 == 1;
      Write(measured, traced);
      Read(measured, traced);
      if (measured) ++stats_.rounds;
    }
    if (measured) stats_.window_ns += NowNs() - start;
  }

  ClientStats& stats() { return stats_; }

 private:
  Key& KeyAt(int64_t k) { return model_.keys[static_cast<size_t>(k)]; }

  int64_t RandomKey() { return first_ + rng_.Range(0, kKeysPerClient - 1); }

  Result<net::Client::Response> Send(const std::string& text, bool measured,
                                     bool traced, uint64_t* ns) {
    const uint64_t start = NowNs();
    Result<net::Client::Response> r = client_.Execute(text);
    *ns = NowNs() - start;
    if (measured) {
      stats_.rtt_ns += *ns;
      (traced ? stats_.traced_ns : stats_.untraced_ns) += *ns;
      ++(traced ? stats_.traced_requests : stats_.untraced_requests);
    }
    return r;
  }

  void Fail(const Status& s) {
    if (stats_.first_error.empty()) stats_.first_error = s.ToString();
  }

  void Write(bool measured, bool traced) {
    const bool firing = writes_sent_++ % kFiringEvery == kFiringEvery - 1;
    int64_t k = RandomKey();
    int64_t value = 0;
    if (firing) {
      // A key currently at or above its threshold drops below it.
      while (KeyAt(k).quantity < KeyAt(k).Threshold()) k = RandomKey();
      const Key& key = KeyAt(k);
      value = rng_.RangeExcept(0, key.Threshold() - 1, key.quantity);
    } else {
      const Key& key = KeyAt(k);
      value = rng_.RangeExcept(key.Threshold(), key.Threshold() + 1000,
                               key.quantity);
    }
    std::string text = "set quantity(" + std::to_string(k) + ") = " +
                       std::to_string(value) + "; commit;";
    uint64_t ns = 0;
    Result<net::Client::Response> r = Send(text, measured, traced, &ns);
    ++stats_.attempted_writes;
    if (!r.ok()) {
      ++stats_.write_failed;
      Fail(r.status());
      return;
    }
    Key& key = KeyAt(k);
    if (value < key.Threshold() && key.quantity >= key.Threshold()) ++key.fires;
    key.quantity = value;
    if (!measured) return;
    ++stats_.writes;
    stats_.write_us.Add(slot_, ToUs(ns));
    (firing ? stats_.firing_us : stats_.quiet_us).Add(slot_, ToUs(ns));
    if (traced && stats_.replay.size() < kReplayCap) {
      stats_.replay.push_back({std::move(text), true, value});
    }
  }

  void Read(bool measured, bool traced) {
    const int64_t k = RandomKey();
    const int64_t expect = KeyAt(k).quantity;
    std::string text = "select quantity(" + std::to_string(k) + "); commit;";
    uint64_t ns = 0;
    Result<net::Client::Response> r = Send(text, measured, traced, &ns);
    ++stats_.attempted_reads;
    if (!r.ok()) {
      ++stats_.read_failed;
      Fail(r.status());
      return;
    }
    if (r->rows.size() != 1 ||
        r->rows[0] != "(" + std::to_string(expect) + ")") {
      ++stats_.read_wrong;
      return;
    }
    if (!measured) return;
    ++stats_.reads;
    stats_.read_us.Add(slot_, ToUs(ns));
    if (traced && stats_.replay.size() < kReplayCap) {
      stats_.replay.push_back({std::move(text), false, expect});
    }
  }

  Model& model_;
  const int64_t first_;
  Rng rng_;
  const bool trace_;
  net::Client client_;
  size_t slot_ = 0;
  uint64_t writes_sent_ = 0;
  ClientStats stats_;
};

/// Spawns deltamond and loads schema, population and the activated rule.
Status SetUp(const Options& options, const Model& model, size_t workers,
             ServerProcess* server) {
  DELTAMON_RETURN_IF_ERROR(server->Start(options.deltamond, workers));
  DELTAMON_ASSIGN_OR_RETURN(net::Client boot,
                            net::Client::Connect("127.0.0.1", server->port()));
  for (const std::string& stmt : SetupStatements(model)) {
    Result<net::Client::Response> r = boot.Execute(stmt);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

/// Reads every key back and checks quantity and reorder against the model.
Status VerifyFinalState(uint16_t port, const Model& model, std::string* why) {
  DELTAMON_ASSIGN_OR_RETURN(net::Client c,
                            net::Client::Connect("127.0.0.1", port));
  DELTAMON_ASSIGN_OR_RETURN(
      net::Client::Response r,
      c.Execute("select i, quantity(i), reorder(i) for each integer i "
                "where reorder(i) >= 0; commit;"));
  if (r.rows.size() != model.keys.size()) {
    *why = "final state has " + std::to_string(r.rows.size()) +
           " keys, expected " + std::to_string(model.keys.size());
    return Status::OK();
  }
  size_t wrong = 0;
  for (const std::string& row : r.rows) {
    long long k = -1, q = 0, fires = 0;
    if (std::sscanf(row.c_str(), "(%lld, %lld, %lld)", &k, &q, &fires) != 3 ||
        k < 0 || static_cast<size_t>(k) >= model.keys.size()) {
      ++wrong;
      continue;
    }
    const Key& key = model.keys[static_cast<size_t>(k)];
    if (q != key.quantity || fires != key.fires) ++wrong;
  }
  if (wrong > 0) {
    *why = std::to_string(wrong) + " keys differ from the model";
  }
  return Status::OK();
}

/// The traced run's in-process layers: the public parser and a Session
/// attached to a TransactionManager, fed the recorded request stream.
void ReplayInProcess(const Model& initial, const std::vector<ClientStats*>& all,
                     RunResult* result) {
  std::vector<const Request*> stream;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const ClientStats* s : all) {
      if (i < s->replay.size()) {
        stream.push_back(&s->replay[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  if (stream.empty()) return;

  uint64_t parse_ns = 0;
  for (const Request* req : stream) {
    const uint64_t start = NowNs();
    Result<std::vector<amosql::Statement>> parsed = amosql::Parse(req->text);
    parse_ns += NowNs() - start;
    if (!parsed.ok()) {
      result->correct = false;
      result->Note("replay parse failed: " + parsed.status().ToString());
      return;
    }
  }
  result->metrics["amosql.parse_us"] =
      ToUs(parse_ns) / static_cast<double>(stream.size());

  Engine engine;
  amosql::Session session(engine);
  session.AttachTransactionManager(&engine.txn);
  for (const std::string& stmt : SetupStatements(initial)) {
    Result<amosql::QueryResult> r = amosql::ExecuteStatement(session, stmt);
    if (!r.ok()) {
      result->correct = false;
      result->Note("replay setup failed: " + r.status().ToString());
      return;
    }
  }
  // The stream starts where the warmup left each key; replaying it from the
  // initial state only shifts the values, so reads are checked against the
  // value the replay itself last wrote.
  std::unordered_map<std::string, int64_t> last_written;
  std::vector<double> write_us, read_us;
  for (const Request* req : stream) {
    const uint64_t start = NowNs();
    Result<amosql::QueryResult> r =
        amosql::ExecuteStatement(session, req->text);
    const double us = ToUs(NowNs() - start);
    if (!r.ok()) {
      result->correct = false;
      result->Note("replay statement failed: " + r.status().ToString());
      return;
    }
    const size_t open = req->text.find('(');
    const std::string key =
        req->text.substr(open + 1, req->text.find(')') - open - 1);
    if (req->write) {
      write_us.push_back(us);
      last_written[key] = req->expect;
    } else {
      read_us.push_back(us);
      auto it = last_written.find(key);
      if (it != last_written.end() &&
          (r->rows.size() != 1 || !r->rows[0][0].is_int() ||
           r->rows[0][0].AsInt() != it->second)) {
        result->correct = false;
        result->Note("replay read of key " + key + " differs");
      }
    }
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  result->metrics["amosql.session_write_us"] = mean(write_us);
  result->metrics["amosql.session_read_us"] = mean(read_us);
}

}  // namespace

RunResult RunOltpCommits(const Options& options) {
  RunResult result;
  // The server and the client share one CPU at a time, rotated over the
  // CPUs block by block, and every percentile is taken per CPU. Spread over
  // several CPUs, each request waited on cross-CPU wake-ups of idle virtual
  // CPUs, which the host's load decides: over five runs in a row the commit
  // rate ranged from 5 500/s to 11 400/s, against 9 600-10 200/s with
  // everything on one CPU, whichever CPU it was. One client: with two on
  // the same CPU a read either waited behind the other client's write or
  // did not, and the median read latency of five runs spread by 0.20 of
  // its value (0.10 with one client).
  const std::vector<int>& cpus = AllowedCpus();
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const int clients = 1;
  const size_t workers = 1;
  const Model initial = MakeModel(options.seed, clients);
  result.Note("keys=" + std::to_string(initial.keys.size()) + " clients=" +
              std::to_string(clients) + " workers=" + std::to_string(workers) +
              " nproc=" + std::to_string(nproc) + " cpus=" +
              std::to_string(cpus.size()) + " (one at a time) firing share=1/" +
              std::to_string(kFiringEvery) + " read:write=1:1");

  std::vector<double> setup_s;
  auto server = std::make_unique<ServerProcess>();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    server = std::make_unique<ServerProcess>();
    RotateCpu();  // deltamond inherits the CPU
    const uint64_t start = NowNs();
    Status s = SetUp(options, initial, workers, server.get());
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!s.ok()) {
      result.ops["setup"].attempted++;
      result.Wrong("setup", s.ToString());
      return result;
    }
  }
  result.metrics["setup_s"] = Median(setup_s);

  Model model = initial;
  std::vector<std::unique_ptr<LoadClient>> load;
  for (int c = 0; c < clients; ++c) {
    load.push_back(
        std::make_unique<LoadClient>(model, c, options.seed, options.trace));
    if (Status s = load.back()->Connect(server->port()); !s.ok()) {
      result.ops["setup"].attempted++;
      result.Wrong("setup", s.ToString());
      return result;
    }
  }
  // One block: the server and every client on CPU slot `slot`.
  auto run_block = [&](size_t slot, int rounds, uint64_t deadline) {
    const int cpu = cpus.empty() ? 0 : cpus[slot];
    if (!cpus.empty()) server->Pin(cpu);
    std::vector<std::thread> threads;
    for (auto& l : load) {
      threads.emplace_back([&l, rounds, deadline, cpu, slot] {
        l->Run(rounds, deadline, cpu, slot);
      });
    }
    for (std::thread& t : threads) t.join();
  };
  const size_t slots = std::max<size_t>(1, cpus.size());
  for (size_t slot = 0; slot < slots; ++slot) run_block(slot, kWarmupRounds, 0);

  // Commits per second of each block, by the block's CPU slot.
  PerCpuSamples block_rate;
  auto writes_so_far = [&] {
    uint64_t n = 0;
    for (auto& l : load) n += l->stats().writes;
    return n;
  };
  Result<std::unordered_map<std::string, double>> before =
      Scrape(server->admin_port());
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  for (size_t block = 0;; ++block) {
    const uint64_t start = NowNs();
    if (start >= deadline) break;
    const uint64_t writes = writes_so_far();
    const size_t slot = block % slots;
    run_block(slot, -1, std::min(deadline, start + kPlacementBlockNs));
    block_rate.Add(slot, static_cast<double>(writes_so_far() - writes) /
                             (static_cast<double>(NowNs() - start) / 1e9));
  }
  Result<std::unordered_map<std::string, double>> after =
      Scrape(server->admin_port());

  // Merge the clients.
  ClientStats all;
  std::vector<ClientStats*> per_client;
  for (auto& l : load) {
    ClientStats& s = l->stats();
    per_client.push_back(&s);
    all.write_us.Append(s.write_us);
    all.read_us.Append(s.read_us);
    all.firing_us.Append(s.firing_us);
    all.quiet_us.Append(s.quiet_us);
    all.writes += s.writes;
    all.reads += s.reads;
    all.write_failed += s.write_failed;
    all.read_failed += s.read_failed;
    all.read_wrong += s.read_wrong;
    all.attempted_writes += s.attempted_writes;
    all.attempted_reads += s.attempted_reads;
    all.rtt_ns += s.rtt_ns;
    all.window_ns += s.window_ns;
    all.traced_ns += s.traced_ns;
    all.traced_requests += s.traced_requests;
    all.untraced_ns += s.untraced_ns;
    all.untraced_requests += s.untraced_requests;
    if (!s.first_error.empty()) result.Note("client error: " + s.first_error);
  }
  result.ops["write"] = {all.attempted_writes, all.write_failed};
  result.ops["read"] = {all.attempted_reads, all.read_failed + all.read_wrong};
  if (all.read_wrong > 0) {
    result.correct = false;
    result.Note(std::to_string(all.read_wrong) +
                " reads returned a wrong value");
  }

  const double window_s =
      static_cast<double>(all.window_ns) / 1e9 / static_cast<double>(clients);
  auto& m = result.metrics;
  m["commit_rate"] = block_rate.Percentile(50);
  m["commit_latency_p50_us"] = all.write_us.Percentile(50);
  m["bench.commit_latency_p95_us"] = all.write_us.Percentile(95);
  m["bench.commit_latency_p99_us"] = all.write_us.Percentile(99);
  m["read_latency_p50_us"] = all.read_us.Percentile(50);
  m["bench.read_latency_p95_us"] = all.read_us.Percentile(95);
  m["bench.read_latency_p99_us"] = all.read_us.Percentile(99);
  result.Note("window " + std::to_string(window_s) + " s, " +
              std::to_string(all.writes) + " writes, " +
              std::to_string(all.reads) + " reads, " +
              std::to_string(static_cast<double>(all.writes) / window_s) +
              " writes/s overall");
  result.Note("per-CPU p50 block writes/s: " + block_rate.Describe(50));
  result.Note("per-CPU p50 commit us: " + all.write_us.Describe(50));
  result.Note("per-CPU p50 read us: " + all.read_us.Describe(50));

  // Every write is a real commit through the queue; every read commit
  // takes the read-only fast path.
  if (!before.ok() || !after.ok()) {
    result.correct = false;
    result.Note("metrics scrape failed");
  } else {
    const obs::MetricsSnapshot d = ScrapeDiff(*before, *after);
    const uint64_t queued = d.CounterOr("txn.commits", 0);
    const uint64_t sent_writes = all.writes + all.write_failed;
    const uint64_t fastpath = all.writes + all.reads - queued;
    if (queued != all.writes || fastpath != all.reads) {
      result.correct = false;
      result.Note("server txn.commits rose by " + std::to_string(queued) +
                  " for " + std::to_string(sent_writes) + " writes sent");
    }
    if (options.trace) {
      const double requests = static_cast<double>(HistCount(d, "net.exec_ns"));
      const double writes = static_cast<double>(all.writes);
      auto hist_mean = [&](const char* name) {
        const uint64_t n = HistCount(d, name);
        return n == 0 ? 0.0 : ToUs(HistSum(d, name)) / static_cast<double>(n);
      };
      const double rtt =
          ToUs(all.rtt_ns) / static_cast<double>(all.writes + all.reads);
      const double queue_wait = hist_mean("net.queue_wait_ns");
      const double exec = hist_mean("net.exec_ns");
      const double reply = hist_mean("net.reply_write_ns");
      m["net.queue_wait_us"] = queue_wait;
      m["net.exec_us"] = exec;
      m["net.reply_write_us"] = reply;
      m["net.wire_us"] = rtt - queue_wait - exec - reply;
      m["net.bytes_per_request"] =
          static_cast<double>(d.CounterOr("net.bytes_in", 0) +
                              d.CounterOr("net.bytes_out", 0)) /
          requests;
      m["txn.queue_wait_us"] = hist_mean("txn.commit_queue_wait_ns");
      const uint64_t batches = d.CounterOr("txn.batches", 0);
      m["txn.txns_per_wave"] =
          batches == 0 ? 0.0
                       : static_cast<double>(queued) /
                             static_cast<double>(batches);
      m["txn.queued_commits"] = static_cast<double>(queued);
      m["txn.fastpath_commits"] = static_cast<double>(fastpath);
      m["txn.aborts"] =
          static_cast<double>(d.CounterOr("txn.aborts.conflict", 0));
      const double check = ToUs(HistSum(d, "rules.check_ns")) / writes;
      const double action =
          ToUs(HistSum(d, "rules.action_ns.monitor")) / writes;
      m["rules.check_phase_us"] = check;
      m["rules.action_us"] = action;
      m["core.propagation_us"] = check - action;
      AddEngineCounters(d, writes, &result);
      m["core.peak_wavefront_tuples"] =
          BucketMax(*after, "propagator.peak_wavefront_tuples");
      m["bench.firing_commit_p50_us"] = all.firing_us.Percentile(50);
      m["bench.quiet_commit_p50_us"] = all.quiet_us.Percentile(50);
      const double per_request_total =
          ToUs(all.window_ns) / static_cast<double>(all.writes + all.reads);
      m["bench.unattributed_us"] = per_request_total - rtt;
      if (all.traced_requests > 0 && all.untraced_requests > 0) {
        const double traced = static_cast<double>(all.traced_ns) /
                              static_cast<double>(all.traced_requests);
        const double untraced = static_cast<double>(all.untraced_ns) /
                                static_cast<double>(all.untraced_requests);
        m["bench.trace_overhead_pct"] = (traced / untraced - 1.0) * 100.0;
      }
      // Ledger per request: the server-side phases (commit queue wait and
      // check phase spread over all requests) plus what the client saw.
      const double txn_wait =
          ToUs(HistSum(d, "txn.commit_queue_wait_ns")) / requests;
      const double check_per_request =
          ToUs(HistSum(d, "rules.check_ns")) / requests;
      result.ledger = {
          {"net.wire", rtt - queue_wait - exec - reply},
          {"net.queue_wait", queue_wait},
          {"net.exec (self)", exec - txn_wait - check_per_request},
          {"txn.queue_wait", txn_wait},
          {"rules.check_phase", check_per_request},
          {"net.reply_write", reply},
          {"bench.unattributed", per_request_total - rtt},
      };
      result.ledger_total_us = per_request_total;
      result.ledger_per = "request";
    }
  }

  m["peak_rss_mb"] = server->PeakRssMb();
  std::string why;
  if (Status s = VerifyFinalState(server->port(), model, &why); !s.ok()) {
    result.correct = false;
    result.Note("final state read failed: " + s.ToString());
  } else if (!why.empty()) {
    result.correct = false;
    result.Note(why);
  }
  server->Stop();
  if (options.trace) ReplayInProcess(initial, per_client, &result);
  return result;
}

}  // namespace perfbench
