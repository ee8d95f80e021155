// The serve workload: a real mapinv_serve child process over a unix socket,
// two client connections each owning a session, closed loops on both.
//
// The traced pass replays each connection's list over the socket (a span
// around every round trip, another around decoding the reply) and, right
// after each reply, executes the same request in process against a local
// mirror of the session — the same held instances, maintained solutions and
// inverse memo — with spans around the layer calls, decoding the request as
// the server does. Round trip minus in-process execution is the transport
// share; the mirror's reply must match the server's.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "bench.h"
#include "chase/chase_tgd.h"
#include "chase/maintained.h"
#include "check/solutions.h"
#include "engine/request.h"
#include "parser/parser.h"
#include "rewrite/rewrite.h"
#include "serve/protocol.h"

extern char** environ;

namespace reqbench {
namespace {

using mapinv::EngineRequest;
using mapinv::EngineResponse;
using mapinv::ExecutionOptions;
using mapinv::Instance;
using mapinv::Json;
using mapinv::MaintainedSolution;
using mapinv::Result;
using mapinv::ResultKind;
using mapinv::Status;
using mapinv::TgdMapping;

constexpr int kConnections = 2;
constexpr int64_t kStartTimeoutMs = 10000;
constexpr int64_t kStopTimeoutMs = 5000;

ExecutionOptions BaseOptions() {
  ExecutionOptions options;
  options.threads = 1;
  return options;
}

std::string SessionName(int conn) { return "s" + std::to_string(conn); }

// --- transport --------------------------------------------------------------

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One client connection: a blocking request/reply channel.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Status Open(const std::string& path) {
    Close();
    fd_ = ConnectUnix(path);
    if (fd_ < 0) return Status::Internal("cannot connect to " + path);
    return Status::OK();
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  Status Call(const std::string& request, std::string* response) {
    MAPINV_RETURN_NOT_OK(mapinv::WriteFrame(fd_, request));
    MAPINV_ASSIGN_OR_RETURN(
        bool framed,
        mapinv::ReadFrame(fd_, mapinv::kDefaultMaxFrameBytes, response));
    if (!framed) return Status::Internal("server closed the connection");
    return Status::OK();
  }

 private:
  int fd_ = -1;
};

// The digest key of a wire response. A metrics reply reports live server
// counters, so only its status and kind enter the digest.
Result<ResponseKey> WireKey(const std::string& payload, bool is_metrics) {
  MAPINV_ASSIGN_OR_RETURN(Json doc, Json::Parse(payload));
  ResponseKey key;
  const std::string status = doc.GetString("status");
  key.status = status == "ok" ? status : doc.GetString("code");
  key.kind = doc.GetString("kind");
  if (!is_metrics) key.result = doc.GetString("result");
  return key;
}

// Sum over the sessions of a metrics document of one counter: a session
// field (inverse_cache_hits) or, with `in_stats`, one of its engine stats.
double SessionSum(const Json& metrics, const char* key, bool in_stats) {
  double total = 0;
  const Json* sessions = metrics.Find("sessions");
  if (sessions == nullptr) return total;
  for (const auto& [name, session] : sessions->AsObject()) {
    const Json* holder = in_stats ? session.Find("stats") : &session;
    if (holder != nullptr) total += static_cast<double>(holder->GetInt(key));
  }
  return total;
}

// --- the server child process ----------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Start(const std::string& binary, const std::string& socket) {
    socket_ = socket;
    ::unlink(socket_.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const std::string unix_flag = "--unix=" + socket_;
    std::vector<std::string> argv_text = {binary, unix_flag, "--threads=1"};
    std::vector<char*> argv;
    for (std::string& arg : argv_text) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      return Status::Internal("cannot start " + binary + ": " +
                              std::strerror(rc));
    }
    pid_ = pid;
    const int64_t deadline = NowNs() + kStartTimeoutMs * 1000000;
    while (NowNs() < deadline) {
      const int fd = ConnectUnix(socket_);
      if (fd >= 0) {
        ::close(fd);
        return Status::OK();
      }
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("mapinv_serve exited during start-up");
      }
      ::usleep(2000);
    }
    Stop();
    return Status::Internal("mapinv_serve did not start listening");
  }

  // Asks the server to drain, then reaps it; escalates to signals if it
  // does not exit in time.
  void Stop() {
    if (pid_ < 0) return;
    {
      Connection conn;
      std::string reply;
      if (conn.Open(socket_).ok()) {
        (void)conn.Call(R"({"id":0,"command":"server.stop"})", &reply);
      }
    }
    if (!WaitExit(kStopTimeoutMs)) {
      ::kill(pid_, SIGTERM);
      if (!WaitExit(kStopTimeoutMs)) {
        ::kill(pid_, SIGKILL);
        int wstatus = 0;
        ::waitpid(pid_, &wstatus, 0);
      }
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

  int pid() const { return pid_; }

 private:
  bool WaitExit(int64_t timeout_ms) {
    const int64_t deadline = NowNs() + timeout_ms * 1000000;
    while (NowNs() < deadline) {
      int wstatus = 0;
      const pid_t done = ::waitpid(pid_, &wstatus, WNOHANG);
      if (done == pid_ || done < 0) return true;
      ::usleep(1000);
    }
    return false;
  }

  pid_t pid_ = -1;
  std::string socket_;
};

// --- the in-process mirror of one session -----------------------------------

struct Mirror {
  std::shared_ptr<const TgdMapping> mapping;
  std::map<std::string, std::shared_ptr<const Instance>> registered;
  std::map<std::string, std::shared_ptr<MaintainedSolution>> maintained;
  std::string memo;  // the session's memoized invert result
  SpanLog log;
  LayerValues values;
  CounterSums counters;

  Result<std::shared_ptr<MaintainedSolution>> MaintainedFor(
      const std::string& name) {
    auto it = maintained.find(name);
    if (it != maintained.end()) return it->second;
    auto solution = std::make_shared<MaintainedSolution>(mapping);
    MAPINV_RETURN_NOT_OK(
        solution->AppendInstance(*registered.at(name)).status());
    maintained[name] = solution;
    return solution;
  }
};

class ServeRunner : public Runner {
 public:
  ServeRunner(const WorkloadSpec& spec, const ServeOptions& options)
      : spec_(spec), options_(options) {}

  Status Setup() override;
  void Teardown() override {
    conns_.clear();  // close the clients first, so the server drains at once
    server_.reset();
  }
  PassResult RunPass() override { return Pass(false, nullptr, nullptr); }
  PassResult RunTracedPass(SpanLog* log, LayerValues* values) override {
    return Pass(true, log, values);
  }
  Status Check() override;
  double PeakRssMb() override {
    return server_ == nullptr ? 0.0 : reqbench::PeakRssMb(server_->pid());
  }
  Status WriteSnapshots() const;

 private:
  std::string SocketPath() const { return options_.work_dir + "/serve.sock"; }
  std::string SnapshotPath(size_t held) const {
    return options_.work_dir + "/held-" + std::to_string(held) + ".snap";
  }
  std::string Wire(const ReqSpec& req, int64_t id) const;
  Result<Json> ServerMetrics();
  PassResult Pass(bool traced, SpanLog* log, LayerValues* values);
  Status MirrorSetup(int conn, Mirror* mirror);
  Status MirrorDispatch(const ReqSpec& req, const ExecutionOptions& options,
                        Mirror* mirror, EngineResponse* response);
  Result<ResponseKey> MirrorExecute(const ReqSpec& req, const std::string& wire,
                                    int64_t id, Mirror* mirror);

  const WorkloadSpec& spec_;
  ServeOptions options_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

std::string ServeRunner::Wire(const ReqSpec& req, int64_t id) const {
  Json json = Json::MakeObject();
  json.Set("id", Json(id));
  json.Set("command", Json(req.command));
  if (req.command == "metrics") return json.Serialize();
  json.Set("session", Json(SessionName(req.conn)));
  const std::string& name = spec_.held[req.held].name;
  if (req.command == "exchange") {
    json.Set("instance_ref", Json(name));
  } else if (req.command == "rewrite") {
    json.Set("query", Json(req.query));
  } else if (req.command == "instance.append") {
    json.Set("name", Json(name));
    json.Set("delta", Json(req.text));
  } else if (req.command == "exchange-delta") {
    json.Set("instance_ref", Json(name));
    json.Set("delta", Json(req.text));
  } else if (req.command == "instance.put") {
    json.Set("name", Json(name));
    json.Set("instance", Json(req.text));
  }
  return json.Serialize();
}

// Snapshot files for the held instances registered by instance.load. Writing
// them is input generation, done once, before the set-ups are timed.
Status ServeRunner::WriteSnapshots() const {
  for (size_t h = 0; h < spec_.held.size(); ++h) {
    const HeldSpec& held = spec_.held[h];
    if (!held.via_snapshot) continue;
    MAPINV_ASSIGN_OR_RETURN(
        TgdMapping mapping,
        mapinv::LoadMappingSpec(spec_.mappings[held.mapping]));
    MAPINV_ASSIGN_OR_RETURN(Instance instance,
                            mapinv::ParseInstance(held.text, *mapping.source));
    MAPINV_RETURN_NOT_OK(instance.Save(SnapshotPath(h)));
  }
  return Status::OK();
}

Status ServeRunner::Setup() {
  Teardown();
  auto server = std::make_unique<ServerProcess>();
  MAPINV_RETURN_NOT_OK(server->Start(options_.server_binary, SocketPath()));
  server_ = std::move(server);
  std::string reply;
  auto call_ok = [&](Connection* conn, const std::string& request) -> Status {
    MAPINV_RETURN_NOT_OK(conn->Call(request, &reply));
    MAPINV_ASSIGN_OR_RETURN(ResponseKey key, WireKey(reply, false));
    if (key.status != "ok") {
      return Status::Internal("set-up request failed: " + reply);
    }
    return Status::OK();
  };
  for (int c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Connection>();
    MAPINV_RETURN_NOT_OK(conn->Open(SocketPath()));
    Json open = Json::MakeObject();
    open.Set("id", Json(static_cast<int64_t>(0)));
    open.Set("command", Json("session.open"));
    open.Set("session", Json(SessionName(c)));
    open.Set("mapping", Json(spec_.mappings[c]));
    MAPINV_RETURN_NOT_OK(call_ok(conn.get(), open.Serialize()));
    for (size_t h = 0; h < spec_.held.size(); ++h) {
      const HeldSpec& held = spec_.held[h];
      if (held.mapping != c) continue;
      Json reg = Json::MakeObject();
      reg.Set("id", Json(static_cast<int64_t>(0)));
      reg.Set("session", Json(SessionName(c)));
      reg.Set("name", Json(held.name));
      if (held.via_snapshot) {
        reg.Set("command", Json("instance.load"));
        reg.Set("path", Json(SnapshotPath(h)));
      } else {
        reg.Set("command", Json("instance.put"));
        reg.Set("instance", Json(held.text));
      }
      MAPINV_RETURN_NOT_OK(call_ok(conn.get(), reg.Serialize()));
    }
    conns_.push_back(std::move(conn));
  }
  // Warm-up: lazy index builds of every held instance and the inverse memo.
  for (const ReqSpec& req : spec_.warmup) {
    MAPINV_RETURN_NOT_OK(call_ok(conns_[req.conn].get(), Wire(req, 0)));
  }
  return Status::OK();
}

Result<Json> ServeRunner::ServerMetrics() {
  std::string reply;
  MAPINV_RETURN_NOT_OK(
      conns_[0]->Call(R"({"id":0,"command":"metrics"})", &reply));
  MAPINV_ASSIGN_OR_RETURN(Json doc, Json::Parse(reply));
  return Json::Parse(doc.GetString("result"));
}

// Builds the mirror of connection `conn`'s session as set-up left it.
Status ServeRunner::MirrorSetup(int conn, Mirror* mirror) {
  MAPINV_ASSIGN_OR_RETURN(TgdMapping mapping,
                          mapinv::LoadMappingSpec(spec_.mappings[conn]));
  mirror->mapping = std::make_shared<const TgdMapping>(std::move(mapping));
  for (size_t h = 0; h < spec_.held.size(); ++h) {
    const HeldSpec& held = spec_.held[h];
    if (held.mapping != conn) continue;
    if (held.via_snapshot) {
      const int64_t start = NowNs();
      MAPINV_ASSIGN_OR_RETURN(Instance loaded, Instance::Load(SnapshotPath(h)));
      mirror->values["data.snapshot_load_ms"] += NsToMs(NowNs() - start);
      mirror->registered[held.name] =
          std::make_shared<const Instance>(std::move(loaded));
    } else {
      MAPINV_ASSIGN_OR_RETURN(
          Instance parsed,
          mapinv::ParseInstance(held.text, *mirror->mapping->source));
      mirror->registered[held.name] =
          std::make_shared<const Instance>(std::move(parsed));
    }
  }
  EngineRequest invert;
  invert.command = "invert";
  invert.bound_mapping = mirror->mapping;
  EngineResponse response = mapinv::ExecuteRequest(invert, BaseOptions());
  MAPINV_RETURN_NOT_OK(response.status);
  mirror->memo = response.result;
  return Status::OK();
}

// Executes one request against the mirror, calling the layers the server
// would, with a span around each call.
Status ServeRunner::MirrorDispatch(const ReqSpec& req,
                                   const ExecutionOptions& options,
                                   Mirror* mirror, EngineResponse* response) {
  SpanLog* log = &mirror->log;
  const std::string& name = spec_.held[req.held].name;
  if (req.command == "exchange") {
    Result<Instance> target = Status::Internal("stage not run");
    {
      ScopedSpan span(log, "chase.forward");
      target = mapinv::ChaseTgds(*mirror->mapping, *mirror->registered.at(name),
                                 options);
    }
    MAPINV_RETURN_NOT_OK(target.status());
    ScopedSpan span(log, "data.render");
    response->result = target->ToString() + "\n";
    response->kind = ResultKind::kInstance;
    mirror->values["chase.facts"] += static_cast<double>(target->TotalSize());
    target = Status::Internal("released");
  } else if (req.command == "rewrite") {
    Result<mapinv::ConjunctiveQuery> query = Status::Internal("stage not run");
    {
      ScopedSpan span(log, "parser.mapping");
      query = mapinv::ParseCq(req.query);
    }
    MAPINV_RETURN_NOT_OK(query.status());
    Result<mapinv::UnionCq> rewriting = Status::Internal("stage not run");
    {
      ScopedSpan span(log, "rewrite");
      rewriting = mapinv::RewriteOverSource(*mirror->mapping, *query, options);
    }
    MAPINV_RETURN_NOT_OK(rewriting.status());
    ScopedSpan span(log, "logic.render");
    response->result = rewriting->ToString() + "\n";
    response->kind = ResultKind::kUnionCq;
    mirror->values["rewrite.disjuncts"] +=
        static_cast<double>(rewriting->disjuncts.size());
    rewriting = Status::Internal("released");
  } else if (req.command == "invert") {
    // Served from the session memo.
    response->result = mirror->memo;
    response->kind = ResultKind::kReverseMapping;
  } else if (req.command == "instance.append" ||
             req.command == "exchange-delta") {
    Result<std::shared_ptr<MaintainedSolution>> solution =
        Status::Internal("stage not run");
    {
      // Creating the maintained solution on first use copies the seed rows.
      ScopedSpan span(log, "chase.delta");
      solution = mirror->MaintainedFor(name);
    }
    MAPINV_RETURN_NOT_OK(solution.status());
    {
      ScopedSpan span(log, "parser.instance");
      MAPINV_RETURN_NOT_OK((*solution)->AppendText(req.text).status());
    }
    ScopedSpan span(log, "chase.delta");
    MAPINV_ASSIGN_OR_RETURN(response->result,
                            (*solution)->RefreshAndRender(options));
    response->kind = ResultKind::kInstance;
    // Publish the grown source, as the session does.
    mirror->registered[name] =
        std::make_shared<const Instance>((*solution)->SourceSnapshot());
  } else if (req.command == "instance.put") {
    Result<Instance> parsed = Status::Internal("stage not run");
    {
      ScopedSpan span(log, "parser.instance");
      parsed = mapinv::ParseInstance(req.text, *mirror->mapping->source);
    }
    MAPINV_RETURN_NOT_OK(parsed.status());
    ScopedSpan span(log, "chase.delta");
    mirror->registered[name] =
        std::make_shared<const Instance>(std::move(*parsed));
    mirror->maintained.erase(name);
    response->result = "instance '" + name + "' registered in session '" +
                       SessionName(req.conn) + "'";
    response->kind = ResultKind::kText;
  }
  return Status::OK();
}

Result<ResponseKey> ServeRunner::MirrorExecute(const ReqSpec& req,
                                               const std::string& wire,
                                               int64_t id, Mirror* mirror) {
  mapinv::ExecStats stats;
  mapinv::SymbolContext symbols;
  ExecutionOptions options = BaseOptions();
  options.stats = &stats;
  options.symbols = &symbols;
  EngineResponse response;
  response.id = id;
  {
    ScopedSpan request_span(&mirror->log, "request");
    {
      // The server's decoding of the request frame; the mirror dispatches
      // from the list entry itself.
      ScopedSpan span(&mirror->log, "serve.request_decode");
      MAPINV_ASSIGN_OR_RETURN(Json json, Json::Parse(wire));
      MAPINV_RETURN_NOT_OK(mapinv::EngineRequestFromJson(json).status());
    }
    Status status = MirrorDispatch(req, options, mirror, &response);
    MAPINV_RETURN_NOT_OK(status);
    response.stats = stats.Snapshot();
    ScopedSpan span(&mirror->log, "engine.serialize");
    (void)mapinv::ResponseToJson(response).Serialize();
  }
  mirror->counters.Add(response.stats);
  return KeyOf(response);
}

PassResult ServeRunner::Pass(bool traced, SpanLog* log, LayerValues* values) {
  PassResult pass;
  // Per-connection sublists, in list order.
  std::vector<std::vector<size_t>> lists(kConnections);
  std::vector<std::vector<std::string>> wires(kConnections);
  for (size_t i = 0; i < spec_.timed.size(); ++i) {
    const int c = spec_.timed[i].conn;
    lists[c].push_back(i);
    wires[c].push_back(Wire(spec_.timed[i], static_cast<int64_t>(i)));
  }
  std::vector<Mirror> mirrors(kConnections);
  if (traced) {
    for (int c = 0; c < kConnections; ++c) {
      Status status = MirrorSetup(c, &mirrors[c]);
      if (!status.ok()) {
        pass.failed = 1;
        pass.errors.push_back("mirror set-up: " + status.ToString());
        return pass;
      }
    }
  }
  Result<Json> before = ServerMetrics();

  struct ConnResult {
    std::vector<double> latencies_ms;
    Digest digest;
    uint64_t failed = 0;
    std::vector<std::string> errors;
  };
  std::vector<ConnResult> results(kConnections);
  std::latch start_line(kConnections + 1);
  auto worker = [&](int c) {
    ConnResult& out = results[c];
    Mirror& mirror = mirrors[c];
    std::string reply;
    start_line.arrive_and_wait();
    for (size_t k = 0; k < lists[c].size(); ++k) {
      const size_t i = lists[c][k];
      const ReqSpec& req = spec_.timed[i];
      const bool is_metrics = req.command == "metrics";
      mirror.log.set_request(static_cast<uint32_t>(i));
      const int64_t t0 = NowNs();
      Status sent = Status::OK();
      Result<ResponseKey> key = Status::Internal("not sent");
      {
        ScopedSpan span(traced ? &mirror.log : nullptr, "serve.roundtrip");
        sent = conns_[c]->Call(wires[c][k], &reply);
      }
      if (sent.ok()) {
        ScopedSpan span(traced ? &mirror.log : nullptr, "serve.reply_decode");
        key = WireKey(reply, is_metrics);
      }
      if (key.ok()) AddToDigest(*key, &out.digest);
      out.latencies_ms.push_back(NsToMs(NowNs() - t0));
      std::string error;
      if (!sent.ok()) {
        error = sent.ToString();
      } else if (!key.ok()) {
        error = key.status().ToString();
      } else if (key->status != "ok") {
        error = reply.substr(0, 200);
      } else if (traced && !is_metrics) {
        Result<ResponseKey> local =
            MirrorExecute(req, wires[c][k], static_cast<int64_t>(i), &mirror);
        if (!local.ok()) {
          error = "mirror: " + local.status().ToString();
        } else if (local->status != key->status || local->kind != key->kind ||
                   local->result != key->result) {
          error = "server and in-process replies differ";
        }
      }
      if (!error.empty()) {
        ++out.failed;
        if (out.errors.size() < 3) {
          out.errors.push_back(std::to_string(i) + " " + req.command + ": " +
                               error);
        }
        if (!sent.ok()) {
          // The connection is gone: the rest of its list fails unsent.
          out.failed += lists[c].size() - k - 1;
          break;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(worker, c);
  start_line.arrive_and_wait();
  const int64_t start = NowNs();
  for (std::thread& t : threads) t.join();
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;

  Digest digest;
  for (int c = 0; c < kConnections; ++c) {
    ConnResult& r = results[c];
    pass.latencies_ms.insert(pass.latencies_ms.end(), r.latencies_ms.begin(),
                             r.latencies_ms.end());
    digest.Add(r.digest.Hex());
    pass.failed += r.failed;
    pass.errors.insert(pass.errors.end(), r.errors.begin(), r.errors.end());
  }
  pass.attempted = spec_.timed.size();
  pass.digest = digest.Hex();

  // Server-side counters over the pass, from the metrics verb.
  Result<Json> after = ServerMetrics();
  if (!before.ok() || !after.ok()) {
    pass.errors.push_back("metrics verb failed");
    ++pass.failed;
  } else if (values != nullptr) {
    auto delta = [&](const char* key, bool in_stats) {
      return SessionSum(*after, key, in_stats) -
             SessionSum(*before, key, in_stats);
    };
    (*values)["serve.memo_hits"] = delta("inverse_cache_hits", false);
    (*values)["server.cache_hits"] = delta("cache_hits", true);
    (*values)["server.cache_misses"] = delta("cache_misses", true);
    const Json* server_after = after->Find("server");
    const Json* server_before = before->Find("server");
    if (server_after != nullptr && server_before != nullptr) {
      (*values)["serve.rejected"] =
          static_cast<double>(server_after->GetInt("requests_rejected") -
                              server_before->GetInt("requests_rejected"));
    }
  }
  if (traced) {
    for (Mirror& mirror : mirrors) {
      log->Append(mirror.log);
      for (const auto& [name, value] : mirror.values) (*values)[name] += value;
      pass.counters.Merge(mirror.counters);
    }
  }
  return pass;
}

Status ServeRunner::Check() {
  // The same sessionless request over the socket and in process must give
  // byte-identical response documents; exchange targets must satisfy the
  // mapping.
  Connection conn;
  MAPINV_RETURN_NOT_OK(conn.Open(SocketPath()));
  for (size_t h = 0; h < spec_.held.size(); h += 2) {
    const HeldSpec& held = spec_.held[h];
    EngineRequest request;
    request.id = static_cast<int64_t>(h);
    request.command = "exchange";
    request.mapping = spec_.mappings[held.mapping];
    request.instance = held.text;
    std::string reply;
    MAPINV_RETURN_NOT_OK(
        conn.Call(mapinv::EngineRequestToJson(request).Serialize(), &reply));
    EngineResponse local = mapinv::ExecuteRequest(request, BaseOptions());
    MAPINV_RETURN_NOT_OK(local.status);
    if (mapinv::ResponseToJson(local).Serialize() != reply) {
      return Status::Internal("held " + std::to_string(h) +
                              ": server and in-process exchange documents "
                              "differ");
    }
    MAPINV_ASSIGN_OR_RETURN(TgdMapping mapping,
                            mapinv::LoadMappingSpec(request.mapping));
    MAPINV_ASSIGN_OR_RETURN(Instance source,
                            mapinv::ParseInstance(held.text, *mapping.source));
    MAPINV_ASSIGN_OR_RETURN(
        bool satisfied,
        mapinv::SatisfiesTgds(mapping, source, *local.instance_artifact));
    if (!satisfied) {
      return Status::Internal("exchange target violates the tgds");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Runner>> MakeServeRunner(const WorkloadSpec& spec,
                                                const ServeOptions& options) {
  auto runner = std::make_unique<ServeRunner>(spec, options);
  MAPINV_RETURN_NOT_OK(runner->WriteSnapshots());
  return std::unique_ptr<Runner>(std::move(runner));
}

}  // namespace reqbench
