#include "serve/server.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

#include "engine/thread_pool.h"

namespace mapinv {
namespace {

Status SysError(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

// Builds a no-result response carrying `status` (or a text result when OK).
EngineResponse VerbResponse(int64_t id, Status status,
                            std::string text = std::string(),
                            ResultKind kind = ResultKind::kText) {
  EngineResponse response;
  response.id = id;
  response.status = std::move(status);
  if (response.status.ok()) {
    response.kind = kind;
    response.result = std::move(text);
  }
  return response;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), sessions_(config_.max_sessions) {
  if (config_.threads < 1) config_.threads = 1;
  if (config_.max_inflight <= 0) config_.max_inflight = config_.max_connections;
  if (config_.pool_workers <= 0) config_.pool_workers = config_.threads - 1;
}

Server::~Server() {
  RequestStop();
  Wait();
}

Status Server::Start() {
  if (config_.unix_path.empty() && config_.tcp_port < 0) {
    return Status::InvalidArgument(
        "server needs a unix path or a TCP port to listen on");
  }
  if (::pipe(stop_pipe_) != 0) return SysError("pipe");

  if (!config_.unix_path.empty()) {
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) return SysError("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: '" +
                                     config_.unix_path + "'");
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return SysError("bind(unix)");
    }
    if (::listen(unix_fd_, 128) != 0) return SysError("listen(unix)");
  }

  if (config_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) return SysError("socket(tcp)");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(config_.tcp_port));
    if (::inet_pton(AF_INET, config_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad TCP host '" + config_.tcp_host +
                                     "'");
    }
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return SysError("bind(tcp)");
    }
    if (::listen(tcp_fd_, 128) != 0) return SysError("listen(tcp)");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return SysError("getsockname");
    }
    tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }

  pool_ = std::make_unique<ThreadPool>(config_.pool_workers);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  {
    std::lock_guard<std::mutex> lock(stopped_mu_);
    started_ = true;
  }
  return Status::OK();
}

void Server::RequestStop() {
  if (stopping_.exchange(true)) {
    stopped_cv_.notify_all();
    return;
  }
  if (stop_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] ssize_t ignored = ::write(stop_pipe_[1], &byte, 1);
  }
  stopped_cv_.notify_all();
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(stopped_mu_);
    if (!started_) return;
    stopped_cv_.wait(lock, [this] { return stopping_.load() || stopped_; });
    if (stopped_) return;
    if (!joining_claimed_in_wait_) {
      joining_claimed_in_wait_ = true;
    } else {
      stopped_cv_.wait(lock, [this] { return stopped_; });
      return;
    }
  }
  // Sole teardown path from here.
  if (acceptor_.joinable()) acceptor_.join();
  if (watchdog_.joinable()) watchdog_.join();
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) {
      connection->cancel.Cancel();
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  // Background jobs: cancel, then join. A checkpointed job unwinds at its
  // next poll point; its directory resumes it on the next server start.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [_, job] : jobs_) job->cancel.Cancel();
  }
  for (auto& [_, job] : jobs_) {
    if (job->thread.joinable()) job->thread.join();
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(config_.unix_path.c_str());
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stopped_mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void Server::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {stop_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[nfds++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = {tcp_fd_, POLLIN, 0};
    const int ready = ::poll(fds, nfds, 500);
    if (stopping_.load()) break;
    if (ready <= 0) continue;
    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;
      metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      ReapFinishedConnections();
      {
        std::lock_guard<std::mutex> lock(connections_mu_);
        if (connections_.size() >=
            static_cast<size_t>(config_.max_connections)) {
          metrics_.connections_rejected.fetch_add(1,
                                                  std::memory_order_relaxed);
          const EngineResponse refusal = VerbResponse(
              0, Status::ResourceExhausted(
                     "connection capacity reached (" +
                     std::to_string(config_.max_connections) + ")"));
          (void)WriteFrame(client, ResponseToJson(refusal).Serialize(),
                           config_.max_frame_bytes);
          ::close(client);
          continue;
        }
        auto connection = std::make_unique<Connection>();
        connection->fd = client;
        Connection* raw = connection.get();
        connection->thread =
            std::thread([this, raw] { ConnectionLoop(raw); });
        connections_.push_back(std::move(connection));
      }
    }
  }
}

void Server::WatchdogLoop() {
  int ticks_until_sweep = 0;
  while (!stopping_.load()) {
    pollfd stop = {stop_pipe_[0], POLLIN, 0};
    ::poll(&stop, 1, 20);
    if (stopping_.load()) break;
    // Idle-session eviction (--session-ttl-ms), roughly once a second.
    if (config_.session_ttl_ms > 0 && --ticks_until_sweep <= 0) {
      ticks_until_sweep = 50;
      const size_t evicted = sessions_.EvictIdle(config_.session_ttl_ms);
      if (evicted > 0) {
        metrics_.sessions_evicted.fetch_add(evicted,
                                            std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) {
      if (!connection->executing.load(std::memory_order_acquire)) continue;
      if (connection->cancel.Cancelled()) continue;
      pollfd probe = {connection->fd,
                      static_cast<short>(POLLRDHUP | POLLERR | POLLHUP), 0};
      if (::poll(&probe, 1, 0) <= 0) continue;
      if ((probe.revents & (POLLRDHUP | POLLERR | POLLHUP | POLLNVAL)) != 0) {
        connection->cancel.Cancel();
        metrics_.disconnect_cancels.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

ExecutionOptions Server::BaseOptions(Connection* connection) {
  ExecutionOptions options;
  static_cast<ResourceLimits&>(options) = config_.limits;
  options.threads = config_.threads;
  options.pool = pool_.get();
  options.on_exhausted = config_.on_exhausted;
  options.cancel = &connection->cancel;
  return options;
}

EngineResponse Server::HandleServeVerb(const EngineRequest& request,
                                       Connection* connection,
                                       bool* stop_after_reply) {
  const std::string& command = request.command;
  if (command == "session.open") {
    Result<std::shared_ptr<Session>> session = sessions_.Open(request.session);
    if (!session.ok()) return VerbResponse(request.id, session.status());
    if (!request.mapping.empty()) {
      Status set = (*session)->SetMapping(request.mapping);
      if (!set.ok()) {
        // A session with no parseable mapping is useless; undo the open.
        (void)sessions_.Close(request.session);
        return VerbResponse(request.id, std::move(set));
      }
    }
    return VerbResponse(request.id, Status::OK(),
                        "session '" + request.session + "' open");
  }
  if (command == "session.close") {
    Status closed = sessions_.Close(request.session);
    if (!closed.ok()) return VerbResponse(request.id, std::move(closed));
    return VerbResponse(request.id, Status::OK(),
                        "session '" + request.session + "' closed");
  }
  if (command == "session.list") {
    Json names = Json::MakeArray();
    for (const std::string& name : sessions_.Names()) {
      names.Append(Json(name));
    }
    return VerbResponse(request.id, Status::OK(), names.Serialize());
  }
  if (command == "instance.put") {
    Result<std::shared_ptr<Session>> session = sessions_.Get(request.session);
    if (!session.ok()) return VerbResponse(request.id, session.status());
    Status put = (*session)->PutInstance(request.name, request.instance);
    if (!put.ok()) return VerbResponse(request.id, std::move(put));
    return VerbResponse(request.id, Status::OK(),
                        "instance '" + request.name + "' registered in "
                        "session '" + request.session + "'");
  }
  if (command == "instance.append") {
    Result<std::shared_ptr<Session>> session = sessions_.Get(request.session);
    if (!session.ok()) return VerbResponse(request.id, session.status());
    // The appended rows ride in "delta" ("instance" also accepted). The
    // verb chases — incrementally — so it runs like an engine command:
    // cancellable, under the server's execution budget.
    const std::string& payload =
        !request.delta.empty() ? request.delta : request.instance;
    if (payload.empty()) {
      return VerbResponse(
          request.id,
          Status::InvalidArgument("instance.append needs rows in \"delta\""));
    }
    connection->cancel.Reset();
    connection->executing.store(true, std::memory_order_release);
    std::string rendered;
    size_t appended = 0;
    Status status = (*session)->AppendInstance(
        request.name, payload, BaseOptions(connection), &rendered, &appended);
    connection->executing.store(false, std::memory_order_release);
    if (!status.ok()) return VerbResponse(request.id, std::move(status));
    return VerbResponse(request.id, Status::OK(), std::move(rendered),
                        ResultKind::kInstance);
  }
  if (command == "instance.save") {
    Result<std::shared_ptr<Session>> session = sessions_.Get(request.session);
    if (!session.ok()) return VerbResponse(request.id, session.status());
    Status saved = (*session)->SaveInstance(request.name, request.path);
    if (!saved.ok()) return VerbResponse(request.id, std::move(saved));
    return VerbResponse(request.id, Status::OK(),
                        "instance '" + request.name + "' saved to '" +
                        request.path + "'");
  }
  if (command == "instance.load") {
    Result<std::shared_ptr<Session>> session = sessions_.Get(request.session);
    if (!session.ok()) return VerbResponse(request.id, session.status());
    Status loaded = (*session)->LoadInstance(request.name, request.path);
    if (!loaded.ok()) return VerbResponse(request.id, std::move(loaded));
    return VerbResponse(request.id, Status::OK(),
                        "instance '" + request.name + "' loaded from '" +
                        request.path + "' into session '" + request.session +
                        "'");
  }
  if (command == "job.start" || command == "job.status" ||
      command == "job.cancel" || command == "job.resume") {
    return HandleJobVerb(request);
  }
  if (command == "metrics") {
    return VerbResponse(request.id, Status::OK(), MetricsJson().Serialize());
  }
  if (command == "server.stop") {
    if (!config_.allow_stop) {
      return VerbResponse(
          request.id,
          Status::InvalidArgument("server.stop is disabled on this server"));
    }
    *stop_after_reply = true;
    return VerbResponse(request.id, Status::OK(), "stopping");
  }
  return VerbResponse(request.id, Status::InvalidArgument(
                                      "unknown command '" + command + "'"));
}

EngineResponse Server::StartJob(const EngineRequest& request, bool resume) {
  if (request.name.empty()) {
    return VerbResponse(
        request.id, Status::InvalidArgument(request.command +
                                            " needs a job \"name\""));
  }
  if (request.run.empty() || !IsEngineCommand(request.run)) {
    return VerbResponse(
        request.id,
        Status::InvalidArgument(request.command +
                                " needs an engine command in \"run\""));
  }
  EngineRequest inner = request;
  inner.command = inner.run;
  inner.run.clear();
  if (resume) inner.options.resume = true;
  // Session payloads resolve now, on the caller's thread: the job holds
  // shared_ptr copies, so a later session.close or idle eviction cannot
  // yank state out from under the running enumeration.
  if (!inner.session.empty()) {
    Result<std::shared_ptr<Session>> found = sessions_.Get(inner.session);
    if (!found.ok()) return VerbResponse(request.id, found.status());
    if (inner.bound_mapping == nullptr && inner.mapping.empty()) {
      inner.bound_mapping = (*found)->mapping();
    }
    if (!inner.instance_ref.empty()) {
      inner.bound_instance = (*found)->instance(inner.instance_ref);
      if (inner.bound_instance == nullptr) {
        return VerbResponse(
            request.id,
            Status::NotFound("no instance '" + inner.instance_ref +
                             "' in session '" + inner.session + "'"));
      }
    }
  }
  auto job = std::make_shared<Job>();
  job->name = request.name;
  job->request = std::move(inner);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(request.name);
    if (it != jobs_.end()) {
      if (!it->second->done.load(std::memory_order_acquire)) {
        return VerbResponse(
            request.id, Status::InvalidArgument("job '" + request.name +
                                                "' is still running"));
      }
      // Reclaim the finished slot (its thread has already run to the final
      // store; the join is immediate).
      if (it->second->thread.joinable()) it->second->thread.join();
      jobs_.erase(it);
    }
    if (jobs_.size() >= config_.max_jobs) {
      return VerbResponse(
          request.id,
          Status::ResourceExhausted("job capacity reached (" +
                                    std::to_string(config_.max_jobs) + ")"));
    }
    Job* raw = job.get();
    job->thread = std::thread([this, raw] {
      ExecutionOptions options;
      static_cast<ResourceLimits&>(options) = config_.limits;
      options.threads = config_.threads;
      options.pool = pool_.get();
      options.on_exhausted = config_.on_exhausted;
      options.cancel = &raw->cancel;
      raw->response = ExecuteRequest(raw->request, options);
      raw->done.store(true, std::memory_order_release);
      metrics_.jobs_finished.fetch_add(1, std::memory_order_relaxed);
    });
    jobs_[request.name] = std::move(job);
  }
  metrics_.jobs_started.fetch_add(1, std::memory_order_relaxed);
  return VerbResponse(request.id, Status::OK(),
                      "job '" + request.name + "' " +
                          (resume ? "resuming" : "started"));
}

EngineResponse Server::HandleJobVerb(const EngineRequest& request) {
  const std::string& command = request.command;
  if (command == "job.start") return StartJob(request, /*resume=*/false);
  if (command == "job.resume") return StartJob(request, /*resume=*/true);
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(request.name);
    if (it != jobs_.end()) job = it->second;
  }
  if (job == nullptr) {
    return VerbResponse(request.id,
                        Status::NotFound("no job '" + request.name + "'"));
  }
  if (command == "job.status") {
    Json json = Json::MakeObject();
    json.Set("name", Json(job->name));
    if (!job->done.load(std::memory_order_acquire)) {
      json.Set("state",
               Json(job->cancel.Cancelled() ? "cancelling" : "running"));
    } else {
      const EngineResponse& finished = job->response;
      json.Set("state",
               Json(finished.status.ok() ? "done"
                    : finished.status.code() == StatusCode::kCancelled
                        ? "cancelled"
                        : "error"));
      json.Set("response", ResponseToJson(finished));
    }
    return VerbResponse(request.id, Status::OK(), json.Serialize());
  }
  if (command == "job.cancel") {
    job->cancel.Cancel();
    return VerbResponse(request.id, Status::OK(),
                        "job '" + job->name + "' cancel requested");
  }
  return VerbResponse(request.id, Status::InvalidArgument(
                                      "unknown command '" + command + "'"));
}

EngineResponse Server::HandleEngineCommand(EngineRequest request,
                                           Connection* connection) {
  // Admission control: answer immediately instead of queueing unboundedly.
  const int inflight = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (inflight >= config_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
    return VerbResponse(
        request.id,
        Status::ResourceExhausted(
            "admission control: " + std::to_string(config_.max_inflight) +
            " requests already in flight"));
  }

  std::shared_ptr<Session> session;
  EngineResponse response;
  bool served_from_cache = false;
  if (!request.session.empty()) {
    Result<std::shared_ptr<Session>> found = sessions_.Get(request.session);
    if (!found.ok()) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      return VerbResponse(request.id, found.status());
    }
    session = *found;
    if (request.bound_mapping == nullptr && request.mapping.empty()) {
      request.bound_mapping = session->mapping();
    }
    if (!request.instance_ref.empty()) {
      if (request.command == "exchange-delta") {
        // Bind the session's maintained solution (created on first use,
        // seeded from the registered snapshot) instead of the immutable
        // instance: the command appends to and refreshes it in place.
        Result<std::shared_ptr<MaintainedSolution>> maintained =
            session->MaintainedFor(request.instance_ref);
        if (!maintained.ok()) {
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
          return VerbResponse(request.id, maintained.status());
        }
        request.bound_maintained = *maintained;
      } else {
        request.bound_instance = session->instance(request.instance_ref);
        if (request.bound_instance == nullptr) {
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
          return VerbResponse(
              request.id,
              Status::NotFound("no instance '" + request.instance_ref +
                               "' in session '" + request.session + "'"));
        }
      }
    }
    if (request.command == "invert" || request.command == "maxrec") {
      std::string cached_text;
      if (auto inverse = session->CachedInverse(request.command, &cached_text);
          inverse != nullptr) {
        response = VerbResponse(request.id, Status::OK(),
                                std::move(cached_text),
                                ResultKind::kReverseMapping);
        served_from_cache = true;
      }
    } else if (request.command == "roundtrip" || request.command == "check") {
      // The memoized inverse also short-circuits the recovery recomputation
      // inside roundtrip.
      if (request.command == "roundtrip") {
        request.bound_reverse = session->CachedInverse("invert", nullptr);
      }
    }
  }

  if (!served_from_cache) {
    connection->cancel.Reset();
    connection->executing.store(true, std::memory_order_release);
    response = ExecuteRequest(request, BaseOptions(connection));
    connection->executing.store(false, std::memory_order_release);
    if (session != nullptr && response.status.ok() &&
        response.reverse_artifact != nullptr &&
        (request.command == "invert" || request.command == "maxrec")) {
      session->CacheInverse(request.command, response.reverse_artifact,
                            response.result);
    }
    if (session != nullptr && response.status.ok() &&
        request.command == "exchange-delta" &&
        request.bound_maintained != nullptr &&
        !request.instance_ref.empty()) {
      // Publish the grown source so later by-ref requests (plain exchange,
      // check, ...) see the appended rows too.
      session->SyncRegisteredSource(request.instance_ref,
                                    request.bound_maintained->SourceSnapshot());
    }
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  if (session != nullptr) session->RecordOutcome(response);
  return response;
}

std::string Server::HandleRequest(const Json& request_json,
                                  Connection* connection,
                                  bool* stop_after_reply) {
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  EngineResponse response;
  Result<EngineRequest> request = EngineRequestFromJson(request_json);
  if (!request.ok()) {
    response.status = request.status();
  } else if (IsEngineCommand(request->command)) {
    response = HandleEngineCommand(std::move(*request), connection);
  } else {
    response = HandleServeVerb(*request, connection, stop_after_reply);
  }
  if (response.status.ok()) {
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
  }
  return ResponseToJson(response).Serialize();
}

void Server::ConnectionLoop(Connection* connection) {
  std::string payload;
  while (!stopping_.load()) {
    Result<bool> frame =
        ReadFrame(connection->fd, config_.max_frame_bytes, &payload);
    if (!frame.ok()) {
      // Framing is broken: answer if the status is a protocol violation,
      // then drop the connection (we are no longer at a frame boundary).
      if (frame.status().code() == StatusCode::kMalformed) {
        metrics_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        EngineResponse refusal;
        refusal.status = frame.status();
        (void)WriteFrame(connection->fd, ResponseToJson(refusal).Serialize(),
                         config_.max_frame_bytes);
      }
      break;
    }
    if (!*frame) break;  // clean disconnect
    metrics_.frames_read.fetch_add(1, std::memory_order_relaxed);

    bool stop_after_reply = false;
    std::string reply;
    Result<Json> parsed = Json::Parse(payload);
    if (!parsed.ok()) {
      // Framing is intact, the payload is not JSON: application error,
      // connection survives.
      metrics_.requests.fetch_add(1, std::memory_order_relaxed);
      metrics_.requests_error.fetch_add(1, std::memory_order_relaxed);
      EngineResponse bad;
      bad.status = parsed.status();
      reply = ResponseToJson(bad).Serialize();
    } else {
      reply = HandleRequest(*parsed, connection, &stop_after_reply);
    }
    if (!WriteFrame(connection->fd, reply, config_.max_frame_bytes).ok()) {
      break;
    }
    if (stop_after_reply) {
      RequestStop();
      break;
    }
  }
  {
    // Wait() and the watchdog read fd under connections_mu_; closing under
    // it too means neither can act on a descriptor number reused since.
    std::lock_guard<std::mutex> lock(connections_mu_);
    ::close(connection->fd);
    connection->fd = -1;
  }
  connection->done.store(true, std::memory_order_release);
}

Json Server::MetricsJson() const {
  Json server = Json::MakeObject();
#define MAPINV_SERVER_METRIC(name) \
  server.Set(#name, Json(metrics_.name.load(std::memory_order_relaxed)));
  MAPINV_SERVER_COUNTERS(MAPINV_SERVER_METRIC)
#undef MAPINV_SERVER_METRIC
  server.Set("inflight", Json(static_cast<int64_t>(inflight_.load())));
  Json json = Json::MakeObject();
  json.Set("server", std::move(server));
  json.Set("sessions", sessions_.MetricsJson());
  return json;
}

}  // namespace mapinv
