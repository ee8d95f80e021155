/// \file server.h
/// \brief mapinv_serve: a multi-tenant inversion service over unix/TCP
/// sockets.
///
/// Architecture (one process, no external dependencies):
///
///   * an acceptor thread polls the listening sockets (unix and/or TCP) and
///     a self-pipe; each accepted connection gets its own thread running
///     the frame loop (read → dispatch → write). Concurrency across
///     requests comes from connections; parallelism *inside* a request
///     comes from the shared ThreadPool, exactly as in the library;
///   * a watchdog thread polls executing connections for POLLRDHUP: a
///     client that disconnects mid-request gets its CancelToken fired, so
///     abandoned work unwinds at the next poll point instead of running to
///     completion (docs/SERVING.md "disconnect semantics");
///   * admission control: at most `max_inflight` requests execute at once;
///     excess requests are answered immediately with resource-exhausted so
///     clients can back off (brownout is per-request via
///     options.on_exhausted = "partial");
///   * sessions (serve/session.h) hold mapping + instance snapshots;
///     compute requests naming a session run against shared immutable
///     state, so cross-session corruption is structurally impossible.
///
/// Protocol verbs on top of the engine commands: session.open,
/// session.close, session.list, instance.put, instance.append, instance.save,
/// instance.load, job.start, job.status, job.cancel, job.resume, metrics,
/// server.stop (the last only when ServerConfig::allow_stop). Responses are
/// canonical EngineResponse documents (engine/request.h). instance.append
/// and the exchange-delta engine command drive the session's incrementally
/// maintained solutions (chase/maintained.h).
///
/// Jobs (docs/JOBS.md): job.start runs an engine command (the "run" field)
/// on a dedicated background thread with its own CancelToken, so the work
/// survives the starting connection's disconnect — the watchdog only cancels
/// work executing *on* a connection. Pointing the job's options at a
/// checkpoint directory makes it durable across a server kill: job.resume
/// re-submits the same request with options.resume forced on, and the
/// engine's checkpointer picks up from the newest good generation. Idle
/// sessions are evicted by the watchdog when ServerConfig::session_ttl_ms is
/// set (sessions_evicted metric).

#ifndef MAPINV_SERVE_SERVER_H_
#define MAPINV_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "base/status.h"
#include "engine/execution_options.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace mapinv {

class ThreadPool;

/// \brief Server configuration; every limit has a safe default.
struct ServerConfig {
  /// Unix-domain socket path; empty disables the unix listener.
  std::string unix_path;
  /// TCP port; -1 disables the TCP listener, 0 binds an ephemeral port
  /// (read it back with Server::tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Per-request parallelism budget (ExecutionOptions::threads). Requests
  /// may lower it, never raise it. 1 = sequential (deterministic default).
  int threads = 1;
  /// Workers in the shared pool; 0 sizes it to `threads - 1`.
  int pool_workers = 0;
  int max_connections = 128;
  /// Admission control: requests executing at once; 0 = max_connections.
  int max_inflight = 0;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Default per-request limits and deadline (requests may override).
  ResourceLimits limits;
  OnExhausted on_exhausted = OnExhausted::kFail;
  size_t max_sessions = 256;
  /// Honor the server.stop request (handy for tests/CI; disable for
  /// long-lived daemons that should only stop on signals).
  bool allow_stop = true;
  /// Idle-session TTL in milliseconds; 0 disables eviction. The watchdog
  /// sweeps roughly once a second and closes every session whose last
  /// traffic is older than this.
  int64_t session_ttl_ms = 0;
  /// Background jobs held at once (running or finished-but-unreaped);
  /// job.start past the cap is refused with resource-exhausted.
  size_t max_jobs = 64;
};

/// \brief The server counter registry: one `X(name)` row per ServerMetrics
/// counter, in the order the `metrics` verb renders them (the in-flight
/// gauge follows them). Adding a counter is one row here plus the code that
/// bumps it.
#define MAPINV_SERVER_COUNTERS(X)                                            \
  X(connections_accepted)                                                    \
  X(connections_rejected)                                                    \
  X(frames_read)                                                             \
  X(malformed_frames)                                                        \
  X(requests)                                                                \
  X(requests_ok)                                                             \
  X(requests_error)                                                          \
  /* admission control */                                                    \
  X(requests_rejected)                                                       \
  X(disconnect_cancels)                                                      \
  /* idle-TTL sweeps */                                                      \
  X(sessions_evicted)                                                        \
  /* job.start + job.resume */                                               \
  X(jobs_started)                                                            \
  /* background jobs completed */                                            \
  X(jobs_finished)

/// \brief Server-wide counters (beyond the per-session metrics).
struct ServerMetrics {
#define MAPINV_SERVER_FIELD(name) std::atomic<uint64_t> name{0};
  MAPINV_SERVER_COUNTERS(MAPINV_SERVER_FIELD)
#undef MAPINV_SERVER_FIELD
};

/// \brief The daemon. Start() binds and spawns the threads; Stop() (or a
/// server.stop request) drains: stops accepting, cancels in-flight work,
/// joins every thread. One Server per process-lifetime-segment; not
/// restartable.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns acceptor + watchdog. kInvalidArgument
  /// if no listener is configured; kInternal on socket failures.
  Status Start();

  /// Requests shutdown (idempotent, safe from any thread — including a
  /// connection thread handling server.stop).
  void RequestStop();

  /// Blocks until the server has fully stopped and every thread is joined.
  void Wait();

  /// The bound TCP port (resolved when tcp_port = 0 was requested); -1 if
  /// no TCP listener.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  const ServerMetrics& metrics() const { return metrics_; }
  SessionManager& sessions() { return sessions_; }

  /// The full metrics document served to `metrics` requests.
  Json MetricsJson() const;

 private:
  struct Connection {
    /// Closed and reset under connections_mu_, which Wait() and the
    /// watchdog hold to read it; the connection's own thread reads it bare.
    int fd = -1;
    std::thread thread;
    CancelToken cancel;
    /// True while a request is executing on this connection — the watchdog
    /// only watches executing connections (a poll on an idle connection
    /// would see POLLIN for the next pipelined request, not a disconnect).
    std::atomic<bool> executing{false};
    std::atomic<bool> done{false};
  };

  /// One background job: an engine request executing on its own thread,
  /// detached from any connection (disconnects cannot cancel it — only
  /// job.cancel or server shutdown fire its token).
  struct Job {
    std::string name;
    EngineRequest request;  ///< the engine command the job runs
    CancelToken cancel;
    std::thread thread;
    std::atomic<bool> done{false};
    /// Valid once done is true (release/acquire on `done` orders it).
    EngineResponse response;
  };

  void AcceptLoop();
  void WatchdogLoop();
  void ConnectionLoop(Connection* connection);
  /// Dispatches one parsed request; returns the response payload to frame.
  /// Sets `*stop_after_reply` for server.stop.
  std::string HandleRequest(const Json& request_json, Connection* connection,
                            bool* stop_after_reply);
  EngineResponse HandleServeVerb(const EngineRequest& request,
                                 Connection* connection,
                                 bool* stop_after_reply);
  EngineResponse HandleEngineCommand(EngineRequest request,
                                     Connection* connection);
  /// job.start / job.status / job.cancel / job.resume.
  EngineResponse HandleJobVerb(const EngineRequest& request);
  /// Spawns the background thread for job.start / job.resume (`resume`
  /// forces options.resume on the inner request).
  EngineResponse StartJob(const EngineRequest& request, bool resume);
  ExecutionOptions BaseOptions(Connection* connection);
  void ReapFinishedConnections();

  ServerConfig config_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int stop_pipe_[2] = {-1, -1};

  std::unique_ptr<ThreadPool> pool_;
  SessionManager sessions_;
  ServerMetrics metrics_;

  std::atomic<bool> stopping_{false};
  std::atomic<int> inflight_{0};
  std::thread acceptor_;
  std::thread watchdog_;
  std::mutex connections_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// Background jobs by name. Entries persist after completion so
  /// job.status can report the result; a finished job's slot is reclaimed
  /// by starting a new job under the same name.
  std::mutex jobs_mu_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;

  std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;
  bool started_ = false;
  bool stopped_ = false;
  /// First Wait() caller performs the join; later callers wait for it.
  bool joining_claimed_in_wait_ = false;
};

}  // namespace mapinv

#endif  // MAPINV_SERVE_SERVER_H_
