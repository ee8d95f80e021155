// Tests for the serving layer: wire framing (serve/protocol.h), sessions
// (serve/session.h) and the daemon (serve/server.h).
//
// The load-bearing properties:
//   * framing violations (zero/oversized/truncated frames) are rejected and
//     close the connection; a non-JSON payload inside an intact frame is an
//     application error and the connection survives;
//   * concurrent sessions are isolated — interleaved traffic on four
//     connections never leaks one session's data into another's responses;
//   * a client that disconnects mid-request gets its work cancelled
//     (observable as ServerMetrics::disconnect_cancels);
//   * the server and ExecuteRequest produce byte-identical response
//     documents for the same request (the CLI/server parity contract);
//   * under random failpoint injection, retried-to-success sessions end in
//     exactly the state a clean run produces (differential equality).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "engine/failpoint.h"
#include "engine/request.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

#include "gtest/gtest.h"

namespace mapinv {
namespace {

// --- helpers ---------------------------------------------------------------

std::unique_ptr<Server> StartTcpServer(ServerConfig config = {}) {
  config.tcp_port = 0;  // ephemeral
  auto server = std::make_unique<Server>(std::move(config));
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return server;
}

int ConnectTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// One request/response exchange; the raw response payload bytes.
Result<std::string> Call(int fd, std::string_view payload) {
  MAPINV_RETURN_NOT_OK(WriteFrame(fd, payload));
  std::string out;
  MAPINV_ASSIGN_OR_RETURN(bool got,
                          ReadFrame(fd, kDefaultMaxFrameBytes, &out));
  if (!got) return Status::Internal("unexpected EOF");
  return out;
}

Json CallJson(int fd, const Json& request) {
  Result<std::string> raw = Call(fd, request.Serialize());
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  if (!raw.ok()) return Json();
  Result<Json> parsed = Json::Parse(*raw);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : Json();
}

Json MakeRequest(std::string command, std::string session = "") {
  Json json = Json::MakeObject();
  json.Set("id", Json(1));
  json.Set("command", Json(std::move(command)));
  if (!session.empty()) json.Set("session", Json(std::move(session)));
  return json;
}

// --- framing ---------------------------------------------------------------

TEST(ProtocolTest, FramesRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payloads[] = {"x", std::string("hello world"),
                                  std::string(100000, 'q')};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(WriteFrame(fds[0], payload).ok());
  }
  std::string read;
  for (const std::string& payload : payloads) {
    Result<bool> got = ReadFrame(fds[1], kDefaultMaxFrameBytes, &read);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(*got);
    EXPECT_EQ(read, payload);
  }
  // Closing the writer is a clean EOF at the frame boundary.
  ::close(fds[0]);
  Result<bool> eof = ReadFrame(fds[1], kDefaultMaxFrameBytes, &read);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(*eof);
  ::close(fds[1]);
}

TEST(ProtocolTest, RejectsZeroLengthFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char header[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fds[0], header, 4, 0), 4);
  std::string read;
  Result<bool> got = ReadFrame(fds[1], kDefaultMaxFrameBytes, &read);
  EXPECT_EQ(got.status().code(), StatusCode::kMalformed);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, RejectsOversizedDeclaredLength) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Declares 1 MiB against a 1 KiB limit.
  const unsigned char header[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_EQ(::send(fds[0], header, 4, 0), 4);
  std::string read;
  Result<bool> got = ReadFrame(fds[1], 1024, &read);
  EXPECT_EQ(got.status().code(), StatusCode::kMalformed);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, RejectsTruncatedFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char header[4] = {0, 0, 0, 10};
  ASSERT_EQ(::send(fds[0], header, 4, 0), 4);
  ASSERT_EQ(::send(fds[0], "abc", 3, 0), 3);
  ::close(fds[0]);  // EOF mid-frame
  std::string read;
  Result<bool> got = ReadFrame(fds[1], kDefaultMaxFrameBytes, &read);
  EXPECT_EQ(got.status().code(), StatusCode::kMalformed);
  ::close(fds[1]);
}

TEST(ProtocolTest, ReportsHeaderTruncatedMidFourBytes) {
  // EOF two bytes into the length prefix must be a clean truncated-header
  // error — the partial bytes must never be interpreted as a frame length.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char header[2] = {0x00, 0x01};
  ASSERT_EQ(::send(fds[0], header, 2, 0), 2);
  ::close(fds[0]);
  std::string read;
  Result<bool> got = ReadFrame(fds[1], kDefaultMaxFrameBytes, &read);
  EXPECT_EQ(got.status().code(), StatusCode::kMalformed);
  EXPECT_NE(got.status().ToString().find("truncated frame header"),
            std::string::npos)
      << got.status().ToString();
  ::close(fds[1]);
}

TEST(ProtocolTest, ReadFrameRetriesAcrossEintr) {
  // A signal delivered to a thread blocked in recv (handler installed
  // without SA_RESTART, so recv really returns EINTR) must not abort the
  // read: ReadFrame retries and delivers the complete frame.
  struct sigaction action = {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: recv fails with EINTR
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::atomic<bool> reading{false};
  std::string read;
  Result<bool> got = false;
  std::thread reader([&] {
    reading.store(true);
    got = ReadFrame(fds[1], kDefaultMaxFrameBytes, &read);
  });
  while (!reading.load()) std::this_thread::yield();

  // Interrupt the blocked recv a few times, completing the frame in stages
  // so every stage gets its own EINTR: header, then payload.
  const std::string payload = "interrupted but intact";
  const auto poke = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  poke();
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const unsigned char header[4] = {0, 0, static_cast<unsigned char>(length >> 8),
                                   static_cast<unsigned char>(length)};
  ASSERT_EQ(::send(fds[0], header, 4, 0), 4);
  poke();
  ASSERT_EQ(::send(fds[0], payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  reader.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got);
  EXPECT_EQ(read, payload);
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);
}

TEST(ProtocolTest, WriteRefusesPayloadAboveLimit) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_EQ(WriteFrame(fds[0], std::string(2048, 'x'), 1024).code(),
            StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- server: sessions and dispatch -----------------------------------------

TEST(ServerTest, SessionLifecycle) {
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());

  Json open = MakeRequest("session.open", "tenant");
  open.Set("mapping", Json("R(x,y) -> T(x,y)"));
  EXPECT_EQ(CallJson(fd, open).GetString("status"), "ok");

  Json put = MakeRequest("instance.put", "tenant");
  put.Set("name", Json("db"));
  put.Set("instance", Json("{ R(1,2) }"));
  EXPECT_EQ(CallJson(fd, put).GetString("status"), "ok");

  Json exchange = MakeRequest("exchange", "tenant");
  exchange.Set("instance_ref", Json("db"));
  Json response = CallJson(fd, exchange);
  EXPECT_EQ(response.GetString("status"), "ok");
  EXPECT_EQ(response.GetString("kind"), "instance");
  EXPECT_EQ(response.GetString("result"), "{ T(1,2) }\n");

  Json list = CallJson(fd, MakeRequest("session.list"));
  EXPECT_EQ(list.GetString("result"), "[\"tenant\"]");

  // Duplicate opens and unknown sessions are clean errors.
  EXPECT_EQ(CallJson(fd, open).GetString("status"), "error");
  Json ghost = MakeRequest("exchange", "nobody");
  ghost.Set("instance_ref", Json("db"));
  EXPECT_EQ(CallJson(fd, ghost).GetString("code"), "not-found");
  Json noref = MakeRequest("exchange", "tenant");
  noref.Set("instance_ref", Json("missing"));
  EXPECT_EQ(CallJson(fd, noref).GetString("code"), "not-found");

  EXPECT_EQ(CallJson(fd, MakeRequest("session.close", "tenant"))
                .GetString("status"),
            "ok");
  EXPECT_EQ(CallJson(fd, MakeRequest("session.close", "tenant"))
                .GetString("code"),
            "not-found");
  ::close(fd);
}

TEST(ServerTest, InvertIsMemoizedPerSession) {
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());
  Json open = MakeRequest("session.open", "memo");
  open.Set("mapping", Json("R(x,y) -> T(x,y)"));
  EXPECT_EQ(CallJson(fd, open).GetString("status"), "ok");

  Json invert = MakeRequest("invert", "memo");
  const std::string first = CallJson(fd, invert).GetString("result");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(CallJson(fd, invert).GetString("result"), first);

  auto session = server->sessions().Get("memo");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->MetricsSnapshot().inverse_cache_hits, 1u);
  ::close(fd);
}

TEST(ServerTest, IncrementalMaintenanceOverSession) {
  // instance.append + exchange-delta keep a per-session maintained target in
  // step with its registered source. A copy mapping has no existentials, so
  // every rendering is byte-comparable.
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());
  Json open = MakeRequest("session.open", "inc");
  open.Set("mapping", Json("R(x,y) -> T(x,y)"));
  EXPECT_EQ(CallJson(fd, open).GetString("status"), "ok");
  Json put = MakeRequest("instance.put", "inc");
  put.Set("name", Json("db"));
  put.Set("instance", Json("{ R(1,2) }"));
  EXPECT_EQ(CallJson(fd, put).GetString("status"), "ok");

  // First exchange-delta materialises the maintained target (full chase).
  Json delta0 = MakeRequest("exchange-delta", "inc");
  delta0.Set("instance_ref", Json("db"));
  Json first = CallJson(fd, delta0);
  EXPECT_EQ(first.GetString("status"), "ok");
  EXPECT_EQ(first.GetString("kind"), "instance");
  EXPECT_EQ(first.GetString("result"), "{ T(1,2) }\n");

  // instance.append absorbs new rows and returns the refreshed target.
  Json append = MakeRequest("instance.append", "inc");
  append.Set("name", Json("db"));
  append.Set("delta", Json("{ R(3,4) }"));
  Json appended = CallJson(fd, append);
  EXPECT_EQ(appended.GetString("status"), "ok");
  EXPECT_EQ(appended.GetString("result"), "{ T(1,2), T(3,4) }\n");

  // exchange-delta may carry its own delta rows.
  Json delta1 = MakeRequest("exchange-delta", "inc");
  delta1.Set("instance_ref", Json("db"));
  delta1.Set("delta", Json("{ R(5,6) }"));
  EXPECT_EQ(CallJson(fd, delta1).GetString("result"),
            "{ T(1,2), T(3,4), T(5,6) }\n");

  // The registered source grew along with the maintained one: a plain full
  // exchange over the same ref sees every appended row.
  Json exchange = MakeRequest("exchange", "inc");
  exchange.Set("instance_ref", Json("db"));
  EXPECT_EQ(CallJson(fd, exchange).GetString("result"),
            "{ T(1,2), T(3,4), T(5,6) }\n");

  // instance.put replaces rows wholesale, so the maintained state resets.
  put.Set("instance", Json("{ R(9,9) }"));
  EXPECT_EQ(CallJson(fd, put).GetString("status"), "ok");
  EXPECT_EQ(CallJson(fd, delta0).GetString("result"), "{ T(9,9) }\n");

  // Appends need rows and a registered name.
  Json empty = MakeRequest("instance.append", "inc");
  empty.Set("name", Json("db"));
  EXPECT_EQ(CallJson(fd, empty).GetString("status"), "error");
  Json ghost = MakeRequest("instance.append", "inc");
  ghost.Set("name", Json("missing"));
  ghost.Set("delta", Json("{ R(1,1) }"));
  EXPECT_EQ(CallJson(fd, ghost).GetString("status"), "error");
  ::close(fd);
}

TEST(ServerTest, SessionlessExchangeDeltaRunsRequestLocal) {
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());
  Json request = MakeRequest("exchange-delta");
  request.Set("mapping", Json("R(x,y) -> T(x,y)"));
  request.Set("instance", Json("{ R(1,2) }"));
  request.Set("delta", Json("{ R(3,4) }"));
  Json response = CallJson(fd, request);
  EXPECT_EQ(response.GetString("status"), "ok");
  EXPECT_EQ(response.GetString("result"), "{ T(1,2), T(3,4) }\n");
  ::close(fd);
}

TEST(ServerTest, BackgroundJobSurvivesDisconnect) {
  auto server = StartTcpServer();
  int fd = ConnectTcp(server->tcp_port());
  Json start = MakeRequest("job.start");
  start.Set("name", Json("j1"));
  start.Set("run", Json("roundtrip"));
  start.Set("mapping", Json("S1(x) -> T(x)\nS2(x) -> T(x)"));
  start.Set("instance", Json("{ S1(1), S2(2) }"));
  EXPECT_EQ(CallJson(fd, start).GetString("status"), "ok");
  // The job runs on its own thread with its own cancel token — the
  // starting connection going away must not cancel it.
  ::close(fd);

  const int fd2 = ConnectTcp(server->tcp_port());
  Json status_req = MakeRequest("job.status");
  status_req.Set("name", Json("j1"));
  std::string doc;
  for (int i = 0; i < 500; ++i) {
    Json status = CallJson(fd2, status_req);
    ASSERT_EQ(status.GetString("status"), "ok");
    doc = status.GetString("result");
    if (doc.find("\"state\":\"running\"") == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(doc.find("\"state\":\"done\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("recovered:"), std::string::npos) << doc;

  // A finished job's name is reclaimed by the next start; unknown names
  // and a missing run command are clean errors.
  EXPECT_EQ(CallJson(fd2, start).GetString("status"), "ok");
  Json ghost = MakeRequest("job.status");
  ghost.Set("name", Json("nobody"));
  EXPECT_EQ(CallJson(fd2, ghost).GetString("code"), "not-found");
  Json norun = MakeRequest("job.start");
  norun.Set("name", Json("j2"));
  EXPECT_EQ(CallJson(fd2, norun).GetString("code"), "invalid-argument");
  ::close(fd2);
}

TEST(ServerTest, JobCancelStopsARunningJob) {
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());
  Json start = MakeRequest("job.start");
  start.Set("name", Json("slow"));
  start.Set("run", Json("invert"));
  start.Set("mapping", Json("gen:exp:3,9"));
  EXPECT_EQ(CallJson(fd, start).GetString("status"), "ok");
  Json cancel = MakeRequest("job.cancel");
  cancel.Set("name", Json("slow"));
  EXPECT_EQ(CallJson(fd, cancel).GetString("status"), "ok");
  Json status_req = MakeRequest("job.status");
  status_req.Set("name", Json("slow"));
  std::string doc;
  for (int i = 0; i < 500; ++i) {
    doc = CallJson(fd, status_req).GetString("result");
    if (doc.find("\"state\":\"running\"") == std::string::npos &&
        doc.find("\"state\":\"cancelling\"") == std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Cancellation may race completion on a fast machine; either terminal
  // state is fine, hanging forever is not.
  EXPECT_TRUE(doc.find("\"state\":\"cancelled\"") != std::string::npos ||
              doc.find("\"state\":\"done\"") != std::string::npos)
      << doc;
  ::close(fd);
}

TEST(SessionTest, EvictIdleDropsOnlyStaleSessions) {
  SessionManager manager;
  ASSERT_TRUE(manager.Open("stale").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(manager.Open("fresh").ok());
  // Only the session idle for longer than the TTL goes.
  EXPECT_EQ(manager.EvictIdle(/*ttl_ms=*/20), 1u);
  EXPECT_FALSE(manager.Get("stale").ok());
  ASSERT_TRUE(manager.Get("fresh").ok());
  // Get touches: after a touch the survivor is fresh again.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(manager.Get("fresh").ok());
  EXPECT_EQ(manager.EvictIdle(/*ttl_ms=*/20), 0u);
  // A very long TTL evicts nothing; TTL 0 is "everything idle is stale".
  EXPECT_EQ(manager.Names().size(), 1u);
}

TEST(ServerTest, BadJsonKeepsConnectionMalformedFrameCloses) {
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());

  // Intact frame, non-JSON payload: error response, connection survives.
  Result<std::string> raw = Call(fd, "this is not json");
  ASSERT_TRUE(raw.ok());
  Json error = Json::Parse(*raw).ValueOrDie();
  EXPECT_EQ(error.GetString("status"), "error");
  EXPECT_EQ(error.GetString("code"), "malformed");
  EXPECT_EQ(CallJson(fd, MakeRequest("ping")).GetString("result"), "pong");

  // Zero-length frame: refusal response, then the server closes.
  const unsigned char header[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fd, header, 4, 0), 4);
  std::string payload;
  Result<bool> refusal = ReadFrame(fd, kDefaultMaxFrameBytes, &payload);
  ASSERT_TRUE(refusal.ok());
  ASSERT_TRUE(*refusal);
  EXPECT_EQ(Json::Parse(payload).ValueOrDie().GetString("code"), "malformed");
  Result<bool> eof = ReadFrame(fd, kDefaultMaxFrameBytes, &payload);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(*eof);
  EXPECT_EQ(server->metrics().malformed_frames.load(), 1u);
  ::close(fd);
}

TEST(ServerTest, ServerStopDrainsAndUnknownVerbErrors) {
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());
  EXPECT_EQ(CallJson(fd, MakeRequest("no.such.verb")).GetString("status"),
            "error");
  EXPECT_EQ(CallJson(fd, MakeRequest("server.stop")).GetString("result"),
            "stopping");
  ::close(fd);
  server->Wait();  // returns because server.stop drained the server

  ServerConfig no_stop;
  no_stop.allow_stop = false;
  auto fortified = StartTcpServer(std::move(no_stop));
  const int fd2 = ConnectTcp(fortified->tcp_port());
  EXPECT_EQ(CallJson(fd2, MakeRequest("server.stop")).GetString("status"),
            "error");
  ::close(fd2);
}

// --- concurrency and isolation ----------------------------------------------

TEST(ServerTest, ConcurrentSessionsStayIsolated) {
  auto server = StartTcpServer();
  constexpr int kSessions = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&server, &failures, i] {
      const int fd = ConnectTcp(server->tcp_port());
      const std::string session = "tenant-" + std::to_string(i);
      Json open = MakeRequest("session.open", session);
      open.Set("mapping", Json("R(x,y) -> T(x,y)"));
      if (CallJson(fd, open).GetString("status") != "ok") ++failures;
      Json put = MakeRequest("instance.put", session);
      put.Set("name", Json("db"));
      const std::string fact =
          "R(" + std::to_string(i) + "," + std::to_string(i + 100) + ")";
      put.Set("instance", Json("{ " + fact + " }"));
      if (CallJson(fd, put).GetString("status") != "ok") ++failures;
      const std::string expected = "{ T(" + std::to_string(i) + "," +
                                   std::to_string(i + 100) + ") }\n";
      Json exchange = MakeRequest("exchange", session);
      exchange.Set("instance_ref", Json("db"));
      for (int round = 0; round < kRounds; ++round) {
        // A session must only ever see its own data, no matter what the
        // other three connections are doing.
        if (CallJson(fd, exchange).GetString("result") != expected) {
          ++failures;
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerTest, DisconnectCancelsInFlightRequest) {
  auto server = StartTcpServer();
  const int fd = ConnectTcp(server->tcp_port());
  // gen:exp:3,9 inversion is effectively unbounded — it only ends because
  // the watchdog cancels it when the client vanishes.
  Json open = MakeRequest("session.open", "doomed");
  open.Set("mapping", Json("gen:exp:3,9"));
  EXPECT_EQ(CallJson(fd, open).GetString("status"), "ok");
  ASSERT_TRUE(WriteFrame(fd, MakeRequest("invert", "doomed").Serialize()).ok());
  ::close(fd);  // vanish mid-request

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server->metrics().disconnect_cancels.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server->metrics().disconnect_cancels.load(), 1u);

  // The server is still healthy for other clients.
  const int fd2 = ConnectTcp(server->tcp_port());
  EXPECT_EQ(CallJson(fd2, MakeRequest("ping")).GetString("result"), "pong");
  ::close(fd2);
}

// --- CLI/server parity ------------------------------------------------------

TEST(ServerTest, ResponseBytesMatchExecuteRequest) {
  // The parity contract: for the same request document, the server's frame
  // payload is byte-identical to ResponseToJson(ExecuteRequest(...)) — which
  // is also exactly what `mapinv_cli --response-json` prints.
  EngineRequest invert;
  invert.id = 7;
  invert.command = "invert";
  invert.mapping = "R(x,y), S(y,z) -> T(x,z)";
  EngineRequest exchange;
  exchange.id = 8;
  exchange.command = "exchange";
  exchange.mapping = "R(x,y) -> EXISTS z . T(x,z)";
  exchange.instance = "{ R(1,2), R(3,4) }";
  exchange.options.max_facts = 1000;

  for (const EngineRequest* request : {&invert, &exchange}) {
    const std::string local =
        ResponseToJson(ExecuteRequest(*request, ExecutionOptions()))
            .Serialize();
    auto server = StartTcpServer();  // fresh server: no cache history
    const int fd = ConnectTcp(server->tcp_port());
    Result<std::string> remote =
        Call(fd, EngineRequestToJson(*request).Serialize());
    ASSERT_TRUE(remote.ok());
    EXPECT_EQ(*remote, local) << "command " << request->command;
    ::close(fd);
  }
}

// The `metrics` verb's "server" object: the server counters in their wire
// order, then the in-flight gauge.
TEST(ServerTest, MetricsServerKeysRenderInWireOrder) {
  Server server(ServerConfig{});
  const Json metrics = server.MetricsJson();
  const Json* counters = metrics.Find("server");
  ASSERT_NE(counters, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : counters->AsObject()) keys.push_back(key);
  const std::vector<std::string> expected = {
      "connections_accepted", "connections_rejected", "frames_read",
      "malformed_frames",     "requests",             "requests_ok",
      "requests_error",       "requests_rejected",    "disconnect_cancels",
      "sessions_evicted",     "jobs_started",         "jobs_finished",
      "inflight"};
  EXPECT_EQ(keys, expected);
}

// --- failpoint chaos --------------------------------------------------------

// Four concurrent sessions run their workload under random failpoint
// injection at every site; each request retries until it succeeds. After
// disarming, every session's final responses must be byte-equal (status,
// kind, result) to a clean run's — injected faults may delay work but can
// never corrupt a session or leak across sessions.
TEST(ServerChaosTest, RandomInjectionPreservesSessionStateDifferentially) {
  constexpr int kSessions = 4;

  // Clean-run expectations, computed through the same engine entry point.
  std::vector<std::string> expected_exchange(kSessions);
  std::vector<std::string> expected_invert(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    EngineRequest request;
    request.command = "exchange";
    request.mapping = "R(x,y) -> T(x,y)\nR(x,y) -> S(y)";
    request.instance = "{ R(" + std::to_string(i) + "," +
                       std::to_string(i + 10) + ") }";
    EngineResponse clean = ExecuteRequest(request, ExecutionOptions());
    ASSERT_TRUE(clean.status.ok());
    expected_exchange[i] = clean.result;
    EngineRequest invert;
    invert.command = "invert";
    invert.mapping = request.mapping;
    EngineResponse clean_invert = ExecuteRequest(invert, ExecutionOptions());
    ASSERT_TRUE(clean_invert.status.ok());
    expected_invert[i] = clean_invert.result;
  }

  auto server = StartTcpServer();

  // Arm every site with a low random failure rate, seeded per site for
  // reproducibility.
  FailPointRegistry& registry = FailPointRegistry::Global();
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (const std::string& site : registry.SiteNames()) {
    FailPointSpec spec;
    spec.mode = FailPointSpec::Mode::kRandom;
    spec.rate = 0.02;
    spec.seed = seed++;
    ASSERT_TRUE(registry.Activate(site, spec).ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&server, &failures, &expected_exchange, i] {
      const int fd = ConnectTcp(server->tcp_port());
      const std::string session = "chaos-" + std::to_string(i);
      auto retry_until_ok = [&](const Json& request) -> Json {
        for (int attempt = 0; attempt < 300; ++attempt) {
          Json response = CallJson(fd, request);
          if (response.GetString("status") == "ok") return response;
        }
        ++failures;
        return Json();
      };
      Json open = MakeRequest("session.open", session);
      open.Set("mapping", Json("R(x,y) -> T(x,y)\nR(x,y) -> S(y)"));
      retry_until_ok(open);
      Json put = MakeRequest("instance.put", session);
      put.Set("name", Json("db"));
      put.Set("instance", Json("{ R(" + std::to_string(i) + "," +
                               std::to_string(i + 10) + ") }"));
      retry_until_ok(put);
      Json exchange = MakeRequest("exchange", session);
      exchange.Set("instance_ref", Json("db"));
      for (int round = 0; round < 10; ++round) {
        Json response = retry_until_ok(exchange);
        if (response.GetString("result") != expected_exchange[i]) ++failures;
        retry_until_ok(MakeRequest("invert", session));
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  registry.DeactivateAll();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced differential check: every session answers exactly as a clean
  // engine does — injected faults never became corrupted session state.
  const int fd = ConnectTcp(server->tcp_port());
  for (int i = 0; i < kSessions; ++i) {
    const std::string session = "chaos-" + std::to_string(i);
    Json exchange = MakeRequest("exchange", session);
    exchange.Set("instance_ref", Json("db"));
    Json response = CallJson(fd, exchange);
    EXPECT_EQ(response.GetString("status"), "ok");
    EXPECT_EQ(response.GetString("result"), expected_exchange[i]) << session;
    Json invert = CallJson(fd, MakeRequest("invert", session));
    EXPECT_EQ(invert.GetString("status"), "ok");
    EXPECT_EQ(invert.GetString("result"), expected_invert[i]) << session;
  }
  ::close(fd);
}

}  // namespace
}  // namespace mapinv
