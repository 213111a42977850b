// Coverage for the TCP serving layer (src/net): the length header as the
// shared decoder parses it, the fd transport in every form (socket, pipe
// pair, byte duplex), the NetServer event loop multiplexing concurrent
// clients onto one svc::Server
// (per-connection routing, disconnect-cancels-ownership, admission,
// idle reaping, the four net.* failpoints, drain-on-shutdown), and the
// cluster coordinator attached to remote TCP workers — including the
// served-vs-direct determinism contract across a real network boundary
// and shard failover when a remote worker dies. The multi-client
// interleavings run under TSan via the `tsan` ctest label.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "net/listener.hpp"
#include "net/net_server.hpp"
#include "net/socket.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/decompose.hpp"
#include "svc/client.hpp"
#include "svc/cluster.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"
#include "svc/transport.hpp"
#include "util/failpoint.hpp"

namespace cwatpg {
namespace {

// ---- shared helpers (same shapes as test_svc / test_cluster) --------------

std::string bench_text(const net::Network& n) {
  std::ostringstream out;
  net::write_bench(out, n);
  return out.str();
}

net::Network test_circuit() { return net::decompose(gen::comparator(3)); }

obs::Json request_json(std::uint64_t id, const char* kind,
                       obs::Json params = obs::Json::object()) {
  obs::Json j = obs::Json::object();
  j["schema"] = svc::kRpcSchema;
  j["id"] = id;
  j["kind"] = kind;
  j["params"] = std::move(params);
  return j;
}

struct TestClient {
  svc::Transport* t;
  std::uint64_t next_id = 1;

  std::uint64_t send(const char* kind,
                     obs::Json params = obs::Json::object()) {
    const std::uint64_t id = next_id++;
    t->write(request_json(id, kind, std::move(params)));
    return id;
  }

  obs::Json recv() {
    obs::Json frame;
    EXPECT_TRUE(t->read(frame)) << "transport closed while awaiting a frame";
    return frame;
  }

  obs::Json call(const char* kind, obs::Json params = obs::Json::object()) {
    const std::uint64_t id = send(kind, std::move(params));
    obs::Json resp = recv();
    EXPECT_EQ(resp.at("id").as_u64(), id);
    return resp;
  }
};

obs::Json load_params(const net::Network& n) {
  obs::Json params = obs::Json::object();
  params["name"] = n.name();
  params["text"] = bench_text(n);
  return params;
}

/// A Server behind a NetServer event loop on its own thread; clients dial
/// the loopback port the kernel picked.
struct TcpServed {
  svc::Server server;
  netio::NetServer net_server;
  std::thread loop;

  explicit TcpServed(svc::ServerOptions sopts = {.threads = 2},
                     netio::NetServerOptions nopts = {})
      : server(sopts), net_server(server, nopts) {
    loop = std::thread([this] { net_server.run(); });
  }
  ~TcpServed() {
    net_server.stop();  // no-op if a shutdown already ended run()
    loop.join();
  }

  std::unique_ptr<netio::SocketTransport> connect() {
    return std::make_unique<netio::SocketTransport>(
        netio::tcp_connect("127.0.0.1", net_server.port()));
  }
  std::uint64_t counter(const char* name) {
    return server.metrics().snapshot().counters[name];
  }
};

std::string load_over(TestClient& client, const net::Network& n) {
  obs::Json resp = client.call("load_circuit", load_params(n));
  EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  return resp.at("result").at("circuit").at("key").as_string();
}

// ---- host:port parsing ----------------------------------------------------

TEST(NetParse, HostPortForms) {
  std::string host;
  std::uint16_t port = 0;
  netio::parse_host_port("127.0.0.1:8080", &host, &port);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  netio::parse_host_port(":0", &host, &port);
  EXPECT_EQ(host, "0.0.0.0");  // empty host = all interfaces
  EXPECT_EQ(port, 0);
  EXPECT_THROW(netio::parse_host_port("no-colon", &host, &port),
               std::runtime_error);
  EXPECT_THROW(netio::parse_host_port("h:", &host, &port),
               std::runtime_error);
  EXPECT_THROW(netio::parse_host_port("h:12x", &host, &port),
               std::runtime_error);
  EXPECT_THROW(netio::parse_host_port("h:65536", &host, &port),
               std::runtime_error);
}

// ---- the length header (one parser: svc::FrameDecoder) --------------------

TEST(NetFraming, LengthParserAcceptsHeader) {
  svc::FrameDecoder d;
  obs::Json frame;
  for (const char c : {'1', '2'}) {
    d.feed(&c, 1);
    EXPECT_FALSE(d.next(frame));
    EXPECT_FALSE(d.idle());  // a partial header is a partial frame
  }
  d.feed("\n", 1);
  EXPECT_FALSE(d.next(frame));
  EXPECT_EQ(d.buffered(), 0u);  // the header is parsed, not buffered
  EXPECT_FALSE(d.idle());       // ...but its 12 payload bytes are owed
  const std::string payload = "{\"id\":12345}";
  ASSERT_EQ(payload.size(), 12u);
  d.feed(payload.data(), payload.size());
  ASSERT_TRUE(d.next(frame));
  EXPECT_EQ(frame.at("id").as_u64(), 12345u);
  EXPECT_TRUE(d.idle());
}

TEST(NetFraming, LengthParserRejectsGarbage) {
  const auto rejects = [](const std::string& bytes) {
    svc::FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    obs::Json frame;
    try {
      d.next(frame);
    } catch (const svc::ProtocolError&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(rejects("x"));   // non-digit
  EXPECT_TRUE(rejects("\n"));  // empty header
  EXPECT_TRUE(rejects(std::string(svc::kMaxFrameHeaderDigits + 1, '9')));
  // The size cap is checked at the header, before any payload is kept.
  EXPECT_TRUE(rejects(std::to_string(svc::kMaxFrameBytes + 1) + "\n"));
  EXPECT_FALSE(rejects(std::to_string(svc::kMaxFrameBytes) + "\n"));
}

// ---- every fd transport form ------------------------------------------------

/// The three shapes a cwatpg.rpc/1 byte stream takes, as two connected
/// transport ends: one socket each, a read/write pipe pair each, and
/// make_byte_duplex(). `a_write_fd` is the fd `a` writes through, for
/// injecting hand-made bytes; -1 where the form hides its fds (the byte
/// duplex, which is the socketpair form inside).
struct FdForm {
  std::string name;
  std::unique_ptr<svc::Transport> a, b;
  int a_write_fd = -1;
};

std::vector<FdForm> fd_forms() {
  std::vector<FdForm> forms;
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error("socketpair failed");
  forms.push_back({"FdTransport(fd) over a socketpair",
                   std::make_unique<svc::FdTransport>(sv[0]),
                   std::make_unique<svc::FdTransport>(sv[1]), sv[0]});
  int a_to_b[2], b_to_a[2];
  if (::pipe(a_to_b) != 0 || ::pipe(b_to_a) != 0)
    throw std::runtime_error("pipe failed");
  forms.push_back({"FdTransport(r, w) over two pipes",
                   std::make_unique<svc::FdTransport>(b_to_a[0], a_to_b[1]),
                   std::make_unique<svc::FdTransport>(a_to_b[0], b_to_a[1]),
                   a_to_b[1]});
  svc::DuplexPair duplex = svc::make_byte_duplex();
  forms.push_back({"make_byte_duplex()", std::move(duplex.client),
                   std::move(duplex.server), -1});
  return forms;
}

/// Two SocketTransports over a socketpair.
struct SocketPair {
  std::unique_ptr<netio::SocketTransport> a, b;
  SocketPair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
      throw std::runtime_error("socketpair failed");
    a = std::make_unique<netio::SocketTransport>(sv[0]);
    b = std::make_unique<netio::SocketTransport>(sv[1]);
  }
};

TEST(NetSocket, FramesRoundTripBothDirections) {
  for (FdForm& f : fd_forms()) {
    SCOPED_TRACE(f.name);
    const obs::Json msg = request_json(7, "status");
    f.a->write(msg);
    obs::Json got;
    ASSERT_TRUE(f.b->read(got));
    EXPECT_EQ(got, msg);
    f.b->write(svc::make_response(7, obs::Json::object()));
    ASSERT_TRUE(f.a->read(got));
    EXPECT_EQ(got.at("id").as_u64(), 7u);
  }
}

TEST(NetSocket, LargeFrameSurvivesShortReads) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  obs::Json params = obs::Json::object();
  params["blob"] = std::string(100 * 1024, 'x');
  const obs::Json msg = request_json(1, "status", std::move(params));
  for (FdForm& f : fd_forms()) {
    SCOPED_TRACE(f.name);
    // Deliver at most 4093 bytes per read: the header and payload are
    // both forced through the reassembly loop.
    fp::ScheduleScope fps("net.read.short=always@4093");
    std::thread writer([&] {
      f.a->write(msg);
      f.a->write(msg);  // back-to-back: leftover bytes must carry over
    });
    obs::Json got;
    EXPECT_TRUE(f.b->read(got));
    EXPECT_EQ(got, msg);
    EXPECT_TRUE(f.b->read(got));
    EXPECT_EQ(got, msg);
    writer.join();
  }
}

TEST(NetSocket, CleanCloseIsEofMidFrameIsError) {
  for (FdForm& f : fd_forms()) {
    SCOPED_TRACE(f.name);
    f.a->write(request_json(1, "status"));
    f.a->close();
    obs::Json got;
    ASSERT_TRUE(f.b->read(got));   // buffered frame survives the close
    EXPECT_FALSE(f.b->read(got));  // then clean EOF at the boundary
  }
  for (FdForm& f : fd_forms()) {
    if (f.a_write_fd < 0) continue;
    SCOPED_TRACE(f.name);
    // The header promises 999 bytes; the stream ends after 7.
    ASSERT_EQ(::write(f.a_write_fd, "999\n{\"trunc", 11), 11);
    f.a->close();
    obs::Json got;
    EXPECT_THROW(f.b->read(got), svc::ProtocolError);
  }
}

TEST(NetSocket, WriteToClosedPeerRaisesNoSigpipe) {
  // SIGPIPE is at its default disposition here, so a send() that raised
  // it would kill this test binary.
  struct sigaction action {};
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &action), 0);
  ASSERT_EQ(action.sa_handler, SIG_DFL);
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  netio::SocketTransport t(sv[0]);
  ::close(sv[1]);
  t.write(request_json(1, "status"));
  t.write(request_json(2, "status"));  // and again, after the EPIPE
  obs::Json got;
  EXPECT_FALSE(t.read(got));  // the peer's death surfaces on the read
}

TEST(NetSocket, InjectedResetThrows) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  SocketPair sp;
  fp::ScheduleScope fps("net.conn.reset=once");
  obs::Json got;
  EXPECT_THROW(sp.b->read(got), svc::ProtocolError);
}

TEST(NetSocket, ReadTimeoutSurfacesAsProtocolError) {
  for (FdForm& f : fd_forms()) {
    SCOPED_TRACE(f.name);
    ASSERT_TRUE(f.b->set_read_timeout(0.05));
    obs::Json got;
    try {
      f.b->read(got);
      ADD_FAILURE() << "read should have timed out";
    } catch (const svc::ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
          << e.what();
    }
  }
}

TEST(NetSocket, ClientRecordsTransportErrorOnTimeout) {
  // Satellite contract: a Client with a read timeout tells "peer gone /
  // silent" (transport_errors) apart from "peer pushing back"
  // (overloaded).
  SocketPair sp;
  svc::ClientOptions copts;
  copts.read_timeout_seconds = 0.05;
  svc::Client client(*sp.b, copts);
  EXPECT_THROW(client.call("status"), std::runtime_error);
  EXPECT_EQ(client.stats().transport_errors, 1u);
  EXPECT_NE(client.stats().last_transport_error.find("timed out"),
            std::string::npos)
      << client.stats().last_transport_error;
}

TEST(NetSocket, ClientRecordsPeerGoneWithJobsPending) {
  SocketPair sp;
  svc::Client client(*sp.b);
  client.submit("run_atpg", obs::Json::object());
  sp.a->close();  // peer vanishes owing a terminal
  EXPECT_FALSE(client.await_any().has_value());
  EXPECT_EQ(client.stats().transport_errors, 1u);
  EXPECT_NE(client.stats().last_transport_error.find("pending"),
            std::string::npos);
}

// ---- NetServer: one daemon, many TCP clients ------------------------------

TEST(NetServer, ServesStatusAndGracefulShutdownOverTcp) {
  TcpServed f;
  auto t = f.connect();
  TestClient client{t.get()};
  obs::Json resp = client.call("status");
  ASSERT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("result").at("sessions").as_u64(), 1u);

  resp = client.call("shutdown");
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  EXPECT_TRUE(resp.at("result").at("drained").as_bool());
  obs::Json eof;
  EXPECT_FALSE(t->read(eof));  // final frame, then EOF: run() drained itself

  EXPECT_GE(f.counter("net.conns.accepted"), 1u);
  EXPECT_GT(f.counter("net.bytes.in"), 0u);
  EXPECT_GT(f.counter("net.bytes.out"), 0u);
}

TEST(NetServer, ServedRunAtpgOverTcpMatchesDirectCall) {
  // The determinism contract does not stop at the network edge: a
  // run_atpg served over a real socket must match a direct engine call
  // pattern for pattern.
  TcpServed f;
  auto t = f.connect();
  TestClient client{t.get()};
  const net::Network n = test_circuit();
  const std::string key = load_over(client, n);

  const net::Network round_tripped =
      net::read_bench_string(bench_text(n), n.name());
  fault::AtpgOptions direct_opts;
  direct_opts.seed = 1234;
  const fault::AtpgResult direct =
      fault::run_atpg(round_tripped, direct_opts);

  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  params["seed"] = std::uint64_t(1234);
  obs::Json resp = client.call("run_atpg", std::move(params));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  const obs::Json& result = resp.at("result");
  EXPECT_EQ(result.at("faults").as_u64(), direct.outcomes.size());
  EXPECT_EQ(result.at("num_detected").as_u64(), direct.num_detected);
  EXPECT_EQ(result.at("num_untestable").as_u64(), direct.num_untestable);
  const obs::Json& tests = result.at("tests");
  ASSERT_EQ(tests.size(), direct.tests.size());
  for (std::size_t i = 0; i < direct.tests.size(); ++i)
    EXPECT_EQ(tests[i].as_string(), svc::encode_bits(direct.tests[i]))
        << "pattern " << i << " diverged over TCP";
}

TEST(NetServer, TwoClientsInterleaveWithPerConnectionRouting) {
  // Two clients on one daemon, deliberately REUSING each other's request
  // ids: sessions must keep them apart — every response routes to the
  // connection that asked, with exactly one terminal per job.
  TcpServed f;
  auto ta = f.connect();
  auto tb = f.connect();
  TestClient a{ta.get()};
  TestClient b{tb.get()};
  const std::string key_a = load_over(a, test_circuit());
  const std::string key_b = load_over(b, test_circuit());
  EXPECT_EQ(key_a, key_b);  // content-addressed: one registry entry

  constexpr int kJobs = 3;
  std::set<std::uint64_t> a_jobs, b_jobs;
  for (int i = 0; i < kJobs; ++i) {  // same id sequence on both sessions
    obs::Json pa = obs::Json::object();
    pa["circuit"] = key_a;
    obs::Json pb = pa;
    a_jobs.insert(a.send("run_atpg", std::move(pa)));
    b_jobs.insert(b.send("run_atpg", std::move(pb)));
  }
  EXPECT_EQ(a_jobs, b_jobs) << "test wants colliding ids across sessions";

  // Interleave a status call with the in-flight jobs — its inline answer
  // and the job terminals may arrive in any order, but every frame must
  // carry an id this session asked about, exactly once.
  const auto pump = [](TestClient& c, const std::set<std::uint64_t>& jobs) {
    const std::uint64_t status_id = c.send("status");
    std::map<std::uint64_t, int> seen;
    std::uint64_t sessions = 0;
    for (std::size_t i = 0; i < jobs.size() + 1; ++i) {
      obs::Json frame = c.recv();
      const std::uint64_t id = frame.at("id").as_u64();
      EXPECT_TRUE(frame.at("ok").as_bool()) << frame.dump();
      if (id == status_id)
        sessions = frame.at("result").at("sessions").as_u64();
      else
        EXPECT_TRUE(jobs.count(id)) << "response for foreign id " << id;
      EXPECT_EQ(++seen[id], 1) << "duplicate frame for id " << id;
    }
    return sessions;
  };
  EXPECT_EQ(pump(a, a_jobs), 2u);  // both sessions alive throughout
  EXPECT_EQ(pump(b, b_jobs), 2u);
}

TEST(NetServer, DisconnectCancelsOnlyThatClientsJobs) {
  // One worker thread: A's big job occupies it while A's and B's small
  // jobs queue behind. A vanishing mid-run must cancel A's work (freeing
  // the worker quickly) and must NOT touch B's queued job.
  TcpServed f({.threads = 1});
  auto ta = f.connect();
  auto tb = f.connect();
  TestClient a{ta.get()};
  TestClient b{tb.get()};
  const std::string slow_key =
      load_over(a, net::decompose(gen::array_multiplier(5)));
  const std::string key = load_over(b, test_circuit());

  obs::Json params = obs::Json::object();
  params["circuit"] = slow_key;
  a.send("run_atpg", std::move(params));  // occupies the worker
  params = obs::Json::object();
  params["circuit"] = slow_key;
  a.send("run_atpg", std::move(params));  // queued, owned by A
  params = obs::Json::object();
  params["circuit"] = key;
  const std::uint64_t b_job = b.send("run_atpg", std::move(params));

  ta.reset();  // A's socket closes: FIN reaches the event loop

  obs::Json resp = b.recv();  // B's job must still produce its terminal
  EXPECT_EQ(resp.at("id").as_u64(), b_job);
  EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();

  // A's session must be reaped (B's survives). Poll: the FIN and the
  // teardown race this status call.
  std::uint64_t sessions = 99;
  for (int i = 0; i < 100 && sessions != 1; ++i) {
    sessions = b.call("status").at("result").at("sessions").as_u64();
    if (sessions != 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(sessions, 1u);
}

TEST(NetServer, ConnectionLimitAnswersOverloaded) {
  netio::NetServerOptions nopts;
  nopts.max_connections = 1;
  TcpServed f({.threads = 1}, nopts);
  auto t1 = f.connect();
  TestClient c1{t1.get()};
  EXPECT_TRUE(c1.call("status").at("ok").as_bool());  // session 1 is up

  auto t2 = f.connect();
  obs::Json frame;
  ASSERT_TRUE(t2->read(frame)) << "rejected conn still gets an answer";
  EXPECT_EQ(frame.at("id").as_u64(), 0u);  // no request to correlate with
  EXPECT_FALSE(frame.at("ok").as_bool());
  EXPECT_EQ(frame.at("error").at("code").as_string(), "overloaded");
  EXPECT_FALSE(t2->read(frame));  // then closed
  EXPECT_GE(f.counter("net.conns.rejected"), 1u);

  // The slot frees when c1 leaves; a later client gets in. (The FIN and
  // the next connect race, so retry until admitted.)
  t1.reset();
  bool admitted = false;
  for (int i = 0; i < 100 && !admitted; ++i) {
    auto t3 = f.connect();
    TestClient c3{t3.get()};
    const std::uint64_t id = c3.send("status");
    obs::Json resp;
    ASSERT_TRUE(t3->read(resp)) << "no admission verdict at all";
    if (resp.at("id").as_u64() == id && resp.at("ok").as_bool())
      admitted = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(admitted) << "slot never freed after the first client left";
}

TEST(NetServer, IdleConnectionIsReaped) {
  netio::NetServerOptions nopts;
  nopts.idle_timeout_seconds = 0.1;
  TcpServed f({.threads = 1}, nopts);
  auto t = f.connect();
  t->set_read_timeout(5.0);  // fail the test, not the suite, on a hang
  obs::Json frame;
  EXPECT_FALSE(t->read(frame));  // server reaps us: EOF, no bytes
  EXPECT_GE(f.counter("net.conns.closed.idle"), 1u);
}

TEST(NetServer, MalformedFramingAnsweredOnceThenClosed) {
  TcpServed f({.threads = 1});
  const int fd = netio::tcp_connect("127.0.0.1", f.net_server.port());
  ASSERT_EQ(::send(fd, "garbage\n", 8, 0), 8);
  netio::SocketTransport t(fd);  // adopt the fd to read the reply
  obs::Json frame;
  ASSERT_TRUE(t.read(frame));
  EXPECT_EQ(frame.at("id").as_u64(), 0u);
  EXPECT_EQ(frame.at("error").at("code").as_string(), "bad_request");
  EXPECT_FALSE(t.read(frame));  // framing is lost: connection closed
}

// ---- the four net.* failpoints, pinned ------------------------------------

TEST(NetFailpoints, AcceptFailDropsOneConnection) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  TcpServed f({.threads = 1});
  fp::ScheduleScope fps("net.accept.fail=once");
  {
    auto t = f.connect();  // TCP-accepted by the kernel, then dropped
    obs::Json frame;
    EXPECT_FALSE(t->read(frame));
  }
  auto t = f.connect();  // next connection is served normally
  TestClient c{t.get()};
  EXPECT_TRUE(c.call("status").at("ok").as_bool());
  EXPECT_GE(f.counter("net.conns.rejected"), 1u);
}

TEST(NetFailpoints, ServerSideResetTearsConnectionDown) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  TcpServed f({.threads = 1});
  // Raw fd client: only the server's event loop evaluates the site, so
  // `once` deterministically fires server-side.
  const int fd = netio::tcp_connect("127.0.0.1", f.net_server.port());
  fp::ScheduleScope fps("net.conn.reset=once");
  const std::string wire = svc::encode_frame(request_json(1, "status"));
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // The teardown closes the fd with our request still unread, so the
  // kernel answers with RST: the client sees ECONNRESET (or EOF if the
  // bytes were consumed first) — never a response frame.
  char buf[64];
  const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
  EXPECT_LE(got, 0) << "got " << got << " bytes instead of a reset";
  ::close(fd);
  EXPECT_GE(f.counter("net.conns.closed.reset"), 1u);
}

TEST(NetFailpoints, ShortReadsStillServeWholeFrames) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  TcpServed f({.threads = 1});
  fp::ScheduleScope fps("net.read.short=always@7");
  auto t = f.connect();
  TestClient c{t.get()};
  const std::string key = load_over(c, test_circuit());
  EXPECT_FALSE(key.empty());
  EXPECT_TRUE(c.call("status").at("ok").as_bool());
}

TEST(NetFailpoints, WriteStallDelaysButNeverDropsResponses) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  TcpServed f({.threads = 1});
  fp::ScheduleScope fps("net.write.stall=every:2");
  auto t = f.connect();
  TestClient c{t.get()};
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(c.call("status").at("ok").as_bool()) << "call " << i;
}

// ---- cluster with remote TCP workers --------------------------------------

/// A remote worker: a full daemon behind its own NetServer — what
/// `cwatpg_serve --listen` runs, minus the process boundary so TSan sees
/// every thread. Stopping it mid-flight closes its connections, which is
/// exactly the EOF a kill -9'd remote worker produces at the coordinator.
struct TcpWorkerDaemon {
  svc::Server server;
  netio::NetServer net_server;
  std::thread loop;

  TcpWorkerDaemon()
      : server(svc::ServerOptions{.threads = 1}), net_server(server) {
    loop = std::thread([this] { net_server.run(); });
  }
  ~TcpWorkerDaemon() { stop(); }
  void stop() {
    net_server.stop();
    if (loop.joinable()) loop.join();
  }
};

obs::Json atpg_params(const std::string& key) {
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  params["seed"] = std::uint64_t(7);
  params["raw_outcomes"] = true;
  return params;
}

obs::Json single_node_result(const net::Network& n, obs::Json params) {
  svc::DuplexPair pair = svc::make_duplex();
  svc::ServerOptions sopts;
  sopts.threads = 1;
  svc::Server server(sopts);
  std::thread loop([&] { server.serve(*pair.server); });
  TestClient client{pair.client.get()};
  obs::Json loaded = client.call("load_circuit", load_params(n));
  EXPECT_TRUE(loaded.at("ok").as_bool()) << loaded.dump();
  params["circuit"] =
      loaded.at("result").at("circuit").at("key").as_string();
  obs::Json resp = client.call("run_atpg", std::move(params));
  EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  pair.client->close();
  loop.join();
  return resp.at("result");
}

void expect_same_classification(const obs::Json& single,
                                const obs::Json& cluster) {
  EXPECT_EQ(single.at("faults").as_u64(), cluster.at("faults").as_u64());
  EXPECT_EQ(single.at("num_detected").as_u64(),
            cluster.at("num_detected").as_u64());
  EXPECT_EQ(single.at("num_untestable").as_u64(),
            cluster.at("num_untestable").as_u64());
  EXPECT_EQ(single.at("num_aborted").as_u64(),
            cluster.at("num_aborted").as_u64());
  EXPECT_EQ(single.at("num_undetermined").as_u64(),
            cluster.at("num_undetermined").as_u64());
  EXPECT_EQ(single.at("tests").dump(), cluster.at("tests").dump());
}

struct TcpClusterFixture {
  std::vector<std::unique_ptr<TcpWorkerDaemon>> workers;
  svc::DuplexPair front = svc::make_duplex();
  std::unique_ptr<svc::Cluster> cluster;
  std::thread cluster_loop;
  TestClient client{front.client.get()};

  explicit TcpClusterFixture(std::size_t n, svc::ClusterOptions options = {}) {
    std::vector<svc::Cluster::WorkerEndpoint> endpoints;
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<TcpWorkerDaemon>());
      svc::Cluster::WorkerEndpoint e;
      e.transport = std::make_unique<netio::SocketTransport>(netio::tcp_connect(
          "127.0.0.1", workers.back()->net_server.port()));
      e.name = "tcp:w" + std::to_string(i);
      endpoints.push_back(std::move(e));
    }
    cluster = std::make_unique<svc::Cluster>(std::move(endpoints), options);
    cluster_loop = std::thread([this] { cluster->serve(*front.server); });
  }
  ~TcpClusterFixture() {
    front.client->close();
    cluster_loop.join();
  }

  std::string load(const net::Network& n) {
    obs::Json resp = client.call("load_circuit", load_params(n));
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    return resp.at("result").at("circuit").at("key").as_string();
  }
};

TEST(NetCluster, RemoteTcpWorkersMatchSingleNode) {
  const net::Network n = test_circuit();
  const obs::Json single = single_node_result(n, atpg_params(""));
  svc::ClusterOptions options;
  options.shard_size = 7;  // deliberately unaligned with the fault count
  TcpClusterFixture fx(2, options);
  obs::Json resp = fx.client.call("run_atpg", atpg_params(fx.load(n)));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  expect_same_classification(single, resp.at("result"));
}

TEST(NetCluster, RemoteWorkerDeathFailsOverToSurvivor) {
  const net::Network n = test_circuit();
  const obs::Json single = single_node_result(n, atpg_params(""));
  svc::ClusterOptions options;
  options.shard_size = 7;
  TcpClusterFixture fx(2, options);
  const std::string key = fx.load(n);

  // "kill -9" worker 0: its NetServer closes the coordinator's socket,
  // which is the same EOF the kernel sends for a killed process. Every
  // shard must land on the survivor and the answer must not change.
  fx.workers[0]->stop();

  obs::Json resp = fx.client.call("run_atpg", atpg_params(key));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  expect_same_classification(single, resp.at("result"));

  const svc::ClusterStats stats = fx.cluster->stats();
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.alive, 1u);
}

TEST(NetCluster, CollidingIdsFromTwoTcpClientsStayApart) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  const net::Network n = test_circuit();
  const obs::Json single = single_node_result(n, atpg_params(""));
  // Every shard stalls on its worker, so A's shards are out at the
  // workers while B's wait behind them in the coordinator's shard queue.
  fp::ScheduleScope fps("svc.server.execute.stall=always@50");
  std::vector<std::unique_ptr<TcpWorkerDaemon>> workers;
  std::vector<svc::Cluster::WorkerEndpoint> endpoints;
  for (int i = 0; i < 2; ++i) {
    workers.push_back(std::make_unique<TcpWorkerDaemon>());
    svc::Cluster::WorkerEndpoint e;
    e.transport = std::make_unique<netio::SocketTransport>(netio::tcp_connect(
        "127.0.0.1", workers.back()->net_server.port()));
    endpoints.push_back(std::move(e));
  }
  svc::ClusterOptions options;
  options.shard_size = 4;
  svc::Cluster cluster(std::move(endpoints), options);
  netio::NetServer front(cluster.server());
  std::thread loop([&] { front.run(); });

  const auto connect = [&] {
    return std::make_unique<netio::SocketTransport>(
        netio::tcp_connect("127.0.0.1", front.port()));
  };
  auto ta = connect();
  auto tb = connect();
  TestClient a{ta.get(), 100};  // control requests; both jobs are id 1
  TestClient b{tb.get(), 100};
  const std::string key = load_over(a, n);
  EXPECT_EQ(load_over(b, n), key);

  // A's job goes first and has shards out at both workers when B, under
  // the same request id, starts and cancels its own job.
  ta->write(request_json(1, "run_atpg", atpg_params(key)));
  for (int i = 0; i < 2000; ++i) {
    if (a.call("status").at("result").at("shards_dispatched").as_u64() >= 2)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  tb->write(request_json(1, "run_atpg", atpg_params(key)));
  obs::Json job_status = obs::Json::object();
  job_status["job"] = std::uint64_t(1);
  for (int i = 0; i < 1000; ++i) {
    const std::string state =
        b.call("status", job_status).at("result").at("state").as_string();
    if (state == "running") break;
    ASSERT_EQ(state, "queued");
  }
  const std::uint64_t cancel_id = b.send("cancel", job_status);

  int b_terminals = 0;
  for (int i = 0; i < 2; ++i) {
    const obs::Json frame = b.recv();
    if (frame.at("id").as_u64() == cancel_id) {
      EXPECT_EQ(frame.at("result").at("state").as_string(), "cancelling");
      continue;
    }
    ASSERT_EQ(frame.at("id").as_u64(), 1u) << frame.dump();
    ++b_terminals;
    if (frame.at("ok").as_bool())
      EXPECT_EQ(frame.at("result").at("stop").as_string(), "cancelled");
    else
      EXPECT_EQ(frame.at("error").at("code").as_string(), "cancelled");
  }
  EXPECT_EQ(b_terminals, 1);

  // A's job never saw B's cancel: complete, single-node identical, and
  // not one of its shards was interrupted and redispatched.
  const obs::Json a_terminal = a.recv();
  ASSERT_EQ(a_terminal.at("id").as_u64(), 1u);
  ASSERT_TRUE(a_terminal.at("ok").as_bool()) << a_terminal.dump();
  const obs::Json& result = a_terminal.at("result");
  EXPECT_FALSE(result.at("interrupted").as_bool());
  expect_same_classification(single, result);
  EXPECT_EQ(result.at("cluster").at("redispatched").as_u64(), 0u);

  // Nothing else is pending on either connection: the next frame each
  // one reads answers its own request.
  EXPECT_EQ(b.call("status").at("result").at("sessions").as_u64(), 2u);
  const obs::Json drained = a.call("shutdown");
  EXPECT_TRUE(drained.at("result").at("drained").as_bool()) << drained.dump();
  loop.join();
}

// ---- tcp_connect_retry ----------------------------------------------------

/// An ephemeral port that was just free: bind, read, release.
std::uint16_t probe_free_port() {
  netio::Listener probe("127.0.0.1", 0);
  return probe.port();
}

TEST(TcpConnectRetry, RefusedConnectionsExhaustOnTheSeededSchedule) {
  svc::RetryOptions retry;
  retry.max_attempts = 3;
  std::vector<double> slept;
  retry.sleep_fn = [&](double s) { slept.push_back(s); };
  const std::uint16_t port = probe_free_port();  // nobody listening now
  EXPECT_THROW(netio::tcp_connect_retry("127.0.0.1", port, 1.0, retry),
               std::runtime_error);
  // One backoff sleep between consecutive attempts; the recorded delays
  // replay the seeded schedule exactly.
  ASSERT_EQ(slept.size(), 2u);
  Rng reference(retry.jitter_seed);
  EXPECT_EQ(slept[0], svc::backoff_delay(retry.backoff, reference, 1));
  EXPECT_EQ(slept[1], svc::backoff_delay(retry.backoff, reference, 2));
}

TEST(TcpConnectRetry, ToleratesAListenerThatBindsLate) {
  // The boot scenario the helper exists for: the coordinator dials while
  // the worker daemon is still starting; the listener appears mid-retry
  // and the dial must land without operator intervention.
  const std::uint16_t port = probe_free_port();
  std::thread binder([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    netio::Listener listener("127.0.0.1", port);
    const int fd = listener.accept_one_blocking();
    ::close(fd);
  });
  svc::RetryOptions retry;
  retry.max_attempts = 200;
  retry.backoff.base_seconds = 0.01;
  retry.backoff.max_seconds = 0.05;
  const int fd = netio::tcp_connect_retry("127.0.0.1", port, 1.0, retry);
  EXPECT_GE(fd, 0);
  ::close(fd);
  binder.join();
}

}  // namespace
}  // namespace cwatpg
