// End-to-end and unit coverage for the serving subsystem (src/svc): the
// cwatpg.rpc/1 frame decoder (including a seeded chunking fuzz) and fd
// transports, the content-addressed circuit registry, the
// bounded job queue, and the Server request lifecycle over an in-memory
// duplex transport — including the determinism contract (served run_atpg
// is byte-identical to a direct engine call) and the exactly-one-terminal-
// response guarantee under concurrent submitters (run under TSan via the
// `tsan` ctest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "fault/incremental.hpp"
#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/decompose.hpp"
#include "sat/cnf.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "svc/proto.hpp"
#include "svc/queue.hpp"
#include "svc/registry.hpp"
#include "svc/server.hpp"
#include "svc/supervisor.hpp"
#include "svc/transport.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace cwatpg::svc {
namespace {

// ---- shared helpers -------------------------------------------------------

std::string bench_text(const net::Network& n) {
  std::ostringstream out;
  net::write_bench(out, n);
  return out.str();
}

/// The circuit most server tests serve: small enough that a run_atpg job
/// finishes in milliseconds, large enough to have a real fault list.
net::Network test_circuit() { return net::decompose(gen::comparator(3)); }

obs::Json request_json(std::uint64_t id, const char* kind,
                       obs::Json params = obs::Json::object()) {
  obs::Json j = obs::Json::object();
  j["schema"] = kRpcSchema;
  j["id"] = id;
  j["kind"] = kind;
  j["params"] = std::move(params);
  return j;
}

/// Test-side client: sequences ids, sends requests, reads frames. (Named
/// TestClient because svc::Client — the retrying production client — is
/// also visible in this namespace.)
struct TestClient {
  Transport* t;
  std::uint64_t next_id = 1;

  std::uint64_t send(const char* kind, obs::Json params = obs::Json::object()) {
    const std::uint64_t id = next_id++;
    t->write(request_json(id, kind, std::move(params)));
    return id;
  }

  obs::Json recv() {
    obs::Json frame;
    EXPECT_TRUE(t->read(frame)) << "transport closed while awaiting a frame";
    return frame;
  }

  /// Send + read one frame; only valid for inline (control-plane) kinds.
  obs::Json call(const char* kind, obs::Json params = obs::Json::object()) {
    const std::uint64_t id = send(kind, std::move(params));
    obs::Json resp = recv();
    EXPECT_EQ(resp.at("id").as_u64(), id);
    return resp;
  }
};

/// A Server bound to a duplex pair with its serve() loop on a thread.
struct ServedFixture {
  DuplexPair pair = make_duplex();
  Server server;
  std::thread loop;
  TestClient client{pair.client.get()};

  explicit ServedFixture(ServerOptions options) : server(options) {
    loop = std::thread([this] { server.serve(*pair.server); });
  }
  ~ServedFixture() {
    pair.client->close();  // implicit shutdown if the test didn't send one
    loop.join();
  }

  /// Loads `n` and returns its registry key.
  std::string load(const net::Network& n) {
    obs::Json params = obs::Json::object();
    params["name"] = n.name();
    params["text"] = bench_text(n);
    obs::Json resp = client.call("load_circuit", std::move(params));
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    return resp.at("result").at("circuit").at("key").as_string();
  }
};

// ---- proto: frame codec ---------------------------------------------------

/// Feeds `bytes` to `d` in one piece and pops every whole frame.
std::vector<obs::Json> feed_all(FrameDecoder& d, const std::string& bytes) {
  d.feed(bytes.data(), bytes.size());
  std::vector<obs::Json> frames;
  obs::Json frame;
  while (d.next(frame)) frames.push_back(frame);
  return frames;
}

TEST(SvcProto, FrameRoundTrip) {
  const obs::Json msg = request_json(42, "status");
  FrameDecoder d;
  const std::vector<obs::Json> frames = feed_all(d, encode_frame(msg));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], msg);
  // Nothing held: end of stream here is a clean close, not an error.
  EXPECT_TRUE(d.idle());
}

TEST(SvcProto, BackToBackFramesStayFramed) {
  std::string bytes;
  for (int i = 0; i < 3; ++i)
    bytes += encode_frame(request_json(static_cast<std::uint64_t>(i),
                                       "status"));
  FrameDecoder d;
  const std::vector<obs::Json> frames = feed_all(d, bytes);
  ASSERT_EQ(frames.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(frames[i].at("id").as_u64(), static_cast<std::uint64_t>(i));
  EXPECT_TRUE(d.idle());
}

TEST(SvcProto, OversizedFrameRejectedBeforeAllocation) {
  // The cap fires on the header alone: just over it, and 1 GiB.
  for (const std::size_t length : {kMaxFrameBytes + 1, std::size_t(1) << 30}) {
    FrameDecoder d;
    EXPECT_THROW(feed_all(d, std::to_string(length) + "\n"), ProtocolError)
        << length;
  }
}

TEST(SvcProto, DecoderBuffersOnlyArrivedPayload) {
  // The header promises kMaxFrameBytes - 1 bytes and one has arrived: the
  // decoder holds that one byte, not a buffer sized by the promise.
  const std::size_t length = kMaxFrameBytes - 1;
  FrameDecoder d;
  EXPECT_TRUE(feed_all(d, std::to_string(length) + "\n\"").empty());
  EXPECT_EQ(d.buffered(), 1u);
  EXPECT_FALSE(d.idle());
  // The rest of a JSON string of exactly `length` bytes trickles in.
  const std::string chunk(64 * 1024, 'x');
  obs::Json frame;
  for (std::size_t left = length - 2; left > 0;) {
    const std::size_t n = std::min(left, chunk.size());
    d.feed(chunk.data(), n);
    left -= n;
    ASSERT_FALSE(d.next(frame));
  }
  d.feed("\"", 1);
  ASSERT_TRUE(d.next(frame));
  EXPECT_EQ(frame.as_string().size(), length - 2);
  EXPECT_TRUE(d.idle());
}

TEST(SvcProto, TruncatedPayloadIsAnError) {
  // The header promises 100 bytes and the stream ends after 16: the
  // decoder still holds part of a frame, which at end of stream is a
  // truncated frame (FdTransport::read turns it into a ProtocolError).
  FrameDecoder d;
  EXPECT_TRUE(feed_all(d, "100\n{\"partial\":true}").empty());
  EXPECT_EQ(d.buffered(), 16u);
  EXPECT_FALSE(d.idle());
  // A header cut before its '\n' is held too.
  FrameDecoder h;
  EXPECT_TRUE(feed_all(h, "10").empty());
  EXPECT_FALSE(h.idle());
}

TEST(SvcProto, MalformedHeaderIsAnError) {
  FrameDecoder d;
  EXPECT_THROW(feed_all(d, "not-a-length\n{}"), ProtocolError);
}

TEST(SvcProto, DeeplyNestedPayloadRejected) {
  // A hostile "[[[[…" document must fail the svc depth limit, not recurse
  // the parser into the ground.
  std::string bomb(kMaxFrameDepth + 1, '[');
  bomb.append(kMaxFrameDepth + 1, ']');
  FrameDecoder d;
  EXPECT_THROW(feed_all(d, std::to_string(bomb.size()) + "\n" + bomb),
               ProtocolError);
}

// ---- decoder fuzz ---------------------------------------------------------
// The decoder's contract under hostile input, however the bytes are
// chunked: whole frames, then at most one ProtocolError — never another
// exception type, never a crash, never a frame that was not sent.

struct Decoded {
  std::vector<obs::Json> frames;
  bool error = false;

  bool operator==(const Decoded&) const = default;
};

/// Feeds `bytes` in chunks of 1..`max_chunk` bytes (whole when 0), popping
/// frames after every chunk, until the first ProtocolError.
Decoded decode_chunked(const std::string& bytes, Rng& rng,
                       std::size_t max_chunk) {
  Decoded out;
  FrameDecoder d;
  obs::Json frame;
  try {
    for (std::size_t pos = 0; pos < bytes.size();) {
      const std::size_t left = bytes.size() - pos;
      const std::size_t n =
          max_chunk == 0 ? left : 1 + rng.below(std::min(left, max_chunk));
      d.feed(bytes.data() + pos, n);
      pos += n;
      while (d.next(frame)) out.frames.push_back(frame);
    }
  } catch (const ProtocolError&) {
    out.error = true;
  }
  return out;
}

TEST(SvcProtoFuzz, AnyChunkingDecodesLikeOneFeed) {
  std::vector<obs::Json> sent;
  {
    obs::Json load = obs::Json::object();
    load["name"] = "fuzz";
    load["text"] = bench_text(test_circuit());
    sent.push_back(request_json(1, "load_circuit", std::move(load)));
    sent.push_back(request_json(2, "status"));
    obs::Json nested = obs::Json::object();
    nested["patterns"] = obs::Json::array();
    nested["patterns"].push_back("0101");
    nested["seed"] = std::uint64_t(7);
    nested["deadline"] = 0.25;
    sent.push_back(request_json(3, "fsim", std::move(nested)));
    sent.push_back(make_error(4, ErrorCode::kOverloaded, "retry \"later\""));
  }
  std::string valid;
  std::vector<std::size_t> frame_end;  // offset just past each frame
  for (const obs::Json& f : sent) {
    valid += encode_frame(f);
    frame_end.push_back(valid.size());
  }
  const auto frames_before = [&](std::size_t offset) {
    return static_cast<std::size_t>(
        std::upper_bound(frame_end.begin(), frame_end.end(), offset) -
        frame_end.begin());
  };

  Rng rng(0xf4a3e5);
  const std::string alphabet = "0123456789\n\n{}[]\",: x\xff";
  for (int round = 0; round < 300; ++round) {
    std::string input;
    std::size_t intact = 0;  // sent frames the input carries unchanged
    bool truncation = false;
    switch (round % 3) {
      case 0:  // random garbage
        for (std::size_t i = rng.below(400); i > 0; --i)
          input += alphabet[rng.below(alphabet.size())];
        break;
      case 1: {  // truncation
        const std::size_t cut = rng.below(valid.size() + 1);
        input = valid.substr(0, cut);
        intact = frames_before(cut);
        truncation = true;
        break;
      }
      default: {  // bit flips
        input = valid;
        std::size_t first = input.size();
        for (int f = 1 + static_cast<int>(rng.below(4)); f > 0; --f) {
          const std::size_t at = rng.below(input.size());
          input[at] ^= static_cast<char>(1u << rng.below(7));
          first = std::min(first, at);
        }
        intact = frames_before(first);
        break;
      }
    }
    const Decoded whole = decode_chunked(input, rng, 0);
    const Decoded chunked =
        decode_chunked(input, rng, 1 + rng.below(input.size() + 1));
    ASSERT_EQ(chunked, whole) << "round " << round;
    ASSERT_GE(whole.frames.size(), intact) << "round " << round;
    for (std::size_t i = 0; i < intact; ++i)
      ASSERT_EQ(whole.frames[i], sent[i]) << "round " << round;
    if (truncation) {
      // A prefix of a valid stream is never an error, and yields exactly
      // the frames it holds whole.
      EXPECT_FALSE(whole.error) << "round " << round;
      EXPECT_EQ(whole.frames.size(), intact) << "round " << round;
    }
  }
  // And the intact stream, byte at a time and whole.
  EXPECT_EQ(decode_chunked(valid, rng, 1).frames, sent);
  EXPECT_EQ(decode_chunked(valid, rng, 0).frames, sent);
}

TEST(SvcProto, RequestValidation) {
  EXPECT_NO_THROW(Request::from_json(request_json(1, "run_atpg")));

  obs::Json no_schema = request_json(1, "status");
  no_schema["schema"] = "cwatpg.rpc/99";
  EXPECT_THROW(Request::from_json(no_schema), ProtocolError);

  obs::Json bad_kind = request_json(1, "frobnicate");
  EXPECT_THROW(Request::from_json(bad_kind), ProtocolError);

  obs::Json bad_params = request_json(1, "status");
  bad_params["params"] = "not an object";
  EXPECT_THROW(Request::from_json(bad_params), ProtocolError);

  obs::Json no_id = obs::Json::object();
  no_id["schema"] = kRpcSchema;
  no_id["kind"] = "status";
  EXPECT_THROW(Request::from_json(no_id), ProtocolError);

  // params may be omitted entirely; it defaults to an empty object.
  obs::Json minimal = obs::Json::object();
  minimal["schema"] = kRpcSchema;
  minimal["id"] = std::uint64_t(7);
  minimal["kind"] = "status";
  const Request req = Request::from_json(minimal);
  EXPECT_TRUE(req.params.is_object());
  EXPECT_EQ(req.kind, RequestKind::kStatus);
}

TEST(SvcProto, KindNamesRoundTrip) {
  for (RequestKind kind :
       {RequestKind::kLoadCircuit, RequestKind::kRunAtpg, RequestKind::kFsim,
        RequestKind::kStatus, RequestKind::kCancel, RequestKind::kShutdown}) {
    const auto parsed = parse_request_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_request_kind("no_such_kind").has_value());
}

TEST(SvcProto, BitCodecRoundTrip) {
  const std::vector<bool> bits = {true, false, false, true, true};
  EXPECT_EQ(encode_bits(bits), "10011");
  EXPECT_EQ(decode_bits("10011", 5), bits);
  EXPECT_THROW(decode_bits("10011", 4), ProtocolError);  // wrong length
  EXPECT_THROW(decode_bits("10x11", 5), ProtocolError);  // bad character
}

TEST(SvcProto, ResponseShapes) {
  const obs::Json ok = make_response(9, obs::Json::object());
  EXPECT_EQ(ok.at("schema").as_string(), kRpcSchema);
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_EQ(ok.at("id").as_u64(), 9u);

  const obs::Json err = make_error(9, ErrorCode::kOverloaded, "try later");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(err.at("error").at("message").as_string(), "try later");
}

// ---- transports -----------------------------------------------------------

TEST(SvcTransport, StreamRoundTrip) {
  // One pipe, both of its ends on one FdTransport(read_fd, write_fd):
  // frames come back in order, and close() — of the write fd — is a clean
  // end of stream after them.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FdTransport pipe(fds[0], fds[1]);
  pipe.write(request_json(1, "status"));
  pipe.write(request_json(2, "status"));
  pipe.close();
  obs::Json frame;
  ASSERT_TRUE(pipe.read(frame));
  EXPECT_EQ(frame.at("id").as_u64(), 1u);
  ASSERT_TRUE(pipe.read(frame));
  EXPECT_EQ(frame.at("id").as_u64(), 2u);
  EXPECT_FALSE(pipe.read(frame));
}

TEST(SvcTransport, DuplexDeliversBothDirectionsInOrder) {
  DuplexPair pair = make_duplex();
  pair.client->write(request_json(1, "status"));
  pair.server->write(make_response(1, obs::Json::object()));
  obs::Json frame;
  ASSERT_TRUE(pair.server->read(frame));
  EXPECT_EQ(frame.at("kind").as_string(), "status");
  ASSERT_TRUE(pair.client->read(frame));
  EXPECT_TRUE(frame.at("ok").as_bool());
}

TEST(SvcTransport, CloseDrainsThenSignalsEof) {
  DuplexPair pair = make_duplex();
  pair.client->write(request_json(1, "status"));
  pair.client->close();
  obs::Json frame;
  ASSERT_TRUE(pair.server->read(frame));  // buffered frame survives close
  EXPECT_FALSE(pair.server->read(frame));
}

// ---- registry -------------------------------------------------------------

TEST(SvcRegistry, LoadDedupsByContent) {
  CircuitRegistry reg(std::size_t(64) << 20);
  const std::string text = bench_text(test_circuit());
  const auto a = reg.load_bench(text, "first");
  const auto b = reg.load_bench(text, "second");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // the same cached entry, not a copy
  const RegistryStats stats = reg.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.loads, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(SvcRegistry, ContentHashIgnoresNames) {
  auto build = [](const char* in1, const char* in2, const char* out) {
    net::Network n;
    const auto a = n.add_input(in1);
    const auto b = n.add_input(in2);
    n.add_output(n.add_gate(net::GateType::kAnd, {a, b}), out);
    return n;
  };
  EXPECT_EQ(content_hash(build("a", "b", "o")),
            content_hash(build("x", "y", "z")));

  net::Network other;
  const auto a = other.add_input("a");
  const auto b = other.add_input("b");
  other.add_output(other.add_gate(net::GateType::kOr, {a, b}), "o");
  EXPECT_NE(content_hash(build("a", "b", "o")), content_hash(other));
}

TEST(SvcRegistry, EntryPrecomputesFaultListAndCnf) {
  CircuitRegistry reg(std::size_t(64) << 20);
  const net::Network n = test_circuit();
  const auto entry = reg.load_bench(bench_text(n), "c");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->faults.size(), fault::collapsed_fault_list(n).size());
  EXPECT_GT(entry->cnf_clauses, 0u);
  EXPECT_GT(entry->approx_bytes, 0u);
  EXPECT_EQ(entry->key.size(), 16u);
  // The shared miter covers the entry's whole collapsed fault list.
  const auto miter = reg.shared_miter(*entry);
  ASSERT_NE(miter, nullptr);
  EXPECT_GT(miter->num_clauses(), entry->cnf_clauses);
  for (const fault::StuckAtFault& f : entry->faults)
    EXPECT_TRUE(miter->covers(f));
}

/// The registry's estimate of a circuit alone: its network and its
/// collapsed fault list, no encoding.
std::size_t circuit_estimate(const CircuitEntry& entry) {
  std::size_t bytes = entry.faults.size() * sizeof(fault::StuckAtFault);
  for (net::NodeId id = 0; id < entry.net.node_count(); ++id)
    bytes += sizeof(net::Network::Node) +
             2 * sizeof(std::vector<net::NodeId>) +
             (entry.net.fanins(id).size() + entry.net.fanouts(id).size()) *
                 sizeof(net::NodeId);
  return bytes;
}

/// The registry's estimate of a shared-miter encoding.
std::size_t encoding_estimate(const fault::SharedMiterCnf& miter) {
  return miter.cnf().num_clauses() * sizeof(sat::Clause) +
         miter.cnf().num_literals() * sizeof(sat::Lit);
}

TEST(SvcRegistry, LoadCountsTheCircuitWithoutAnEncoding) {
  CircuitRegistry reg(std::size_t(64) << 20);
  const auto entry = reg.load_bench(bench_text(test_circuit()), "c");
  EXPECT_EQ(entry->approx_bytes, circuit_estimate(*entry));
  EXPECT_EQ(reg.stats().bytes, circuit_estimate(*entry));
}

TEST(SvcRegistry, SharedMiterIsBuiltOnceAndCountedOnce) {
  CircuitRegistry reg(std::size_t(64) << 20);
  const auto entry = reg.load_bench(bench_text(test_circuit()), "c");
  const std::size_t loaded = reg.stats().bytes;
  const auto miter = reg.shared_miter(*entry);
  ASSERT_NE(miter, nullptr);
  for (const fault::StuckAtFault& f : entry->faults)
    EXPECT_TRUE(miter->covers(f));
  EXPECT_EQ(reg.stats().bytes, loaded + encoding_estimate(*miter));
  EXPECT_EQ(reg.shared_miter(*entry).get(), miter.get());
  EXPECT_EQ(reg.stats().bytes, loaded + encoding_estimate(*miter));
}

// tsan: eight first callers race to build one entry's encoding; exactly
// one build happens, every caller gets it, and it is counted once.
TEST(SvcRegistry, ConcurrentFirstCallersShareOneBuild) {
  CircuitRegistry reg(std::size_t(64) << 20);
  const auto entry = reg.load_bench(bench_text(test_circuit()), "c");
  const std::size_t loaded = reg.stats().bytes;
  constexpr std::size_t kCallers = 8;
  std::vector<std::shared_ptr<const fault::SharedMiterCnf>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t)
    callers.emplace_back([&, t] { got[t] = reg.shared_miter(*entry); });
  for (std::thread& t : callers) t.join();
  ASSERT_NE(got[0], nullptr);
  for (std::size_t t = 1; t < kCallers; ++t)
    EXPECT_EQ(got[t].get(), got[0].get()) << "caller " << t;
  EXPECT_EQ(reg.stats().bytes, loaded + encoding_estimate(*got[0]));
}

TEST(SvcRegistry, BuildingAnEncodingEvictsToTheBudget) {
  const std::string older = bench_text(test_circuit());
  const std::string newer = bench_text(net::decompose(gen::comparator(4)));
  // A budget that holds both circuits exactly, and so no circuit plus its
  // encoding.
  std::size_t budget = 0;
  {
    CircuitRegistry probe(std::size_t(64) << 20);
    probe.load_bench(older, "older");
    probe.load_bench(newer, "newer");
    budget = probe.stats().bytes;
  }
  CircuitRegistry reg(budget);
  const auto a = reg.load_bench(older, "older");
  const auto b = reg.load_bench(newer, "newer");
  ASSERT_EQ(reg.stats().entries, 2u);
  ASSERT_EQ(reg.stats().evictions, 0u);
  const auto miter = reg.shared_miter(*b);
  const RegistryStats stats = reg.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, b->approx_bytes + encoding_estimate(*miter));
  EXPECT_EQ(reg.find(a->key), nullptr);
  EXPECT_NE(reg.find(b->key), nullptr);
}

TEST(SvcRegistry, LruEvictionUnderByteBudget) {
  // A 1-byte budget forces eviction on every insert, but the registry must
  // always retain the latest entry (a cache that cannot hold what it was
  // just asked to load is useless).
  CircuitRegistry reg(1);
  const auto first = reg.load_bench(bench_text(test_circuit()), "first");
  const auto second =
      reg.load_bench(bench_text(net::decompose(gen::comparator(4))), "second");
  const RegistryStats stats = reg.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  // The evicted entry stays alive through our shared_ptr: eviction can
  // never yank a circuit out from under an in-flight job.
  EXPECT_FALSE(first->faults.empty());
  EXPECT_EQ(reg.find(first->key), nullptr);   // gone from the registry
  EXPECT_NE(reg.find(second->key), nullptr);  // the newest entry retained
}

TEST(SvcRegistry, FindMissCountsAndReturnsNull) {
  CircuitRegistry reg(std::size_t(64) << 20);
  EXPECT_EQ(reg.find("0000000000000000"), nullptr);
  EXPECT_EQ(reg.stats().misses, 1u);
}

// ---- job queue ------------------------------------------------------------

Job make_job(std::uint64_t id, int priority = 0) {
  Job job;
  job.request_id = id;
  job.priority = priority;
  job.budget = std::make_shared<Budget>();
  return job;
}

TEST(SvcQueue, PriorityFirstFifoWithinLevel) {
  JobQueue q(8);
  ASSERT_TRUE(q.push(make_job(1, 0)));
  ASSERT_TRUE(q.push(make_job(2, 5)));
  ASSERT_TRUE(q.push(make_job(3, 0)));
  ASSERT_TRUE(q.push(make_job(4, 5)));
  Job job;
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(job));
    order.push_back(job.request_id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 1, 3}));
}

TEST(SvcQueue, AdmissionControlRejectsWhenFull) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(make_job(1)));
  EXPECT_TRUE(q.push(make_job(2)));
  EXPECT_FALSE(q.push(make_job(3)));  // full: reject now, not queue forever
  const QueueStats stats = q.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.max_depth, 2u);
}

TEST(SvcQueue, RemoveTakesQueuedJobExactlyOnce) {
  JobQueue q(4);
  ASSERT_TRUE(q.push(make_job(7)));
  EXPECT_FALSE(q.remove(9, 7).has_value());  // wrong session: not yours
  const auto removed = q.remove(0, 7);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->request_id, 7u);
  EXPECT_FALSE(q.remove(0, 7).has_value());  // second remove: already gone
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.stats().removed, 1u);
}

TEST(SvcQueue, CloseDrainsRemainingJobsThenStops) {
  JobQueue q(4);
  ASSERT_TRUE(q.push(make_job(1)));
  ASSERT_TRUE(q.push(make_job(2)));
  q.close();
  EXPECT_FALSE(q.push(make_job(3)));  // admission closed
  Job job;
  EXPECT_TRUE(q.pop(job));  // shutdown path still drains queued jobs
  EXPECT_TRUE(q.pop(job));
  EXPECT_FALSE(q.pop(job));  // closed AND drained: consumer terminates
}

// ---- server over an in-memory duplex --------------------------------------

TEST(SvcServer, LoadCircuitReportsShapeAndDedups) {
  ServedFixture f({.threads = 1});
  const net::Network n = test_circuit();
  obs::Json params = obs::Json::object();
  params["name"] = "one";
  params["text"] = bench_text(n);
  obs::Json resp = f.client.call("load_circuit", std::move(params));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  const obs::Json& circuit = resp.at("result").at("circuit");
  EXPECT_EQ(circuit.at("key").as_string().size(), 16u);
  EXPECT_EQ(circuit.at("inputs").as_u64(), n.inputs().size());
  EXPECT_EQ(circuit.at("outputs").as_u64(), n.outputs().size());
  EXPECT_GT(circuit.at("faults").as_u64(), 0u);
  EXPECT_GT(circuit.at("cnf_clauses").as_u64(), 0u);
  // Idempotency ack: a first load of new content says so...
  EXPECT_FALSE(resp.at("result").at("already_loaded").as_bool());

  // ...and a re-load of identical content (under another name) acks as a
  // dedup hit, so a retrying client — or a cluster coordinator replaying
  // replication after a failover — can tell the no-op apart.
  obs::Json params2 = obs::Json::object();
  params2["name"] = "two";
  params2["text"] = bench_text(n);
  obs::Json resp2 = f.client.call("load_circuit", std::move(params2));
  ASSERT_TRUE(resp2.at("ok").as_bool()) << resp2.dump();
  EXPECT_TRUE(resp2.at("result").at("already_loaded").as_bool());
  EXPECT_EQ(resp2.at("result").at("circuit").at("key").as_string(),
            circuit.at("key").as_string());
  EXPECT_EQ(f.server.registry_stats().entries, 1u);
}

TEST(SvcServer, MalformedRequestsGetBadRequestWithCorrelatedId) {
  ServedFixture f({.threads = 1});
  // Unknown kind: validation fails but the id is recoverable.
  f.client.t->write(request_json(77, "frobnicate"));
  obs::Json resp = f.client.recv();
  EXPECT_EQ(resp.at("id").as_u64(), 77u);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");

  // Job against a circuit that was never loaded.
  obs::Json params = obs::Json::object();
  params["circuit"] = "ffffffffffffffff";
  resp = f.client.call("run_atpg", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "not_found");

  // Malformed bench text is the client's error, not an internal one.
  params = obs::Json::object();
  params["text"] = "this is not a bench netlist";
  resp = f.client.call("load_circuit", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");
}

/// The determinism contract, end to end: a served run_atpg must be
/// byte-identical to calling the engine directly with the same options —
/// at one thread and at several.
TEST(SvcServer, ServedRunAtpgMatchesDirectCallByteForByte) {
  ServedFixture f({.threads = 2});
  const net::Network n = test_circuit();
  const std::string key = f.load(n);

  // The server solves the *round-tripped* network; compare against the
  // same bytes it parsed, not the pre-serialization original.
  const net::Network round_tripped =
      net::read_bench_string(bench_text(n), n.name());
  fault::AtpgOptions direct_opts;
  direct_opts.seed = 1234;
  const fault::AtpgResult direct = fault::run_atpg(round_tripped, direct_opts);

  // threads 0 and 1 both run serially.
  for (std::uint64_t threads :
       {std::uint64_t(0), std::uint64_t(1), std::uint64_t(3)}) {
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    params["seed"] = std::uint64_t(1234);
    params["threads"] = threads;
    obs::Json resp = f.client.call("run_atpg", std::move(params));
    ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    const obs::Json& result = resp.at("result");
    EXPECT_EQ(result.at("engine").as_string(),
              threads > 1 ? "parallel" : "serial");
    EXPECT_EQ(result.at("threads").as_u64(), threads > 1 ? threads : 1u);
    EXPECT_EQ(result.at("run_report").find("parallel") != nullptr,
              threads > 1);
    EXPECT_FALSE(result.at("interrupted").as_bool());
    EXPECT_EQ(result.at("faults").as_u64(), direct.outcomes.size());
    EXPECT_EQ(result.at("num_detected").as_u64(), direct.num_detected);
    EXPECT_EQ(result.at("num_untestable").as_u64(), direct.num_untestable);
    EXPECT_DOUBLE_EQ(result.at("coverage").as_double(),
                     direct.fault_coverage());
    const obs::Json& tests = result.at("tests");
    ASSERT_EQ(tests.size(), direct.tests.size());
    for (std::size_t i = 0; i < direct.tests.size(); ++i)
      EXPECT_EQ(tests[i].as_string(), encode_bits(direct.tests[i]))
          << "pattern " << i << " diverged at threads=" << threads;
    EXPECT_EQ(result.at("run_report").at("schema").as_string(),
              "cwatpg.run_report/1");
  }
}

/// Same contract for the incremental engine: a served `engine=incremental`
/// job — which runs against the registry's shared miter, built by the
/// first such job — must be byte-identical to a direct engine call that
/// builds its own encoding, serial and parallel alike.
TEST(SvcServer, ServedIncrementalMatchesDirectCallByteForByte) {
  ServedFixture f({.threads = 3});
  const net::Network n = test_circuit();
  const std::string key = f.load(n);
  const net::Network round_tripped =
      net::read_bench_string(bench_text(n), n.name());

  fault::AtpgOptions direct_opts;
  direct_opts.seed = 77;
  direct_opts.engine = fault::AtpgEngine::kIncremental;

  for (std::uint64_t threads : {std::uint64_t(1), std::uint64_t(3)}) {
    direct_opts.threads = static_cast<std::size_t>(threads);
    const fault::AtpgResult direct =
        fault::run_atpg(round_tripped, direct_opts);

    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    params["seed"] = std::uint64_t(77);
    params["threads"] = threads;
    params["engine"] = "incremental";
    obs::Json resp = f.client.call("run_atpg", std::move(params));
    ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    const obs::Json& result = resp.at("result");
    EXPECT_EQ(result.at("engine").as_string(),
              threads > 1 ? "parallel-incremental" : "incremental");
    EXPECT_EQ(result.at("faults").as_u64(), direct.outcomes.size());
    EXPECT_EQ(result.at("num_detected").as_u64(), direct.num_detected);
    EXPECT_EQ(result.at("num_untestable").as_u64(), direct.num_untestable);
    const obs::Json& tests = result.at("tests");
    ASSERT_EQ(tests.size(), direct.tests.size());
    for (std::size_t i = 0; i < direct.tests.size(); ++i)
      EXPECT_EQ(tests[i].as_string(), encode_bits(direct.tests[i]))
          << "pattern " << i << " diverged at threads=" << threads;
    // kIncremental attribution survives into the report, matching the
    // direct run's count exactly (0 is fine when the random phase already
    // dropped everything — what matters is that the columns agree).
    std::uint64_t direct_incremental = 0;
    for (const fault::FaultOutcome& o : direct.outcomes)
      if (o.engine == fault::SolveEngine::kIncremental) ++direct_incremental;
    EXPECT_EQ(result.at("run_report")
                  .at("faults")
                  .at("solve_engine")
                  .at("incremental")
                  .as_u64(),
              direct_incremental);
  }
}

/// Only `engine: incremental` jobs need the shared miter: a per-fault job
/// leaves the registry as the load left it, the first incremental job
/// builds the encoding, and later ones reuse it.
TEST(SvcServer, OnlyTheFirstIncrementalJobGrowsTheRegistry) {
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());
  const auto registry_bytes = [&] {
    return f.client.call("status").at("result").at("registry").at("bytes")
        .as_u64();
  };
  const auto run = [&](const char* engine) {
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    params["engine"] = engine;
    const obs::Json resp = f.client.call("run_atpg", std::move(params));
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  };
  const std::uint64_t loaded = registry_bytes();
  run("per-fault");
  EXPECT_EQ(registry_bytes(), loaded);
  run("incremental");
  const std::uint64_t built = registry_bytes();
  EXPECT_GT(built, loaded);
  run("incremental");
  EXPECT_EQ(registry_bytes(), built);
}

TEST(SvcServer, ThreadsAbove64IsABadRequest) {
  // Each parallel job starts a private pool of `threads` threads.
  ServedFixture f({.threads = 1});
  obs::Json params = obs::Json::object();
  params["circuit"] = f.load(gen::c17());
  params["threads"] = std::uint64_t(65);
  const obs::Json resp = f.client.call("run_atpg", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request")
      << resp.dump();
}

TEST(SvcServer, RunAtpgRejectsUnknownEngine) {
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  params["engine"] = "quantum";
  obs::Json resp = f.client.call("run_atpg", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");
}

TEST(SvcServer, EmptyFaultWindowIsABadRequest) {
  // The engine reads an empty fault_subset as "every fault", so an empty
  // window must never reach it: c17 has 22 collapsed faults, and both
  // empty forms used to answer for all of them.
  ServedFixture f({.threads = 1});
  const std::string key = f.load(gen::c17());
  const auto run = [&](const char* form, std::vector<std::uint64_t> window) {
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    obs::Json indices = obs::Json::array();
    for (const std::uint64_t i : window) indices.push_back(i);
    params[form] = std::move(indices);
    return f.client.call("run_atpg", std::move(params));
  };
  for (const obs::Json& resp :
       {run("fault_range", {3, 3}), run("fault_ids", {})})
    EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request")
        << resp.dump();
  const obs::Json two = run("fault_range", {0, 2});
  ASSERT_TRUE(two.at("ok").as_bool()) << two.dump();
  EXPECT_EQ(two.at("result").at("faults").as_u64(), 2u);
}

TEST(SvcServer, ServedFsimMatchesDirectCall) {
  ServedFixture f({.threads = 1});
  const net::Network n = test_circuit();
  const std::string key = f.load(n);
  const net::Network round_tripped =
      net::read_bench_string(bench_text(n), n.name());

  // Use the direct engine's own tests as the pattern set.
  fault::AtpgOptions opts;
  const fault::AtpgResult atpg = fault::run_atpg(round_tripped, opts);
  const auto faults = fault::collapsed_fault_list(round_tripped);
  const std::vector<bool> direct =
      fault::fault_simulate(round_tripped, faults, atpg.tests);
  const auto direct_detected = static_cast<std::uint64_t>(
      std::count(direct.begin(), direct.end(), true));

  obs::Json patterns = obs::Json::array();
  for (const fault::Pattern& p : atpg.tests) patterns.push_back(encode_bits(p));
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  params["patterns"] = std::move(patterns);
  obs::Json resp = f.client.call("fsim", std::move(params));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  const obs::Json& result = resp.at("result");
  EXPECT_EQ(result.at("patterns").as_u64(), atpg.tests.size());
  EXPECT_EQ(result.at("faults").as_u64(), faults.size());
  EXPECT_EQ(result.at("detected").as_u64(), direct_detected);
}

TEST(SvcServer, FsimRejectsMalformedPatterns) {
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());

  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  obs::Json resp = f.client.call("fsim", std::move(params));  // no patterns
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");

  obs::Json bad = obs::Json::array();
  bad.push_back("01");  // wrong width for the circuit
  params = obs::Json::object();
  params["circuit"] = key;
  params["patterns"] = std::move(bad);
  resp = f.client.call("fsim", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");
}

TEST(SvcServer, StatusReportsServerAndPerJobState) {
  ServedFixture f({.threads = 2});
  obs::Json resp = f.client.call("status");
  ASSERT_TRUE(resp.at("ok").as_bool());
  const obs::Json& result = resp.at("result");
  EXPECT_EQ(result.at("threads").as_u64(), 2u);
  EXPECT_FALSE(result.at("shutting_down").as_bool());
  EXPECT_TRUE(result.contains("queue"));
  EXPECT_TRUE(result.contains("registry"));
  EXPECT_TRUE(result.contains("metrics"));

  // Per-job status of an id the server has never seen.
  obs::Json params = obs::Json::object();
  params["job"] = std::uint64_t(424242);
  resp = f.client.call("status", std::move(params));
  EXPECT_EQ(resp.at("result").at("state").as_string(), "unknown");
}

TEST(SvcServer, ReusedIdStaysDoneForTheLast1024Terminals) {
  // Id 7 finishes twice, then 1,023 other jobs finish: both of 7's
  // terminals are in the done history, and pruning the older one must not
  // erase the newer one's record. The newer 7 is among the last 1,024
  // terminals, so `status` still answers `done`.
  ServedFixture f({.threads = 1});
  const net::Network n = test_circuit();
  obs::Json params = obs::Json::object();
  params["circuit"] = f.load(n);
  obs::Json patterns = obs::Json::array();
  patterns.push_back(std::string(n.inputs().size(), '0'));
  params["patterns"] = std::move(patterns);
  const auto fsim = [&](std::uint64_t id) {
    f.client.t->write(request_json(id, "fsim", params));
    const obs::Json resp = f.client.recv();
    EXPECT_EQ(resp.at("id").as_u64(), id);
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  };
  fsim(7);
  fsim(7);
  for (std::uint64_t id = 10000; id < 10000 + 1023; ++id) fsim(id);

  const auto state = [&](std::uint64_t id) {
    obs::Json job = obs::Json::object();
    job["job"] = id;
    return f.client.call("status", std::move(job))
        .at("result")
        .at("state")
        .as_string();
  };
  EXPECT_EQ(state(7), "done");
  EXPECT_EQ(state(10000), "done");
}

TEST(SvcServer, ExpiredDeadlineYieldsInterruptedResultNotHang) {
  // The deadline is armed at admission and already expired when the job
  // reaches a worker: the engine must stop at its first budget poll and
  // still produce a consistent (empty-progress) terminal response.
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  params["deadline_seconds"] = 1e-9;
  obs::Json resp = f.client.call("run_atpg", std::move(params));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  EXPECT_TRUE(resp.at("result").at("interrupted").as_bool());
  EXPECT_EQ(resp.at("result").at("stop").as_string(), "deadline");
}

TEST(SvcServer, CancelProducesExactlyOneTerminalResponse) {
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());

  // Cancelling an unknown id is answered inline and touches nothing.
  obs::Json params = obs::Json::object();
  params["job"] = std::uint64_t(999999);
  obs::Json resp = f.client.call("cancel", std::move(params));
  EXPECT_EQ(resp.at("result").at("state").as_string(), "unknown");

  // Submit a job and cancel it immediately. Depending on timing the job is
  // still queued (terminal: `cancelled` error), already running (terminal:
  // ok with interrupted/finished result), or even done — every interleaving
  // is legal, but there must be EXACTLY one terminal for the job id.
  params = obs::Json::object();
  params["circuit"] = key;
  const std::uint64_t job_id = f.client.send("run_atpg", std::move(params));
  params = obs::Json::object();
  params["job"] = job_id;
  const std::uint64_t cancel_id = f.client.send("cancel", std::move(params));

  std::map<std::uint64_t, obs::Json> responses;
  while (responses.size() < 2) {
    obs::Json frame = f.client.recv();
    const std::uint64_t id = frame.at("id").as_u64();
    ASSERT_TRUE(responses.emplace(id, std::move(frame)).second)
        << "duplicate response for id " << id;
  }
  const obs::Json& cancel_resp = responses.at(cancel_id);
  ASSERT_TRUE(cancel_resp.at("ok").as_bool());
  const std::string state = cancel_resp.at("result").at("state").as_string();
  EXPECT_TRUE(state == "cancelled" || state == "cancelling" || state == "done")
      << state;
  const obs::Json& terminal = responses.at(job_id);
  if (!terminal.at("ok").as_bool()) {
    EXPECT_EQ(terminal.at("error").at("code").as_string(), "cancelled");
  }
}

TEST(SvcServer, DuplicateLiveRequestIdRejected) {
  ServedFixture f({.threads = 1});
  // Occupy the single worker with a slow job so id 555 is provably still
  // live (queued behind it) when its duplicate arrives — the tiny test
  // circuit alone solves faster than the reader can turn two frames
  // around.
  const std::string slow_key =
      f.load(net::decompose(gen::array_multiplier(5)));
  const std::string key = f.load(test_circuit());
  obs::Json params = obs::Json::object();
  params["circuit"] = slow_key;
  const std::uint64_t slow_id = f.client.send("run_atpg", std::move(params));

  params = obs::Json::object();
  params["circuit"] = key;
  obs::Json dup = request_json(555, "run_atpg", params);
  f.client.t->write(dup);
  f.client.t->write(dup);

  // Expect the duplicate's bad_request, one terminal for 555 and one for
  // the slow job, in any order.
  bool saw_duplicate_error = false, saw_terminal = false, saw_slow = false;
  for (int i = 0; i < 3; ++i) {
    obs::Json resp = f.client.recv();
    const std::uint64_t id = resp.at("id").as_u64();
    if (id == slow_id) {
      saw_slow = true;
      continue;
    }
    EXPECT_EQ(id, 555u);
    if (!resp.at("ok").as_bool() &&
        resp.at("error").at("code").as_string() == "bad_request") {
      saw_duplicate_error = true;
    } else if (resp.at("ok").as_bool()) {
      saw_terminal = true;
    }
  }
  EXPECT_TRUE(saw_duplicate_error);
  EXPECT_TRUE(saw_terminal);
  EXPECT_TRUE(saw_slow);
}

TEST(SvcServer, OverloadedQueueRejectsNotBlocks) {
  // One worker, one queue slot: flooding must answer `overloaded` for the
  // overflow instead of stalling the reader or growing a backlog. Exact
  // counts depend on scheduling; the invariant is one terminal per job and
  // at least one rejection under a flood this heavy.
  ServedFixture f({.threads = 1, .queue_capacity = 1});
  const std::string key = f.load(test_circuit());
  constexpr int kJobs = 12;
  std::set<std::uint64_t> pending;
  for (int i = 0; i < kJobs; ++i) {
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    pending.insert(f.client.send("run_atpg", std::move(params)));
  }
  std::size_t overloaded = 0;
  for (int i = 0; i < kJobs; ++i) {
    obs::Json resp = f.client.recv();
    ASSERT_EQ(pending.erase(resp.at("id").as_u64()), 1u)
        << "unexpected or duplicate response " << resp.dump();
    if (!resp.at("ok").as_bool()) {
      EXPECT_EQ(resp.at("error").at("code").as_string(), "overloaded");
      ++overloaded;
    }
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(f.server.queue_stats().rejected, overloaded);
}

TEST(SvcServer, ShutdownDrainsInFlightAndAnswersLast) {
  ServedFixture f({.threads = 1, .queue_capacity = 16});
  const std::string key = f.load(test_circuit());
  constexpr int kJobs = 4;
  std::set<std::uint64_t> jobs;
  for (int i = 0; i < kJobs; ++i) {
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    jobs.insert(f.client.send("run_atpg", std::move(params)));
  }
  const std::uint64_t shutdown_id = f.client.send("shutdown");

  // The shutdown response is written only after every admitted job has
  // sent its terminal, so it must be the last frame on the stream.
  std::vector<obs::Json> frames;
  for (int i = 0; i < kJobs + 1; ++i) frames.push_back(f.client.recv());
  const obs::Json& last = frames.back();
  EXPECT_EQ(last.at("id").as_u64(), shutdown_id);
  ASSERT_TRUE(last.at("ok").as_bool()) << last.dump();
  EXPECT_TRUE(last.at("result").at("drained").as_bool());
  EXPECT_EQ(last.at("result").at("in_flight").as_u64(), 0u);
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(jobs.erase(frames[i].at("id").as_u64()), 1u);
    // Each job either completed before the drain or was failed with
    // shutting_down; both are terminal, neither may be dropped.
    if (!frames[i].at("ok").as_bool()) {
      EXPECT_EQ(frames[i].at("error").at("code").as_string(),
                "shutting_down");
    }
  }
  EXPECT_TRUE(jobs.empty());
  obs::Json extra;
  EXPECT_FALSE(f.client.t->read(extra));  // stream closes after shutdown
}

/// The TSan centerpiece: several submitter threads race run_atpg, fsim and
/// cancel requests against one server while jobs complete out of order.
/// Every job must get exactly one terminal response, and a clean shutdown
/// must drain whatever is still in flight.
TEST(SvcServer, ConcurrentClientsEveryJobGetsExactlyOneTerminal) {
  ServedFixture f({.threads = 3, .queue_capacity = 64});
  const net::Network n = test_circuit();
  const std::string key = f.load(n);
  obs::Json fsim_patterns = obs::Json::array();
  fsim_patterns.push_back(std::string(n.inputs().size(), '1'));
  fsim_patterns.push_back(std::string(n.inputs().size(), '0'));

  constexpr int kThreads = 3;
  constexpr int kJobsPerThread = 6;
  std::vector<std::set<std::uint64_t>> job_ids(kThreads);
  std::vector<std::set<std::uint64_t>> control_ids(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      // Ids are partitioned per thread so they never collide.
      std::uint64_t next = 1000 + static_cast<std::uint64_t>(t) * 1000;
      for (int i = 0; i < kJobsPerThread; ++i) {
        const std::uint64_t id = next++;
        obs::Json params = obs::Json::object();
        params["circuit"] = key;
        if (i % 3 == 1) {
          params["patterns"] = fsim_patterns;
          f.client.t->write(request_json(id, "fsim", std::move(params)));
        } else {
          params["seed"] = id;
          f.client.t->write(request_json(id, "run_atpg", std::move(params)));
        }
        job_ids[t].insert(id);
        if (i % 3 == 2) {
          // Race a cancel against the job we just submitted.
          const std::uint64_t cancel_id = next++;
          obs::Json cparams = obs::Json::object();
          cparams["job"] = id;
          f.client.t->write(
              request_json(cancel_id, "cancel", std::move(cparams)));
          control_ids[t].insert(cancel_id);
        }
      }
    });
  }
  for (std::thread& s : submitters) s.join();

  std::set<std::uint64_t> expected;
  for (int t = 0; t < kThreads; ++t) {
    expected.insert(job_ids[t].begin(), job_ids[t].end());
    expected.insert(control_ids[t].begin(), control_ids[t].end());
  }
  std::size_t want = expected.size();
  while (want-- > 0) {
    obs::Json resp = f.client.recv();
    const std::uint64_t id = resp.at("id").as_u64();
    ASSERT_EQ(expected.erase(id), 1u)
        << "duplicate or unknown response id " << id;
    if (!resp.at("ok").as_bool()) {
      const std::string code = resp.at("error").at("code").as_string();
      EXPECT_TRUE(code == "cancelled" || code == "overloaded") << code;
    }
  }
  EXPECT_TRUE(expected.empty());

  const std::uint64_t shutdown_id = f.client.send("shutdown");
  obs::Json resp = f.client.recv();
  EXPECT_EQ(resp.at("id").as_u64(), shutdown_id);
  EXPECT_TRUE(resp.at("result").at("drained").as_bool());
}

// ---- resilience -----------------------------------------------------------

#define SKIP_WITHOUT_FAILPOINTS() \
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF"

/// The byte duplex is a real socketpair: a frame larger than one 64 KiB
/// read arrives in pieces the decoder must reassemble, with the next
/// frame's bytes carried over behind it.
TEST(SvcTransport, ByteDuplexDeliversLargeFramesThroughShortReads) {
  DuplexPair pair = make_byte_duplex();
  obs::Json params = obs::Json::object();
  params["blob"] = std::string(100 * 1024, 'x');
  const obs::Json msg = request_json(1, "load_circuit", std::move(params));

  std::thread writer([&] {
    pair.client->write(msg);
    pair.client->write(msg);  // back-to-back: framing must not drift
  });
  obs::Json got;
  ASSERT_TRUE(pair.server->read(got));
  EXPECT_EQ(got, msg);
  ASSERT_TRUE(pair.server->read(got));
  EXPECT_EQ(got, msg);
  writer.join();

  writer = std::thread([&] { pair.server->write(msg); });  // other way
  ASSERT_TRUE(pair.client->read(got));
  EXPECT_EQ(got, msg);
  writer.join();

  pair.client->close();
  EXPECT_FALSE(pair.server->read(got)) << "close must surface as EOF";
}

TEST(SvcProto, ShortReadAndShortWriteFailpointsRoundTrip) {
  SKIP_WITHOUT_FAILPOINTS();
  obs::Json params = obs::Json::object();
  params["blob"] = std::string(997, 'y');
  const obs::Json msg = request_json(9, "status", std::move(params));

  DuplexPair pair = make_byte_duplex();
  // Writer dribbles 5 bytes per send; reader gets at most 3 per read. The
  // frame must still arrive intact.
  fp::ScheduleScope fps(
      "svc.proto.write.short=always@5;net.read.short=always@3");
  pair.client->write(msg);
  obs::Json got;
  ASSERT_TRUE(pair.server->read(got));
  EXPECT_EQ(got, msg);
  const auto counts = fp::Registry::instance().counts();
  EXPECT_EQ(counts.at("svc.proto.write.short").fires, 1u);  // one per frame
  EXPECT_GE(counts.at("net.read.short").fires, encode_frame(msg).size() / 3);
}

TEST(SvcProto, CorruptLengthAndMidFrameEofFailpointsThrow) {
  SKIP_WITHOUT_FAILPOINTS();
  const std::string bytes = encode_frame(request_json(3, "status"));
  for (const char* schedule :
       {"svc.proto.read.corrupt_len=once", "svc.proto.read.eof=once"}) {
    fp::ScheduleScope fps(schedule);
    FrameDecoder d;
    EXPECT_THROW(feed_all(d, bytes), ProtocolError) << schedule;
  }
}

TEST(SvcClient, RetriesOverloadedWithBackoffUnderSameId) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());

  std::vector<double> sleeps;
  ClientOptions copts;
  copts.sleep_fn = [&sleeps](double s) { sleeps.push_back(s); };
  Client retry(*f.pair.client, copts);

  fp::ScheduleScope fps("svc.queue.full=once");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  const std::uint64_t id = retry.submit("run_atpg", std::move(params));
  const std::optional<obs::Json> resp = retry.await(id);
  ASSERT_TRUE(resp.has_value()) << "session tore during a retried submit";
  EXPECT_TRUE(resp->at("ok").as_bool()) << resp->dump();
  EXPECT_EQ(resp->at("id").as_u64(), id) << "resubmission must reuse the id";

  EXPECT_EQ(retry.stats().overloaded, 1u);
  EXPECT_EQ(retry.stats().retries, 1u);
  ASSERT_EQ(sleeps.size(), 1u);
  // First-attempt backoff: base scaled by jitter in [0.5, 1.0).
  EXPECT_GE(sleeps[0], BackoffPolicy{}.base_seconds * 0.5);
  EXPECT_LT(sleeps[0], BackoffPolicy{}.base_seconds);
}

TEST(SvcClient, ExhaustedRetriesSurfaceTheRejection) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());

  ClientOptions copts;
  copts.max_attempts = 3;
  copts.sleep_fn = [](double) {};
  Client retry(*f.pair.client, copts);

  fp::ScheduleScope fps("svc.queue.full=always");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  const std::uint64_t id = retry.submit("run_atpg", std::move(params));
  const std::optional<obs::Json> resp = retry.await(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(retry.stats().retries, 2u) << "3 attempts = 2 resubmissions";
}

TEST(SvcServer, WatchdogCancelsJobWithNoProgress) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1,
                   .watchdog_stall_seconds = 0.05,
                   .watchdog_poll_seconds = 0.01});
  const std::string key = f.load(test_circuit());

  // The worker wedges for up to 2s making zero Budget polls; the watchdog
  // must cancel it long before that, after which the stall loop yields
  // and the engine runs to a cancelled (interrupted) — but terminal — end.
  fp::ScheduleScope fps("svc.server.execute.stall=always@2000");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  const auto t0 = std::chrono::steady_clock::now();
  obs::Json resp = f.client.call("run_atpg", std::move(params));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  EXPECT_TRUE(resp.at("result").at("interrupted").as_bool());
  EXPECT_LT(elapsed, 1.5) << "watchdog should cancel at ~50ms, not wait "
                             "out the full stall";
}

TEST(SvcServer, WatchdogDetachesJobThatIgnoresCancel) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1,
                   .watchdog_stall_seconds = 0.05,
                   .watchdog_detach_seconds = 0.05,
                   .watchdog_poll_seconds = 0.01});
  const std::string key = f.load(test_circuit());

  // This worker also ignores cancellation (a true wedge, bounded at 700ms
  // so the drain below terminates). Escalation must reach detach: the
  // client gets its one `internal` terminal while the worker is still
  // stuck, and the worker's own eventual finish loses the CAS silently.
  fp::ScheduleScope fps(
      "svc.server.execute.stall=always@700;"
      "svc.server.stall.ignore_cancel=always");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  obs::Json resp = f.client.call("run_atpg", std::move(params));
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "internal");
  EXPECT_NE(resp.at("error").at("message").as_string().find("detached"),
            std::string::npos);

  // Exactly-one-terminal: the next frame is the shutdown response, not a
  // second answer from the detached worker.
  obs::Json shut = f.client.call("shutdown");
  EXPECT_TRUE(shut.at("result").at("drained").as_bool());
}

/// Sends a run_atpg job on circuit `key` and returns its id.
std::uint64_t send_job(ServedFixture& f, const std::string& key,
                       int priority = 0) {
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  params["priority"] = priority;
  return f.client.send("run_atpg", std::move(params));
}

/// Polls `status` until job `id` is running. Only valid while no terminal
/// can arrive, since each poll reads the next frame as its answer.
void await_running(ServedFixture& f, std::uint64_t id) {
  for (int poll = 0; poll < 5000; ++poll) {
    obs::Json params = obs::Json::object();
    params["job"] = id;
    const obs::Json resp = f.client.call("status", std::move(params));
    if (resp.at("result").at("state").as_string() == "running") return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " never started";
}

TEST(SvcServer, QueueCapacityCountsEveryJobNotYetRunning) {
  SKIP_WITHOUT_FAILPOINTS();
  // One job thread, one queue slot. While A runs, B waits in the queue and
  // fills it, so C is refused at once, before any job has finished.
  ServedFixture f({.threads = 1, .queue_capacity = 1});
  const std::string key = f.load(test_circuit());
  fp::ScheduleScope fps("svc.server.execute.stall=always@400");
  const std::uint64_t a = send_job(f, key);
  await_running(f, a);
  const std::uint64_t b = send_job(f, key);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const obs::Json status = f.client.call("status");
  EXPECT_EQ(status.at("result").at("queue").at("depth").as_u64(), 1u);

  const std::uint64_t c = send_job(f, key);
  std::vector<obs::Json> frames;
  for (int i = 0; i < 3; ++i) frames.push_back(f.client.recv());
  EXPECT_EQ(frames[0].at("id").as_u64(), c);
  ASSERT_FALSE(frames[0].at("ok").as_bool()) << frames[0].dump();
  EXPECT_EQ(frames[0].at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(frames[1].at("id").as_u64(), a);
  EXPECT_EQ(frames[2].at("id").as_u64(), b);
}

TEST(SvcServer, PriorityIsDecidedWhenASlotFrees) {
  SKIP_WITHOUT_FAILPOINTS();
  // B is queued before D, but D has the higher priority. The job thread
  // picks its next job only when A has finished, so D runs before B.
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());
  fp::ScheduleScope fps("svc.server.execute.stall=always@300");
  const std::uint64_t a = send_job(f, key);
  await_running(f, a);
  const std::uint64_t b = send_job(f, key, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t d = send_job(f, key, 10);
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 3; ++i) {
    const obs::Json resp = f.client.recv();
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    order.push_back(resp.at("id").as_u64());
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{a, d, b}));
}

TEST(SvcServer, WorkerThrowFailpointYieldsInternalTerminal) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());
  fp::ScheduleScope fps("svc.server.execute.throw=once");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  obs::Json resp = f.client.call("run_atpg", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "internal");
}

TEST(SvcServer, RegistryEvictionUnderPinningStillServesTheJob) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());

  // find() pins the entry via shared_ptr, then the failpoint evicts the
  // whole registry out from under it. The in-flight job must keep its
  // pinned circuit and complete; only the NEXT lookup misses.
  fp::ScheduleScope fps("svc.registry.evict=once");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  obs::Json resp = f.client.call("run_atpg", params);
  EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();

  obs::Json resp2 = f.client.call("run_atpg", std::move(params));
  EXPECT_EQ(resp2.at("error").at("code").as_string(), "not_found");
}

TEST(SvcServer, RegistryAllocFailureIsInternalNotBadRequest) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1});
  fp::ScheduleScope fps("svc.registry.alloc=once");
  obs::Json params = obs::Json::object();
  params["name"] = "c";
  params["text"] = bench_text(test_circuit());
  obs::Json resp = f.client.call("load_circuit", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "internal")
      << "OOM is the server's failure; bad_request would tell the client "
         "to fix a valid netlist";
}

TEST(SvcServer, SolverAllocFailureIsInternalTerminal) {
  SKIP_WITHOUT_FAILPOINTS();
  ServedFixture f({.threads = 1});
  const std::string key = f.load(test_circuit());
  fp::ScheduleScope fps("sat.solver.alloc=once");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  // No random phase: every fault goes to SAT, so the first solve hits the
  // armed allocation failure.
  params["random_blocks"] = 0;
  obs::Json resp = f.client.call("run_atpg", std::move(params));
  EXPECT_EQ(resp.at("error").at("code").as_string(), "internal");
}

/// Shutdown-vs-cancel race: cancels for queued/running jobs arrive
/// back-to-back with the shutdown. Whatever interleaving results, every
/// job and every control request gets exactly one response and the
/// shutdown response comes last. Run at 1 worker (everything queued) and
/// N workers (cancels race live executions) — the latter matters under
/// TSan (`ctest -L tsan`).
void shutdown_cancel_race(std::size_t threads) {
  ServedFixture f({.threads = threads});
  const std::string key = f.load(test_circuit());

  constexpr int kJobs = 6;
  std::vector<std::uint64_t> job_ids;
  for (int i = 0; i < kJobs; ++i) {
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    params["seed"] = static_cast<std::uint64_t>(i);
    job_ids.push_back(f.client.send("run_atpg", std::move(params)));
  }
  std::vector<std::uint64_t> control_ids;
  for (int i = 0; i < kJobs; i += 2) {
    obs::Json params = obs::Json::object();
    params["job"] = job_ids[static_cast<std::size_t>(i)];
    control_ids.push_back(f.client.send("cancel", std::move(params)));
  }
  const std::uint64_t shutdown_id = f.client.send("shutdown");

  std::map<std::uint64_t, int> seen;
  std::uint64_t last_id = 0;
  obs::Json frame;
  while (f.pair.client->read(frame)) {
    last_id = frame.at("id").as_u64();
    ++seen[last_id];
  }
  EXPECT_EQ(last_id, shutdown_id) << "shutdown must answer last";
  for (const std::uint64_t id : job_ids)
    EXPECT_EQ(seen[id], 1) << "job " << id;
  for (const std::uint64_t id : control_ids)
    EXPECT_EQ(seen[id], 1) << "cancel " << id;
  EXPECT_EQ(seen[shutdown_id], 1);
}

TEST(SvcServer, ShutdownVsCancelRaceSingleWorker) {
  shutdown_cancel_race(1);
}

TEST(SvcServer, ShutdownVsCancelRaceManyWorkers) {
  shutdown_cancel_race(4);
}

TEST(SvcServer, JournalRecordsLifecycleAndReportsInterrupted) {
  const std::string path =
      ::testing::TempDir() + "cwatpg_svc_journal_test.jsonl";
  std::remove(path.c_str());

  {
    ServedFixture f({.threads = 1, .journal_path = path});
    const std::string key = f.load(test_circuit());
    obs::Json params = obs::Json::object();
    params["circuit"] = key;
    obs::Json resp = f.client.call("run_atpg", std::move(params));
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    f.client.call("shutdown");
  }
  {
    const Journal::Recovery rec = Journal::recover(path);
    EXPECT_EQ(rec.records, 2u) << "one accepted + one terminal";
    EXPECT_EQ(rec.corrupt, 0u);
    EXPECT_TRUE(rec.interrupted.empty()) << "clean run leaves nothing open";
  }

  // Simulate a crash: an accepted record the dead process never closed.
  {
    Journal j(path);
    j.record_accepted(777, "run_atpg", "ghost-circuit");
  }
  {
    ServedFixture f({.threads = 1, .journal_path = path});
    obs::Json resp = f.client.call("status");
    const obs::Json& interrupted =
        resp.at("result").at("interrupted_jobs");
    ASSERT_EQ(interrupted.size(), 1u) << resp.dump();
    for (const obs::Json& rec : interrupted.items()) {
      EXPECT_EQ(rec.at("job").as_u64(), 777u);
      EXPECT_EQ(rec.at("kind").as_string(), "run_atpg");
    }
    f.client.call("shutdown");
  }
  // The restart journaled `interrupted` for job 777, so a SECOND restart
  // reports nothing: the loss is surfaced exactly once.
  {
    ServedFixture f({.threads = 1, .journal_path = path});
    obs::Json resp = f.client.call("status");
    EXPECT_EQ(resp.at("result").at("interrupted_jobs").size(), 0u)
        << resp.dump();
  }
  std::remove(path.c_str());
}

TEST(SvcServer, JournalIoFailureDegradesButKeepsServing) {
  SKIP_WITHOUT_FAILPOINTS();
  const std::string path =
      ::testing::TempDir() + "cwatpg_svc_journal_degraded.jsonl";
  std::remove(path.c_str());
  ServedFixture f({.threads = 1, .journal_path = path});
  const std::string key = f.load(test_circuit());

  fp::ScheduleScope fps("svc.journal.io_error=always");
  obs::Json params = obs::Json::object();
  params["circuit"] = key;
  obs::Json resp = f.client.call("run_atpg", std::move(params));
  EXPECT_TRUE(resp.at("ok").as_bool())
      << "a dead disk degrades durability, not availability: "
      << resp.dump();

  obs::Json status = f.client.call("status");
  EXPECT_GE(status.at("result")
                .at("metrics")
                .at("counters")
                .at("svc.journal.failures")
                .as_u64(),
            2u)
      << status.dump();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cwatpg::svc
