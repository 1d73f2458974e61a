// TCP front-end integration tests against a live RouteService:
// socket replies must be byte-identical to in-process lookup_batch
// results at the same snapshot version; concurrent clients across
// snapshot flips each see monotone versions; malformed frames get one
// ERROR frame and a clean close without leaking connection slots; and
// a client that pipelines without draining trips the outbox bound.
#include "frontend/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "frontend/client.h"
#include "runner/scenario.h"

namespace abrr::frontend {
namespace {

using namespace std::chrono_literals;

/// Same tiny serving world the serve suite uses: 3 PoPs with churn and
/// frequent publishes, so tests observe several snapshot flips.
runner::ScenarioSpec frontend_tiny() {
  runner::ScenarioSpec spec;
  spec.name = "frontend_tiny";
  spec.mode = ibgp::IbgpMode::kAbrr;
  spec.topology.pops = 3;
  spec.topology.clients_per_pop = 2;
  spec.topology.peer_ases = 4;
  spec.topology.points_per_as = 2;
  spec.workload.prefixes = 48;
  spec.workload.snapshot_seconds = 5.0;
  spec.abrr.num_aps = 2;
  spec.serve.enabled = true;
  spec.serve.churn_seconds = 2.0;
  spec.serve.churn_events_per_second = 40.0;
  spec.serve.chaos_events = 2;
  spec.serve.publish_period_seconds = 0.25;
  return spec;
}

void wait_until_stable(serve::RouteService& service) {
  while (!service.done()) std::this_thread::sleep_for(2ms);
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!service.horizon_published() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(service.horizon_published());
}

/// Hit-biased probe plan over the service-wide stable views.
std::vector<serve::LookupRequest> probe_plan(
    serve::RouteService& service, std::size_t n, std::uint32_t salt = 0) {
  serve::RouteService::Reader reader{service};
  std::shared_ptr<const bgp::LpmIndex> index;
  std::vector<bgp::RouterId> routers;
  {
    const serve::RouteService::Reader::PinGuard pin{reader};
    index = pin->index;
    routers = pin->router_ids;
  }
  std::vector<serve::LookupRequest> reqs;
  std::uint32_t probe = 0x9e3779b9u + salt;
  for (std::size_t i = 0; i < n; ++i) {
    probe = probe * 2654435761u + 12345;
    const bgp::Ipv4Prefix& p = index->prefix_at(probe % index->size());
    reqs.push_back(
        serve::LookupRequest{routers[i % routers.size()],
                             p.first() | (probe & (p.last() - p.first()))});
  }
  return reqs;
}

/// Raw-socket helper for the malformed-input tests: the Client refuses
/// to send garbage, so these speak TCP directly.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // server may already have dropped us
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads until EOF or timeout; returns everything received.
  std::vector<std::uint8_t> read_to_eof() {
    std::vector<std::uint8_t> got;
    std::uint8_t chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      got.insert(got.end(), chunk, chunk + n);
    }
    return got;
  }

 private:
  int fd_ = -1;
};

TEST(FrontendServer, SocketRepliesMatchInProcessLookupsByteForByte) {
  serve::RouteService service{frontend_tiny(), 21};
  service.start();
  wait_until_stable(service);

  Server server{service};
  server.start();

  const auto reqs = probe_plan(service, 96);

  // In-process ground truth at the (stable) horizon snapshot.
  serve::RouteService::Reader reader{service};
  std::vector<serve::LookupResponse> expect(reqs.size());
  const serve::BatchResult res = reader.lookup_batch(reqs, expect);
  ASSERT_GT(res.hits, 0u);

  Client client;
  client.connect(server.port());
  const HelloAck ack = client.hello();
  EXPECT_EQ(ack.snapshot_version, res.snapshot_version);
  EXPECT_EQ(ack.fingerprint, res.fingerprint);
  EXPECT_GE(ack.routers, 1u);
  EXPECT_GE(ack.prefixes, 1u);

  const Client::Reply reply = client.lookup(reqs);
  EXPECT_EQ(reply.snapshot_version, res.snapshot_version);
  EXPECT_EQ(reply.fingerprint, res.fingerprint);
  ASSERT_EQ(reply.responses.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(reply.responses[i], expect[i]) << "request " << i;
  }

  const StatsReply stats = client.stats();
  EXPECT_EQ(stats.snapshot_version, res.snapshot_version);
  EXPECT_EQ(stats.lookups_served, reqs.size());
  EXPECT_EQ(stats.batches_served, 1u);
  EXPECT_EQ(stats.connections_accepted, 1u);

  client.close();
  server.stop();
  service.stop();
}

// STATS_REPLY is a view of the service's registry: the server's
// frontend.* series and its loop Reader's serve.lookups series count
// the same lookups the reply reports.
TEST(FrontendServer, StatsReplyIsARegistryView) {
  serve::RouteService service{frontend_tiny(), 25};
  service.start();
  wait_until_stable(service);

  Server server{service};
  server.start();

  // probe_plan's reader only pins, so the server's loop reader is the
  // only one that answers lookups.
  const auto reqs = probe_plan(service, 40);
  constexpr std::uint64_t kBatches = 5;
  Client client;
  client.connect(server.port());
  for (std::uint64_t i = 0; i < kBatches; ++i) client.lookup(reqs);
  const StatsReply stats = client.stats();
  EXPECT_EQ(stats.lookups_served, kBatches * reqs.size());
  EXPECT_EQ(stats.batches_served, kBatches);

  const obs::MetricsRegistry& reg = service.metrics();
  EXPECT_EQ(reg.sum_counters("frontend.lookups"), stats.lookups_served);
  std::vector<std::uint64_t> reader_lookups;
  reg.for_each_counter([&](const obs::MetricInfo& info,
                           const obs::Counter& c) {
    if (info.name == "serve.lookups" && c.value() > 0) {
      reader_lookups.push_back(c.value());
    }
  });
  ASSERT_EQ(reader_lookups.size(), 1u);
  EXPECT_EQ(reader_lookups[0], stats.lookups_served);

  const obs::Labels mine{{"server", std::to_string(server.port())}};
  EXPECT_EQ(reg.merge_histograms("frontend.batch_size", mine).count(),
            kBatches);
  EXPECT_EQ(reg.merge_histograms("frontend.reply_bytes", mine).count(),
            kBatches);
  const std::string json = reg.to_json(/*aggregate=*/true);
  EXPECT_NE(json.find("\"frontend.batch_size\""), std::string::npos);
  EXPECT_NE(json.find("\"frontend.reply_bytes\""), std::string::npos);

  client.close();
  server.stop();
  service.stop();
}

TEST(FrontendServer, ConcurrentClientsSeeMonotoneVersionsAcrossFlips) {
  serve::RouteService service{frontend_tiny(), 22};
  Server server{service};
  server.start();
  service.start();

  constexpr int kClients = 3;
  std::atomic<std::uint64_t> flips_seen{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Each client pins its own probe plan (the stable views exist
      // from version 1 on).
      const auto reqs =
          probe_plan(service, 32, static_cast<std::uint32_t>(c) * 7919u);
      Client client;
      client.connect(server.port(), /*timeout_ms=*/10000);
      std::uint64_t last_version = 0;
      std::uint64_t versions_observed = 0;
      // do-while: even if the writer finished its whole horizon before
      // this thread got scheduled (1-CPU hosts), every client performs
      // at least one batch against the final snapshot.
      do {
        const Client::Reply reply = client.lookup(reqs);
        // One pin per batch: the version a connection observes can only
        // move forward, never backward.
        ASSERT_GE(reply.snapshot_version, last_version);
        if (reply.snapshot_version > last_version) ++versions_observed;
        last_version = reply.snapshot_version;
        ASSERT_EQ(reply.responses.size(), reqs.size());
        for (const serve::LookupResponse& r : reply.responses) {
          ASSERT_EQ(r.snapshot_version, reply.snapshot_version);
          ASSERT_EQ(r.fingerprint, reply.fingerprint);
        }
      } while (!service.done());
      flips_seen.fetch_add(versions_observed);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every client saw at least the first published snapshot.
  EXPECT_GE(flips_seen.load(), static_cast<std::uint64_t>(kClients));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.dropped_proto, 0u);
  EXPECT_EQ(stats.dropped_slow, 0u);
  EXPECT_GT(stats.batches, 0u);

  server.stop();
  service.stop();
}

TEST(FrontendServer, MalformedFramesGetErrorCloseAndLeakNoSlots) {
  serve::RouteService service{frontend_tiny(), 23};
  service.start();
  wait_until_stable(service);

  ServerOptions opt;
  opt.max_connections = 4;  // small cap so a leaked slot would wedge us
  Server server{service, opt};
  server.start();

  const std::vector<std::vector<std::uint8_t>> attacks = {
      {0xde, 0xad, 0xbe, 0xef, 1, 1, 0, 0, 0, 0, 0, 0},  // bad magic
      {0x41, 0x42, 0x52, 0x51, 9, 1, 0, 0, 0, 0, 0, 0},  // bad version
      {0x41, 0x42, 0x52, 0x51, 1, 0x7F, 0, 0, 0, 0, 0, 0},  // bad type
      {0x41, 0x42, 0x52, 0x51, 1, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},  // huge
      {0x41, 0x42, 0x52, 0x51, 1, 2, 0, 0, 0, 0, 0, 0},  // reply-only type
  };
  // More rounds than connection slots: if a dropped connection leaked
  // its slot, the later rounds could not connect.
  for (int round = 0; round < 3; ++round) {
    for (const auto& attack : attacks) {
      RawConn raw{server.port()};
      ASSERT_TRUE(raw.ok()) << "round " << round << ": slot leak?";
      raw.send_bytes(attack);
      const std::vector<std::uint8_t> got = raw.read_to_eof();
      // One well-formed ERROR frame, then EOF.
      Frame frame;
      std::size_t consumed = 0;
      ProtoError err;
      ASSERT_EQ(decode_frame(got, frame, consumed, err), DecodeStatus::kFrame);
      EXPECT_EQ(frame.header.type, FrameType::kError);
      WireError werr;
      EXPECT_FALSE(decode_error(frame.payload, werr));
      EXPECT_GT(werr.code, 0u);
      EXPECT_EQ(consumed, got.size()) << "bytes after the ERROR frame";
    }
  }

  // Truncated garbage (never a full header) must also free its slot on
  // client close, without any ERROR reply.
  for (int i = 0; i < 6; ++i) {
    RawConn raw{server.port()};
    ASSERT_TRUE(raw.ok());
    raw.send_bytes({0x41, 0x42});
  }

  // The front-end still serves a well-behaved client afterwards. Wait
  // until the loop has disposed of every connection above — `active`
  // alone is not enough: on a loaded host the 6 garbage connects can
  // still sit unaccepted in the listen backlog (active == 0 but slots
  // about to fill), and a fresh client queued behind them would be
  // rejected_full against a wall of already-dead sockets. Every
  // connect above ends as accepted or rejected_full, so the drain is
  // observable.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  const std::uint64_t kConnects = 15 + 6;
  while (std::chrono::steady_clock::now() < deadline) {
    const ServerStats s = server.stats();
    if (s.accepted + s.rejected_full >= kConnects && s.active == 0) break;
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_EQ(server.stats().active, 0u);

  const auto reqs = probe_plan(service, 16);
  Client client;
  client.connect(server.port());
  const Client::Reply reply = client.lookup(reqs);
  EXPECT_GE(reply.snapshot_version, 1u);
  EXPECT_EQ(reply.responses.size(), reqs.size());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.dropped_proto, 15u);  // 3 rounds x 5 attacks
  EXPECT_EQ(stats.active, 1u);

  client.close();
  server.stop();
  service.stop();
}

TEST(FrontendServer, SlowClientTripsOutboxBoundAndIsDropped) {
  serve::RouteService service{frontend_tiny(), 24};
  service.start();
  wait_until_stable(service);

  ServerOptions opt;
  // Two replies fit, the third must trip the bound.
  opt.max_outbox_bytes = 2 * lookup_reply_frame_size(512) + 64;
  Server server{service, opt};
  server.start();

  const auto reqs = probe_plan(service, 512);
  // Pipeline lookups without ever reading: replies pile up in the
  // outbox (the kernel socket buffers absorb some, the outbox bound
  // caps the rest) until the server drops the connection.
  Client client;
  client.connect(server.port(), /*timeout_ms=*/10000);
  bool dropped = false;
  try {
    for (int i = 0; i < 4096 && !dropped; ++i) {
      client.send_lookup(reqs);
      dropped = server.stats().dropped_slow > 0;
    }
  } catch (const std::runtime_error&) {
    dropped = true;  // send failed: the server already closed on us
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.stats().dropped_slow == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_GT(server.stats().dropped_slow, 0u);

  // The slot is freed and a draining client still gets full service.
  Client fresh;
  fresh.connect(server.port());
  const Client::Reply reply = fresh.lookup(reqs);
  EXPECT_EQ(reply.responses.size(), reqs.size());

  fresh.close();
  client.close();
  server.stop();
  service.stop();
}

}  // namespace
}  // namespace abrr::frontend
