// frontend_lookup: an ABRR-Q server over a RouteService parked on its
// horizon snapshot (no publishes while measuring), driven over loopback
// in short alternating phases:
//  - open loop: one generator thread sends small frames (16 lookups)
//    over 2 connections at a fixed rate and one receiver thread reads
//    both; each frame is timed from its scheduled send time, and the
//    generator's lateness is reported;
//  - closed loop: 2 connections each keep 2 bulk frames (1,024 lookups)
//    in flight.
// A run builds one fresh world after another and runs a few phase
// pairs on every build.
// The client side is the benchmark's own busy-polling socket code over
// the public frontend/proto codec, so encode and decode can be timed
// inline.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "frontend/proto.h"
#include "frontend/server.h"
#include "serving.h"

namespace perfbench {
namespace {

using namespace abrr;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kSmallBatch = 16;
constexpr std::size_t kBulkBatch = 1024;
constexpr std::size_t kSmallPlanFrames = 512;
constexpr std::size_t kBulkPlanFrames = 32;
constexpr std::size_t kBulkDepth = 2;       // bulk frames in flight per conn
constexpr std::size_t kCheckEvery = 64;     // every 64th reply is compared
/// Offered open-loop rate, frames per second over both connections.
/// Fixed across changes so the latency numbers stay comparable: about
/// half the closed-loop bulk frame rate the seed sustains on a 4-CPU
/// host (~10K frames/s).
constexpr double kOpenLoopRate = 5'000;
constexpr double kOpenLoopSeconds = 0.25;
constexpr double kClosedLoopSeconds = 0.25;
/// Open/closed phase pairs run on each world.
constexpr std::size_t kPhasePairs = 2;

ServingParams frontend_params() {
  ServingParams p;
  p.prefixes = 250;
  p.churn_seconds = 30;
  return p;
}

// --- a minimal ABRR-Q connection over the public codec ---------------------

/// A client connection that busy-polls for replies. On a virtual
/// machine a thread blocked in recv() is woken late by a variable
/// amount, which would be charged to the server; spinning keeps the
/// load generator out of the measurement (the server is unchanged and
/// still blocks in poll()).
class Conn {
 public:
  /// `decode_span` names the span around reply decoding (a literal).
  Conn(std::uint16_t port, const char* decode_span)
      : decode_span_(decode_span) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket");
    int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      fail("connect");
    }
    buf_.reserve(1 << 16);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_all(const std::vector<std::uint8_t>& frame) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("send");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Decodes the next LOOKUP_REPLY into `info`/`out` and its seq when
  /// one is complete, reading only what the socket already holds.
  /// Returns false when the reply has not fully arrived yet. Throws on
  /// ERROR frames, EOF or garbage.
  bool try_recv_reply(frontend::LookupReplyInfo& info,
                      std::vector<serve::LookupResponse>& out,
                      std::uint16_t& seq) {
    for (;;) {
      frontend::Frame frame;
      std::size_t consumed = 0;
      frontend::ProtoError err;
      const std::span<const std::uint8_t> in{buf_.data() + off_,
                                             buf_.size() - off_};
      switch (frontend::decode_frame(in, frame, consumed, err)) {
        case frontend::DecodeStatus::kError:
          throw std::runtime_error("bad frame from server: " + err.to_string());
        case frontend::DecodeStatus::kFrame: {
          if (frame.header.type != frontend::FrameType::kLookupReply) {
            throw std::runtime_error("unexpected frame type from server");
          }
          {
            const Span s{decode_span_};
            if (const auto perr =
                    frontend::decode_lookup_reply(frame.payload, info, out)) {
              throw std::runtime_error("bad LOOKUP_REPLY: " +
                                       perr->to_string());
            }
          }
          off_ += consumed;
          seq = frame.header.seq;
          return true;
        }
        case frontend::DecodeStatus::kNeedMore:
          break;
      }
      if (off_ > 0) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
        off_ = 0;
      }
      std::uint8_t chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("connection closed by server");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
        fail("recv");
      }
      buf_.insert(buf_.end(), chunk, chunk + n);
    }
  }

  /// Spins until the next LOOKUP_REPLY is decoded; returns its seq.
  /// A server silent for 10 s surfaces as an error, not a hang.
  std::uint16_t recv_reply(frontend::LookupReplyInfo& info,
                           std::vector<serve::LookupResponse>& out) {
    std::uint16_t seq = 0;
    const std::uint64_t deadline = now_ns() + kReplyTimeoutNs;
    while (!try_recv_reply(info, out, seq)) {
      if (now_ns() > deadline) throw std::runtime_error("reply timeout");
    }
    return seq;
  }

  static constexpr std::uint64_t kReplyTimeoutNs = 10'000'000'000ull;

 private:
  [[noreturn]] static void fail(const char* what) {
    throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
  }

  const char* decode_span_;
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

/// Frames of one size class: the requests and the in-process answers
/// the TCP replies must equal.
struct Plan {
  std::vector<std::vector<serve::LookupRequest>> frames;
  std::vector<std::vector<serve::LookupResponse>> expected;
};

Plan make_plan(serve::RouteService& service, std::size_t frames,
               std::size_t batch, std::uint64_t salt) {
  Plan plan;
  const std::vector<serve::LookupRequest> all =
      probe_plan(service, frames * batch, salt);
  serve::RouteService::Reader reader{service};
  for (std::size_t f = 0; f < frames; ++f) {
    plan.frames.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(f * batch),
                             all.begin() +
                                 static_cast<std::ptrdiff_t>((f + 1) * batch));
    plan.expected.emplace_back(batch);
    reader.lookup_batch(plan.frames.back(), plan.expected.back());
  }
  return plan;
}

/// A reply kept for comparison after the phase (outside its window).
struct Sampled {
  std::size_t plan_index = 0;
  std::vector<serve::LookupResponse> responses;
};

struct ConnOut {
  Samples latency_us;
  std::vector<Sampled> sampled;
  std::uint64_t frames = 0;
  std::uint64_t lookups = 0;
  std::uint64_t seq_errors = 0;
  std::uint64_t end_ns = 0;
  std::string error;
};

// --- open loop ---------------------------------------------------------------

struct OpenLoopOut {
  Samples rtt_us;
  Samples gen_lag_us;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t inflight_max = 0;
  std::uint64_t seq_errors = 0;
  std::vector<Sampled> sampled;
  std::vector<std::string> errors;
};

OpenLoopOut run_open_loop(std::uint16_t port, const Plan& plan,
                          std::uint64_t request_base) {
  OpenLoopOut out;
  const auto n_frames =
      static_cast<std::size_t>(kOpenLoopRate * kOpenLoopSeconds);
  const double period_ns = 1e9 / kOpenLoopRate;
  const std::size_t per_conn = n_frames / kConnections + 1;

  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Conn>(port, "frontend.decode_reply"));
  }
  // Per connection: the scheduled send time and plan frame of its i-th
  // frame, and a state word = frames sent | (generator finished << 63),
  // published with release so the receiver may read the slots below it.
  constexpr std::uint64_t kDone = 1ull << 63;
  std::vector<std::vector<std::uint64_t>> sched(
      kConnections, std::vector<std::uint64_t>(per_conn));
  std::vector<std::vector<std::size_t>> plan_of(
      kConnections, std::vector<std::size_t>(per_conn));
  std::vector<std::atomic<std::uint64_t>> state(kConnections);
  std::atomic<std::uint64_t> received_total{0};
  std::vector<ConnOut> conn_out(kConnections);
  std::string receive_error;

  // One receiver spins over every connection.
  std::thread receiver([&] {
    frontend::LookupReplyInfo info;
    std::vector<serve::LookupResponse> resps;
    std::vector<std::uint64_t> got(kConnections, 0);
    std::uint64_t last_progress = now_ns();
    try {
      for (;;) {
        bool finished = true;
        for (std::size_t c = 0; c < kConnections; ++c) {
          const std::uint64_t st = state[c].load(std::memory_order_acquire);
          if (got[c] == (st & ~kDone)) {
            if (!(st & kDone)) finished = false;
            continue;
          }
          finished = false;
          std::uint16_t seq = 0;
          if (!conns[c]->try_recv_reply(info, resps, seq)) continue;
          const std::uint64_t t = now_ns();
          last_progress = t;
          ConnOut& o = conn_out[c];
          const std::uint64_t i = got[c]++;
          o.latency_us.add(static_cast<double>(t - sched[c][i]) / 1e3);
          if (seq != static_cast<std::uint16_t>(i + 1)) ++o.seq_errors;
          if (i % kCheckEvery == 0) {
            o.sampled.push_back(Sampled{plan_of[c][i], resps});
          }
          o.lookups += resps.size();
          ++o.frames;
          received_total.fetch_add(1, std::memory_order_relaxed);
        }
        if (finished) return;
        if (now_ns() - last_progress > Conn::kReplyTimeoutNs) {
          throw std::runtime_error("reply timeout");
        }
      }
    } catch (const std::exception& e) {
      receive_error = e.what();
    }
  });

  std::vector<std::uint8_t> frame;
  std::vector<std::uint64_t> conn_sent(kConnections, 0);
  const std::uint64_t t_begin = now_ns() + 1'000'000;  // 1 ms head start
  for (std::size_t k = 0; k < n_frames; ++k) {
    const std::uint64_t due =
        t_begin + static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
    // Spin to the due time: a sleeping thread's wake-up can be late by
    // milliseconds on a virtual machine.
    while (now_ns() < due) {
    }
    out.gen_lag_us.add(static_cast<double>(now_ns() - due) / 1e3);
    const std::size_t c = k % kConnections;
    const std::size_t idx = conn_sent[c];
    const std::size_t p = k % plan.frames.size();
    Tracer::set_request(request_base + idx * kConnections + c);
    {
      const Span s{"frontend.encode_request"};
      frame.clear();
      frontend::append_lookup_batch(frame, static_cast<std::uint16_t>(idx + 1),
                                    plan.frames[p]);
    }
    sched[c][idx] = due;
    plan_of[c][idx] = p;
    try {
      const Span s{"frontend.send"};
      conns[c]->send_all(frame);
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("open-loop send: ") + e.what());
      break;
    }
    conn_sent[c] = idx + 1;
    state[c].store(conn_sent[c], std::memory_order_release);
    ++out.sent;
    const std::uint64_t inflight =
        out.sent - received_total.load(std::memory_order_relaxed);
    out.inflight_max = std::max(out.inflight_max, inflight);
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    state[c].store(conn_sent[c] | kDone, std::memory_order_release);
  }
  receiver.join();
  for (ConnOut& o : conn_out) {
    out.rtt_us.append(o.latency_us);
    out.received += o.frames;
    out.seq_errors += o.seq_errors;
    for (Sampled& s : o.sampled) out.sampled.push_back(std::move(s));
  }
  if (!receive_error.empty()) {
    out.errors.push_back("open-loop receive: " + receive_error);
  }
  return out;
}

// --- closed loop -------------------------------------------------------------

struct ClosedLoopOut {
  Samples frame_us;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t lookups = 0;
  std::uint64_t seq_errors = 0;
  double wall_s = 0;
  std::vector<Sampled> sampled;
  std::vector<std::string> errors;
};

ClosedLoopOut run_closed_loop(std::uint16_t port, const Plan& plan,
                              std::uint64_t request_base) {
  ClosedLoopOut out;
  std::vector<ConnOut> conn_out(kConnections);
  std::vector<std::uint64_t> sent(kConnections, 0);
  const std::uint64_t t_begin = now_ns();
  const std::uint64_t t_stop =
      t_begin + static_cast<std::uint64_t>(kClosedLoopSeconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnOut& o = conn_out[c];
      try {
        Conn conn{port, "frontend.decode_bulk_reply"};
        std::vector<std::uint8_t> frame;
        std::deque<std::pair<std::uint64_t, std::size_t>> inflight;  // t, plan
        frontend::LookupReplyInfo info;
        std::vector<serve::LookupResponse> resps;
        std::uint64_t n_sent = 0;
        const auto send_one = [&] {
          const std::size_t p = (n_sent * kConnections + c) % plan.frames.size();
          Tracer::set_request(request_base + n_sent * kConnections + c);
          {
            const Span s{"frontend.encode_bulk_request"};
            frame.clear();
            frontend::append_lookup_batch(
                frame, static_cast<std::uint16_t>(n_sent + 1), plan.frames[p]);
          }
          inflight.emplace_back(now_ns(), p);
          {
            const Span s{"frontend.send"};
            conn.send_all(frame);
          }
          ++n_sent;
        };
        for (std::size_t d = 0; d < kBulkDepth; ++d) send_one();
        std::uint64_t got = 0;
        while (!inflight.empty()) {
          const std::uint16_t seq = conn.recv_reply(info, resps);
          const std::uint64_t t = now_ns();
          const auto [t_sent, p] = inflight.front();
          inflight.pop_front();
          o.latency_us.add(static_cast<double>(t - t_sent) / 1e3);
          if (seq != static_cast<std::uint16_t>(got + 1)) ++o.seq_errors;
          if (got % kCheckEvery == 0) o.sampled.push_back(Sampled{p, resps});
          o.lookups += resps.size();
          ++got;
          ++o.frames;
          o.end_ns = t;
          if (t < t_stop) send_one();
        }
        sent[c] = n_sent;
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::uint64_t t_end = t_begin;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const ConnOut& o = conn_out[c];
    out.frame_us.append(o.latency_us);
    out.sent += sent[c];
    out.received += o.frames;
    out.lookups += o.lookups;
    out.seq_errors += o.seq_errors;
    t_end = std::max(t_end, o.end_ns);
    for (const Sampled& s : o.sampled) out.sampled.push_back(s);
    if (!o.error.empty()) out.errors.push_back("closed-loop: " + o.error);
  }
  out.wall_s = static_cast<double>(t_end - t_begin) / 1e9;
  return out;
}

// --- one world ---------------------------------------------------------------

struct PhasePair {
  OpenLoopOut open;
  ClosedLoopOut closed;
  double handle_ns_sum = 0;  // server handle time over the open loop
  std::uint64_t handle_count = 0;
  std::uint64_t bytes = 0;  // server bytes in + out over both phases
};

struct World {
  double setup_s = 0;
  double churn_s = 0;
  Samples step_ms;
  bool horizon = false;
  serve::ServiceStats stats;
  std::vector<PhasePair> plain;
  std::vector<PhasePair> traced;  // only in traced runs
  frontend::ServerStats server;
  std::uint64_t mismatches = 0;
  std::uint64_t compared = 0;
  double decode_request_ns = 0;  // server-side codec, per small frame
  double encode_reply_ns = 0;
};

std::uint64_t compare(const Plan& plan, const std::vector<Sampled>& sampled) {
  std::uint64_t bad = 0;
  for (const Sampled& s : sampled) {
    if (s.responses != plan.expected[s.plan_index]) ++bad;
  }
  return bad;
}

PhasePair run_phases(frontend::Server& server, const Plan& small,
                     const Plan& bulk, std::uint64_t request_base) {
  PhasePair pp;
  const frontend::ServerStats s0 = server.stats();
  const obs::Histogram h0 = server.handle_ns_hist();
  pp.open = run_open_loop(server.port(), small, request_base);
  const obs::Histogram h1 = server.handle_ns_hist();
  pp.handle_ns_sum = h1.sum() - h0.sum();
  pp.handle_count = h1.count() - h0.count();
  pp.closed = run_closed_loop(server.port(), bulk, request_base + (1ull << 38));
  const frontend::ServerStats s1 = server.stats();
  pp.bytes = (s1.bytes_in - s0.bytes_in) + (s1.bytes_out - s0.bytes_out);
  return pp;
}

/// Times the server's public proto functions on the open loop's frames.
void time_server_codec(const Plan& small, World& w) {
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::size_t f = 0; f < small.frames.size(); ++f) {
    wire.emplace_back();
    frontend::append_lookup_batch(wire.back(), static_cast<std::uint16_t>(f),
                                  small.frames[f]);
  }
  constexpr std::size_t kIters = 20'000;
  std::vector<serve::LookupRequest> reqs;
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kIters; ++i) {
    const std::vector<std::uint8_t>& bytes = wire[i % wire.size()];
    frontend::Frame frame;
    std::size_t consumed = 0;
    frontend::ProtoError err;
    if (frontend::decode_frame(bytes, frame, consumed, err) ==
        frontend::DecodeStatus::kFrame) {
      (void)frontend::decode_lookup_batch(frame.payload, reqs);
    }
  }
  w.decode_request_ns = static_cast<double>(now_ns() - t0) / kIters;
  std::vector<std::uint8_t> out;
  t0 = now_ns();
  for (std::size_t i = 0; i < kIters; ++i) {
    const auto& resps = small.expected[i % small.expected.size()];
    out.clear();
    frontend::append_lookup_reply(out, static_cast<std::uint16_t>(i),
                                  resps.front().snapshot_version,
                                  resps.front().fingerprint, resps);
  }
  w.encode_reply_ns = static_cast<double>(now_ns() - t0) / kIters;
}

World run_world(const ServingParams& p, std::uint64_t seed, bool trace,
                std::uint64_t request) {
  World w;
  Tracer::enable(false);
  serve::RouteService service{p.spec(), seed, 8};
  const std::uint64_t t0 = now_ns();
  service.start();
  const std::uint64_t t1 = now_ns();
  w.setup_s = static_cast<double>(t1 - t0) / 1e9;

  // Churn to the horizon with no readers; this thread watches the
  // published version (an atomic load, no epoch pin) to time each step.
  VersionLog versions;
  while (!service.done()) versions.observe(service.stats().version, now_ns());
  const std::uint64_t t_done = now_ns();
  w.churn_s = static_cast<double>(t_done - t1) / 1e9;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!service.horizon_published() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  w.horizon = service.horizon_published();
  w.stats = service.stats();
  w.step_ms = VersionLog::step_intervals_ms({&versions}, w.stats.version,
                                            nullptr);

  const Plan small = make_plan(service, kSmallPlanFrames, kSmallBatch, seed);
  const Plan bulk = make_plan(service, kBulkPlanFrames, kBulkBatch, seed + 1);
  frontend::Server server{service};
  server.start();
  // A traced run follows each untraced phase pair with a traced twin.
  for (std::uint64_t i = 0; i < kPhasePairs; ++i) {
    const std::uint64_t base = (request << 48) | (i << 40);
    w.plain.push_back(run_phases(server, small, bulk, base));
    if (trace) {
      Tracer::enable(true);
      w.traced.push_back(run_phases(server, small, bulk, base | (1ull << 39)));
      Tracer::enable(false);
    }
  }
  if (trace) time_server_codec(small, w);
  w.server = server.stats();
  server.stop();
  service.stop();

  // Compare, then drop the kept replies so the next world's peak RSS
  // does not include them.
  for (std::vector<PhasePair>* pairs : {&w.plain, &w.traced}) {
    for (PhasePair& pp : *pairs) {
      w.mismatches += compare(small, pp.open.sampled);
      w.mismatches += compare(bulk, pp.closed.sampled);
      w.compared += pp.open.sampled.size() + pp.closed.sampled.size();
      pp.open.sampled = {};
      pp.closed.sampled = {};
    }
  }
  return w;
}

}  // namespace

Report run_frontend_lookup(const RunOptions& opt) {
  const ServingParams p = frontend_params();
  Report report;
  char cfg[320];
  std::snprintf(cfg, sizeof cfg,
                "{\"connections\":%zu,\"small_batch\":%zu,\"bulk_batch\":%zu,"
                "\"bulk_depth\":%zu,\"open_loop_rate\":%g,"
                "\"open_loop_seconds\":%g,\"closed_loop_seconds\":%g,"
                "\"phase_pairs_per_world\":%zu,"
                "\"transport\":\"tcp loopback\"}",
                kConnections, kSmallBatch, kBulkBatch, kBulkDepth,
                kOpenLoopRate, kOpenLoopSeconds, kClosedLoopSeconds,
                kPhasePairs);
  report.detail["config"] = p.to_json();
  report.detail["load"] = cfg;

  // Fresh worlds until --seconds of wall time have passed.
  constexpr std::size_t kMinWorlds = 3;
  constexpr std::size_t kMaxWorlds = 60;
  std::vector<World> worlds;
  const std::uint64_t t_run = now_ns();
  while (worlds.size() < kMaxWorlds &&
         (worlds.size() < kMinWorlds ||
          static_cast<double>(now_ns() - t_run) / 1e9 < opt.seconds)) {
    worlds.push_back(run_world(p, world_seed(opt.seed, worlds.size()),
                               opt.trace, worlds.size() + 1));
  }
  const double rss_mb = peak_rss_mb();

  // --- correctness -----------------------------------------------------
  for (const World& w : worlds) {
    report.check(w.horizon, "frontend: horizon snapshot was never published");
    report.check_many(w.compared, w.mismatches,
                      "frontend: TCP reply differs from in-process lookup_batch");
    for (const std::vector<PhasePair>* pairs : {&w.plain, &w.traced}) {
      for (const PhasePair& pp : *pairs) {
        report.check_many(pp.open.sent, pp.open.sent - pp.open.received,
                          "frontend: open-loop frames without a reply");
        report.check_many(pp.closed.sent, pp.closed.sent - pp.closed.received,
                          "frontend: closed-loop frames without a reply");
        report.check_many(pp.open.received + pp.closed.received,
                          pp.open.seq_errors + pp.closed.seq_errors,
                          "frontend: reply out of order");
        for (const std::string& e : pp.open.errors) report.check(false, e);
        for (const std::string& e : pp.closed.errors) report.check(false, e);
      }
    }
    report.check(w.server.dropped_slow == 0,
                 "frontend: server dropped a slow connection");
    report.check(w.server.dropped_proto == 0,
                 "frontend: server dropped a connection on a protocol error");
    report.check(w.server.rejected_full == 0,
                 "frontend: server rejected a connection (full)");
  }
  report.detail["worlds"] = std::to_string(worlds.size());

  // --- end-to-end (untraced phases) ------------------------------------
  // Medians over the run: service metrics over its worlds, lookup
  // metrics over its phase pairs. On a shared virtual machine the same
  // work runs up to 1.7x slower while neighbours are busy, in phases of
  // seconds; medians over many short samples spread over the run
  // varied least across runs.
  const auto median = [&worlds](auto value) {
    Samples all;
    for (const World& w : worlds) all.add(value(w));
    return all.median();
  };
  const auto phase_median = [&worlds](auto value) {
    Samples all;
    for (const World& w : worlds) {
      for (const PhasePair& pp : w.plain) all.add(value(pp));
    }
    return all.median();
  };
  const double setup_s = median([](const World& w) { return w.setup_s; });
  Samples gen_lag;
  for (const World& w : worlds) {
    for (const PhasePair& pp : w.plain) gen_lag.append(pp.open.gen_lag_us);
  }
  report.set("setup_s", setup_s, "s");
  // start() builds and converges the served world before it returns.
  report.set("converge_s", setup_s, "s");
  report.set("churn_s", median([](const World& w) { return w.churn_s; }), "s");
  report.set("peak_rss_mb", rss_mb, "MB");
  report.set("step_visible_ms_p50", median([](const World& w) {
               return w.step_ms.quantile(0.5);
             }),
             "ms");
  report.set("step_visible_ms_p90", median([](const World& w) {
               return w.step_ms.quantile(0.9);
             }),
             "ms");
  report.set("lookups_per_s", phase_median([](const PhasePair& pp) {
               return static_cast<double>(pp.closed.lookups) / pp.closed.wall_s;
             }),
             "1/s");
  report.set("lookup_us_p50", phase_median([](const PhasePair& pp) {
               return pp.closed.frame_us.quantile(0.5);
             }),
             "us");
  report.set("lookup_us_p99", phase_median([](const PhasePair& pp) {
               return pp.closed.frame_us.quantile(0.99);
             }),
             "us");
  report.set("rtt_us_p50", phase_median([](const PhasePair& pp) {
               return pp.open.rtt_us.quantile(0.5);
             }),
             "us");
  report.set("rtt_us_p99", phase_median([](const PhasePair& pp) {
               return pp.open.rtt_us.quantile(0.99);
             }),
             "us");
  // Each percentile is taken over one world's or one phase's samples.
  const World& sample = worlds.front();
  report.samples("step_visible_ms_p50", sample.step_ms, 0.5);
  report.samples("step_visible_ms_p90", sample.step_ms, 0.9);
  report.samples("lookup_us_p50", sample.plain.front().closed.frame_us, 0.5);
  report.samples("lookup_us_p99", sample.plain.front().closed.frame_us, 0.99);
  report.samples("rtt_us_p50", sample.plain.front().open.rtt_us, 0.5);
  report.samples("rtt_us_p99", sample.plain.front().open.rtt_us, 0.99);
  report.detail["gen_lag_us_p99"] = json_number(gen_lag.quantile(0.99));

  // --- per-layer (traced phases) ---------------------------------------
  if (opt.trace) {
    const auto spans = Tracer::summary();
    const auto total_ns = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    Samples t_rtt;
    Samples t_lag;
    Samples overhead;
    double handle_sum = 0;
    double handle_count = 0;
    double bytes = 0;
    double looked = 0;
    double frames = 0;
    double small_frames = 0;
    double inflight_max = 0;
    double decode_req = 0;
    double encode_rep = 0;
    for (const World& w : worlds) {
      for (std::size_t i = 0; i < w.traced.size(); ++i) {
        const PhasePair& t = w.traced[i];
        const PhasePair& u = w.plain[i];
        t_rtt.append(t.open.rtt_us);
        t_lag.append(t.open.gen_lag_us);
        handle_sum += t.handle_ns_sum;
        handle_count += static_cast<double>(t.handle_count);
        bytes += static_cast<double>(t.bytes);
        looked += static_cast<double>(t.open.received * kSmallBatch +
                                      t.closed.lookups);
        frames += static_cast<double>(t.open.received + t.closed.received);
        small_frames += static_cast<double>(t.open.received);
        inflight_max =
            std::max(inflight_max, static_cast<double>(t.open.inflight_max));
        const double plain_rate =
            static_cast<double>(u.closed.lookups) / u.closed.wall_s;
        const double traced_rate =
            static_cast<double>(t.closed.lookups) / t.closed.wall_s;
        overhead.add((plain_rate / traced_rate - 1.0) * 100.0);
      }
      decode_req += w.decode_request_ns;
      encode_rep += w.encode_reply_ns;
    }
    const double n = static_cast<double>(worlds.size());
    // Client codec times are per small (open-loop) frame, like the
    // server-side codec times.
    const double enc = total_ns("frontend.encode_request") / small_frames;
    const double dec = total_ns("frontend.decode_reply") / small_frames;
    const double handle_us = handle_count ? handle_sum / handle_count / 1e3 : 0;
    report.set("frontend.encode_request_ns", enc, "ns");
    report.set("frontend.decode_reply_ns", dec, "ns");
    report.set("frontend.decode_request_ns", decode_req / n, "ns");
    report.set("frontend.encode_reply_ns", encode_rep / n, "ns");
    report.set("frontend.handle_us_mean", handle_us, "us");
    report.set("frontend.transport_us_p50",
               t_rtt.quantile(0.5) - handle_us - (enc + dec) / 1e3, "us");
    report.set("frontend.bytes_per_lookup", bytes / looked, "B");
    report.set("frontend.frames", frames / n, "count");
    report.set("frontend.gen_lag_us_p99", t_lag.quantile(0.99), "us");
    report.set("frontend.inflight_max", inflight_max, "count");
    report.set("trace_overhead_pct", overhead.median(), "%");
  }
  return report;
}

}  // namespace perfbench
