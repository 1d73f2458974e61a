#include "frontend/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace abrr::frontend {
namespace {

std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error{std::string{what} + ": " +
                           std::strerror(errno)};
}

}  // namespace

Server::Server(serve::RouteService& service, ServerOptions options)
    : service_(&service), options_(options) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::logic_error{"Server::start() called twice"};

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw_errno("frontend: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("frontend: bind 127.0.0.1");
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    throw_errno("frontend: listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    throw_errno("frontend: getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe2(wake_fds_, O_NONBLOCK) < 0) throw_errno("frontend: pipe2");

  obs::MetricsRegistry& reg = service_->metrics();
  const obs::Labels labels{{"server", std::to_string(port_)}};
  const auto c = [&](std::string_view name) {
    return reg.counter(name, labels);
  };
  m_ = Cells{
      .accepted = c("frontend.accepted"),
      .rejected_full = c("frontend.rejected_full"),
      .closed = c("frontend.closed"),
      .dropped_proto = c("frontend.dropped_proto"),
      .dropped_slow = c("frontend.dropped_slow"),
      .lookups = c("frontend.lookups"),
      .bytes_in = c("frontend.bytes_in"),
      .bytes_out = c("frontend.bytes_out"),
      .active = reg.gauge("frontend.active", labels),
      .batch_size =
          reg.histogram("frontend.batch_size", obs::size_buckets(), labels),
      .handle_ns = reg.histogram("frontend.handle_ns",
                                 obs::latency_buckets_ns(), labels),
      .reply_bytes =
          reg.histogram("frontend.reply_bytes", obs::byte_buckets(), labels),
  };

  started_ = true;
  stop_.store(false, std::memory_order_release);
  loop_ = std::thread([this] { loop_main(); });
}

void Server::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  const char byte = 1;
  // Best-effort wake; the loop also polls with a bounded timeout.
  (void)!::write(wake_fds_[1], &byte, 1);
  if (loop_.joinable()) loop_.join();
  for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  started_ = false;
}

ServerStats Server::stats() const {
  if (m_.accepted == nullptr) return {};
  ServerStats s;
  s.accepted = m_.accepted->value();
  s.rejected_full = m_.rejected_full->value();
  s.closed = m_.closed->value();
  s.dropped_proto = m_.dropped_proto->value();
  s.dropped_slow = m_.dropped_slow->value();
  s.frames = m_.handle_ns->count();
  s.batches = m_.batch_size->count();
  s.lookups = m_.lookups->value();
  s.bytes_in = m_.bytes_in->value();
  s.bytes_out = m_.bytes_out->value();
  s.active = static_cast<std::uint64_t>(m_.active->value());
  return s;
}

obs::Histogram Server::handle_ns_hist() const {
  return m_.handle_ns != nullptr ? *m_.handle_ns : obs::Histogram{};
}

void Server::loop_main() {
  // The loop thread's epoch slot: every connection's queries are
  // answered through this one reader (single-threaded loop).
  serve::RouteService::Reader reader{*service_};

  std::vector<pollfd> pfds;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      if (conn->out.size() > conn->out_off) events |= POLLOUT;
      pfds.push_back(pollfd{conn->fd, events, 0});
    }

    const int ready = ::poll(pfds.data(), pfds.size(), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; shut the front-end down
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (pfds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    // Snapshot the polled count BEFORE accepting: accept_ready appends
    // connections that have no pollfd entry this round, so the walk
    // below must not index past the array it was built from.
    const std::size_t polled = conns_.size();
    if (pfds[1].revents & POLLIN) accept_ready();

    // Walk backwards so close_conn's swap-remove can't skip an entry
    // (a closed slot inherits conns_.back(), which this round either
    // already processed or never polled).
    for (std::size_t i = polled; i-- > 0;) {
      Conn& conn = *conns_[i];
      const short revents = pfds[2 + i].revents;
      if (revents == 0) continue;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        m_.closed->inc();
        alive = false;
      }
      if (alive && (revents & POLLIN)) alive = read_ready(conn, reader);
      if (alive && (revents & POLLOUT)) alive = write_ready(conn);
      if (!alive) close_conn(i);
    }
  }

  for (std::size_t i = conns_.size(); i-- > 0;) close_conn(i);
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; retry on the next poll round
    }
    if (conns_.size() >= options_.max_connections) {
      m_.rejected_full->inc();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    m_.accepted->inc();
    m_.active->set(static_cast<double>(conns_.size()));
  }
}

bool Server::read_ready(Conn& conn, serve::RouteService::Reader& reader) {
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      m_.closed->inc();
      return false;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      m_.closed->inc();
      return false;
    }
    m_.bytes_in->inc(static_cast<std::uint64_t>(n));
    // A draining connection's input is discarded: framing is already
    // lost and only the pending ERROR flush matters.
    if (!conn.draining) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
    }
    if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
  }
  if (conn.draining) return true;
  if (!drain_frames(conn, reader)) return false;
  // Try to flush replies eagerly: for request/reply clients the socket
  // is almost always writable, so this saves one poll round trip per
  // pipelined burst.
  return write_ready(conn);
}

bool Server::drain_frames(Conn& conn, serve::RouteService::Reader& reader) {
  std::size_t off = 0;
  bool alive = true;
  while (alive && !conn.draining) {
    Frame frame;
    std::size_t consumed = 0;
    ProtoError err;
    const DecodeStatus status = decode_frame(
        std::span<const std::uint8_t>{conn.in.data() + off,
                                      conn.in.size() - off},
        frame, consumed, err);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      alive = protocol_error(conn, 0, err);
      break;
    }
    off += consumed;
    alive = handle_frame(conn, frame, reader);
  }
  if (off > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return alive;
}

bool Server::handle_frame(Conn& conn, const Frame& frame,
                          serve::RouteService::Reader& reader) {
  const std::uint16_t seq = frame.header.seq;
  const std::uint64_t t_begin = now_ns();
  switch (frame.header.type) {
    case FrameType::kHello: {
      if (!frame.payload.empty()) {
        return protocol_error(
            conn, seq,
            ProtoError{ProtoErrorCode::kBadPayload, 0,
                       "HELLO carries no payload"});
      }
      HelloAck ack;
      {
        const serve::RouteService::Reader::PinGuard snap{reader};
        if (snap) {
          ack.snapshot_version = snap->version;
          ack.fingerprint = snap->fingerprint;
          ack.routers = static_cast<std::uint32_t>(snap->router_ids.size());
          ack.prefixes = static_cast<std::uint32_t>(snap->index->size());
        }
      }
      append_hello_ack(conn.out, seq, ack);
      break;
    }
    case FrameType::kStats: {
      if (!frame.payload.empty()) {
        return protocol_error(
            conn, seq,
            ProtoError{ProtoErrorCode::kBadPayload, 0,
                       "STATS carries no payload"});
      }
      const serve::ServiceStats svc = service_->stats();
      StatsReply reply;
      reply.snapshot_version = svc.version;
      reply.fingerprint = svc.fingerprint;
      reply.publishes = svc.publishes;
      reply.lookups_served = m_.lookups->value();
      reply.batches_served = m_.batch_size->count();
      reply.connections_accepted = m_.accepted->value();
      reply.connections_dropped =
          m_.dropped_proto->value() + m_.dropped_slow->value();
      append_stats_reply(conn.out, seq, reply);
      break;
    }
    case FrameType::kLookupBatch: {
      if (const auto err = decode_lookup_batch(frame.payload, reqs_)) {
        return protocol_error(conn, seq, *err);
      }
      // Backpressure: size the reply before answering. A client that
      // pipelines faster than it drains gets disconnected here rather
      // than growing the outbox without bound.
      const std::size_t pending = conn.out.size() - conn.out_off;
      if (pending + lookup_reply_frame_size(reqs_.size()) >
          options_.max_outbox_bytes) {
        m_.dropped_slow->inc();
        return false;
      }
      resps_.resize(reqs_.size());
      const serve::BatchResult res = reader.lookup_batch(reqs_, resps_);
      const std::size_t out_before = conn.out.size();
      append_lookup_reply(conn.out, seq, res.snapshot_version,
                          res.fingerprint, resps_);
      m_.lookups->inc(reqs_.size());
      m_.batch_size->record(static_cast<double>(reqs_.size()));
      m_.reply_bytes->record(
          static_cast<double>(conn.out.size() - out_before));
      break;
    }
    case FrameType::kHelloAck:
    case FrameType::kStatsReply:
    case FrameType::kLookupReply:
    case FrameType::kError:
      return protocol_error(
          conn, seq,
          ProtoError{ProtoErrorCode::kUnexpectedType, 5,
                     "reply-only frame type sent to the server"});
  }
  m_.handle_ns->record(static_cast<double>(now_ns() - t_begin));
  return true;
}

bool Server::protocol_error(Conn& conn, std::uint16_t seq,
                            const ProtoError& err) {
  m_.dropped_proto->inc();
  append_error(conn.out, seq, err.code, err.detail);
  conn.draining = true;
  // Flush what we can right away; if the socket blocks, the poll loop
  // finishes the drain and closes.
  return write_ready(conn);
}

bool Server::write_ready(Conn& conn) {
  while (conn.out.size() > conn.out_off) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // peer vanished mid-write
    }
    conn.out_off += static_cast<std::size_t>(n);
    m_.bytes_out->inc(static_cast<std::uint64_t>(n));
  }
  conn.out.clear();
  conn.out_off = 0;
  return !conn.draining;  // drained a post-ERROR connection: close it
}

void Server::close_conn(std::size_t index) {
  ::close(conns_[index]->fd);
  if (index + 1 < conns_.size()) conns_[index] = std::move(conns_.back());
  conns_.pop_back();
  m_.active->set(static_cast<double>(conns_.size()));
}

}  // namespace abrr::frontend
