#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace abrr::net {

void Network::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_messages_ = nullptr;
    m_bytes_ = nullptr;
    m_dropped_ = nullptr;
    m_msg_bytes_ = nullptr;
    return;
  }
  m_messages_ = metrics->counter("net.messages");
  m_bytes_ = metrics->counter("net.bytes");
  m_dropped_ = metrics->counter("net.dropped");
  m_msg_bytes_ = metrics->histogram("net.msg_bytes", obs::size_buckets());
}

void Network::register_endpoint(RouterId id, Receiver receiver) {
  if (!receiver) throw std::invalid_argument{"register_endpoint: empty"};
  endpoints_[id] = std::move(receiver);
}

void Network::connect(RouterId a, RouterId b, sim::Time latency,
                      sim::Time jitter) {
  if (a == b) throw std::invalid_argument{"connect: self session"};
  if (latency < 0 || jitter < 0) {
    throw std::invalid_argument{"connect: negative latency"};
  }
  for (const auto k : {key(a, b), key(b, a)}) {
    ChannelState& ch = channels_[k];
    ch.base_latency = latency;
    ch.jitter = jitter;
  }
}

bool Network::connected(RouterId a, RouterId b) const {
  return channels_.count(key(a, b)) != 0;
}

void Network::dispatch(RouterId from, RouterId to, ChannelState& ch,
                       bgp::UpdateMessage msg) {
  sim::Time latency = ch.base_latency + ch.extra_delay;
  if (ch.jitter > 0) latency += rng_->uniform_int(0, ch.jitter);
  sim::Time at = scheduler_->now() + latency;
  if (at <= ch.last_delivery) at = ch.last_delivery + 1;  // FIFO
  ch.last_delivery = at;
  const std::uint64_t seq = ch.next_seq++;

  // The receiver (and the channel, for the in-order check) are looked up
  // at delivery time so endpoints can be replaced mid-run (e.g.
  // transition experiments) and the channel map may rehash.
  const std::uint64_t k = key(from, to);
  auto deliver = [this, k, from, to, seq, m = std::move(msg)]() {
    const auto cit = channels_.find(k);
    if (cit == channels_.end()) return;
    if (seq != cit->second.expect_seq) {
      throw std::logic_error{"channel " + std::to_string(from) + " -> " +
                             std::to_string(to) +
                             " delivered out of order (fault hooks broke "
                             "the FIFO invariant)"};
    }
    ++cit->second.expect_seq;
    const auto it = endpoints_.find(to);
    if (it != endpoints_.end()) it->second(from, m);
  };
  // The delivery closure is the dominant event on the scheduler hot path;
  // it must stay within the pooled nodes' inline capture budget or every
  // message delivery regains a heap allocation.
  static_assert(sim::Scheduler::Callback::fits_inline<decltype(deliver)>(),
                "delivery lambda exceeds Scheduler::kCallbackCapacity");
  scheduler_->schedule_at(at, std::move(deliver));
}

void Network::send(RouterId from, RouterId to, bgp::UpdateMessage msg) {
  const auto cit = channels_.find(key(from, to));
  if (cit == channels_.end()) {
    throw std::logic_error{"send: no session " + std::to_string(from) +
                           " -> " + std::to_string(to)};
  }
  const auto eit = endpoints_.find(to);
  if (eit == endpoints_.end()) {
    throw std::logic_error{"send: unregistered endpoint " +
                           std::to_string(to)};
  }

  ChannelState& ch = cit->second;
  if (down_endpoints_.count(to) != 0) {
    // The destination's TCP stack died with it; nothing retransmits.
    ++ch.dropped;
    ++total_dropped_;
    if (m_dropped_ != nullptr) m_dropped_->inc();
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceEventKind::kMsgDrop, from, to, 1);
    }
    return;
  }
  if (ch.loss_prob > 0 && rng_->chance(ch.loss_prob)) {
    // Lost before a sequence number is assigned: the delivered stream
    // stays gap-free.
    ++ch.dropped;
    ++total_dropped_;
    if (m_dropped_ != nullptr) m_dropped_->inc();
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceEventKind::kMsgDrop, from, to, 1);
    }
    return;
  }

  const std::uint64_t wire = sizer_.message_size(msg);
  ++ch.messages;
  ch.wire_bytes += wire;
  ++total_messages_;
  total_bytes_ += wire;
  if (m_messages_ != nullptr) {
    m_messages_->inc();
    m_bytes_->inc(wire);
    m_msg_bytes_->record(static_cast<double>(wire));
  }
  if (tracer_ != nullptr && tracer_->packets() != nullptr) {
    const auto bytes = encoder_.encode(msg);
    tracer_->packets()->record(from, to, bytes.data(), bytes.size());
  }

  if (!ch.up) {
    // TCP rides out a short link outage: the message waits in the send
    // window and is retransmitted after the restore.
    ch.buffered.push_back(std::move(msg));
    return;
  }
  dispatch(from, to, ch, std::move(msg));
}

void Network::set_link(RouterId a, RouterId b, bool up) {
  for (const auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto it = channels_.find(key(from, to));
    if (it == channels_.end()) {
      throw std::logic_error{"set_link: no session " + std::to_string(a) +
                             " <-> " + std::to_string(b)};
    }
    ChannelState& ch = it->second;
    if (ch.up == up) continue;
    ch.up = up;
    if (!up) continue;
    std::vector<bgp::UpdateMessage> flush;
    flush.swap(ch.buffered);
    for (bgp::UpdateMessage& msg : flush) {
      dispatch(from, to, ch, std::move(msg));
    }
  }
}

bool Network::link_up(RouterId a, RouterId b) const {
  const auto it = channels_.find(key(a, b));
  return it != channels_.end() && it->second.up;
}

void Network::set_endpoint_up(RouterId id, bool up) {
  if (up) {
    down_endpoints_.erase(id);
  } else {
    down_endpoints_.insert(id);
  }
}

bool Network::endpoint_up(RouterId id) const {
  return down_endpoints_.count(id) == 0;
}

void Network::impair(RouterId a, RouterId b, sim::Time extra_delay,
                     double loss_prob) {
  if (extra_delay < 0 || loss_prob < 0 || loss_prob > 1) {
    throw std::invalid_argument{"impair: bad parameters"};
  }
  for (const auto k : {key(a, b), key(b, a)}) {
    const auto it = channels_.find(k);
    if (it == channels_.end()) {
      throw std::logic_error{"impair: no session " + std::to_string(a) +
                             " <-> " + std::to_string(b)};
    }
    it->second.extra_delay = extra_delay;
    it->second.loss_prob = loss_prob;
  }
}

void Network::session_reset(RouterId a, RouterId b) {
  for (const auto k : {key(a, b), key(b, a)}) {
    const auto it = channels_.find(k);
    if (it == channels_.end()) continue;
    ChannelState& ch = it->second;
    if (ch.buffered.empty()) continue;
    ch.dropped += ch.buffered.size();
    total_dropped_ += ch.buffered.size();
    if (m_dropped_ != nullptr) m_dropped_->inc(ch.buffered.size());
    if (tracer_ != nullptr) {
      const RouterId from = static_cast<RouterId>(k >> 32);
      const RouterId to = static_cast<RouterId>(k & 0xffffffffULL);
      tracer_->record(obs::TraceEventKind::kMsgDrop, from, to,
                      ch.buffered.size());
    }
    ch.buffered.clear();
  }
}

std::vector<std::pair<RouterId, RouterId>> Network::sessions() const {
  std::vector<std::pair<RouterId, RouterId>> out;
  out.reserve(channels_.size() / 2);
  for (const auto& [k, ch] : channels_) {
    const RouterId from = static_cast<RouterId>(k >> 32);
    const RouterId to = static_cast<RouterId>(k & 0xffffffffULL);
    if (from < to) out.emplace_back(from, to);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const ChannelState* Network::channel(RouterId from, RouterId to) const {
  const auto it = channels_.find(key(from, to));
  return it == channels_.end() ? nullptr : &it->second;
}

}  // namespace abrr::net
