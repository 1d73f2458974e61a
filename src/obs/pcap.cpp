#include "obs/pcap.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace abrr::obs {
namespace {

constexpr std::size_t kEthLen = 14;
constexpr std::size_t kIpLen = 20;
constexpr std::size_t kTcpLen = 20;

void put16be(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16be(out, static_cast<std::uint16_t>(v >> 16));
  put16be(out, static_cast<std::uint16_t>(v));
}

// pcap's own file header/record fields are little-endian (the classic
// 0xa1b2c3d4 magic advertises host order; we fix little-endian so the
// artifact is machine-portable, like the ABMRT container).
void put16le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16le(out, static_cast<std::uint16_t>(v));
  put16le(out, static_cast<std::uint16_t>(v >> 16));
}

/// RFC 1071 internet checksum over `data` plus an optional pseudo-header
/// sum carried in `acc`.
std::uint16_t checksum(const std::uint8_t* data, std::size_t size,
                       std::uint32_t acc) {
  for (std::size_t i = 0; i + 1 < size; i += 2) {
    acc += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (size % 2 != 0) acc += static_cast<std::uint32_t>(data[size - 1]) << 8;
  while (acc >> 16) acc = (acc & 0xFFFF) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

/// Locally-administered MAC derived from a router id.
void put_mac(std::vector<std::uint8_t>& out, std::uint32_t id) {
  out.push_back(0x02);
  out.push_back(0x00);
  out.push_back(static_cast<std::uint8_t>(id >> 24));
  out.push_back(static_cast<std::uint8_t>(id >> 16));
  out.push_back(static_cast<std::uint8_t>(id >> 8));
  out.push_back(static_cast<std::uint8_t>(id));
}

}  // namespace

PacketCapture::PacketCapture(const sim::Scheduler& clock,
                             std::size_t capacity)
    : clock_(&clock), capacity_(capacity == 0 ? 1 : capacity) {
  // Frames are heavier than trace events; grow towards large capacities
  // instead of reserving them up front.
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void PacketCapture::record(std::uint32_t src, std::uint32_t dst,
                           const std::uint8_t* data, std::size_t size) {
  const std::uint64_t flow = static_cast<std::uint64_t>(src) << 32 | dst;
  std::uint32_t& seq = next_seq_[flow];
  Frame f;
  f.at = clock_->now();
  f.src = src;
  f.dst = dst;
  f.seq = seq;
  f.payload.assign(data, data + size);
  seq += static_cast<std::uint32_t>(size);
  ++recorded_;
  payload_bytes_ += size;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(f));
    return;
  }
  payload_bytes_ -= ring_[head_].payload.size();
  ring_[head_] = std::move(f);
  head_ = (head_ + 1) % capacity_;
}

void PacketCapture::for_each(
    const std::function<void(sim::Time, std::uint32_t, std::uint32_t,
                             std::span<const std::uint8_t>)>& fn) const {
  const auto visit = [&fn](const Frame& f) {
    fn(f.at, f.src, f.dst, std::span<const std::uint8_t>{f.payload});
  };
  if (ring_.size() < capacity_) {
    for (const Frame& f : ring_) visit(f);
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      visit(ring_[(head_ + i) % ring_.size()]);
    }
  }
}

std::vector<std::uint8_t> PacketCapture::to_pcap() const {
  std::vector<std::uint8_t> out;
  out.reserve(24 + payload_bytes_ + ring_.size() * (16 + kEthLen + kIpLen +
                                                    kTcpLen));
  // Global header: magic (usec resolution), v2.4, zone 0, sigfigs 0,
  // snaplen, LINKTYPE_ETHERNET (1).
  put32le(out, 0xa1b2c3d4u);
  put16le(out, 2);
  put16le(out, 4);
  put32le(out, 0);
  put32le(out, 0);
  put32le(out, 65535);
  put32le(out, 1);

  const auto emit = [&out](const Frame& f) {
    const std::size_t wire_len =
        kEthLen + kIpLen + kTcpLen + f.payload.size();
    put32le(out, static_cast<std::uint32_t>(f.at / sim::kSecond));
    put32le(out, static_cast<std::uint32_t>(f.at % sim::kSecond));
    put32le(out, static_cast<std::uint32_t>(wire_len));
    put32le(out, static_cast<std::uint32_t>(wire_len));

    // Ethernet.
    put_mac(out, f.dst);
    put_mac(out, f.src);
    put16be(out, 0x0800);

    // IPv4. Router ids double as loopback addresses.
    const std::size_t ip_at = out.size();
    out.push_back(0x45);  // v4, 20-byte header
    out.push_back(0);     // DSCP
    put16be(out, static_cast<std::uint16_t>(kIpLen + kTcpLen +
                                            f.payload.size()));
    put16be(out, 0);       // identification
    put16be(out, 0x4000);  // don't fragment
    out.push_back(64);     // TTL
    out.push_back(6);      // TCP
    put16be(out, 0);       // checksum, patched below
    put32be(out, f.src);
    put32be(out, f.dst);
    const std::uint16_t ip_sum = checksum(&out[ip_at], kIpLen, 0);
    out[ip_at + 10] = static_cast<std::uint8_t>(ip_sum >> 8);
    out[ip_at + 11] = static_cast<std::uint8_t>(ip_sum);

    // TCP, port 179 both ways so dissectors pick the BGP decoder.
    const std::size_t tcp_at = out.size();
    put16be(out, 179);
    put16be(out, 179);
    put32be(out, f.seq);
    put32be(out, 1);      // ack (synthetic; no reverse stream is simulated)
    out.push_back(0x50);  // data offset 5 words
    out.push_back(0x18);  // PSH|ACK
    put16be(out, 65535);  // window
    put16be(out, 0);      // checksum, patched below
    put16be(out, 0);      // urgent
    out.insert(out.end(), f.payload.begin(), f.payload.end());
    // Pseudo-header: src, dst, zero/proto, TCP length.
    const std::size_t tcp_total = kTcpLen + f.payload.size();
    std::uint32_t pseudo = 0;
    pseudo += (f.src >> 16) + (f.src & 0xFFFF);
    pseudo += (f.dst >> 16) + (f.dst & 0xFFFF);
    pseudo += 6;
    pseudo += static_cast<std::uint32_t>(tcp_total);
    const std::uint16_t tcp_sum = checksum(&out[tcp_at], tcp_total, pseudo);
    out[tcp_at + 16] = static_cast<std::uint8_t>(tcp_sum >> 8);
    out[tcp_at + 17] = static_cast<std::uint8_t>(tcp_sum);
  };

  // Oldest first: ring_[head_..] then ring_[0..head_) once wrapped.
  if (ring_.size() < capacity_) {
    for (const Frame& f : ring_) emit(f);
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      emit(ring_[(head_ + i) % ring_.size()]);
    }
  }
  return out;
}

void PacketCapture::write_pcap(const std::string& path) const {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) throw std::runtime_error{"cannot open for write: " + path};
  const std::vector<std::uint8_t> bytes = to_pcap();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error{"write failed: " + path};
}

void PacketCapture::clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  payload_bytes_ = 0;
  next_seq_.clear();
}

}  // namespace abrr::obs
