// Dense prefix numbering: the one key for per-prefix RIB and speaker
// state.
//
// Every RIB and speaker stores per-prefix state in flat arrays addressed
// by PrefixId (a few bytes per prefix) instead of node-based maps. The
// index grows on first sight: write paths register an unseen prefix with
// add(), read and withdraw paths look it up with id_of() and never grow
// it. Ids are handed out in first-seen order and never reused, so a
// testbed that pre-fills the index with its workload gets the workload
// order.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bgp/prefix.h"

namespace abrr::bgp {

/// Bidirectional, append-only mapping Ipv4Prefix <-> dense id.
class PrefixIndex {
 public:
  /// Registers a prefix (idempotent); returns its id. try_emplace, not
  /// emplace: libstdc++'s emplace builds (and frees) a node even when the
  /// key exists, which would cost a malloc on every RIB write.
  std::uint32_t add(const Ipv4Prefix& prefix) {
    const auto [it, inserted] = ids_.try_emplace(
        prefix, static_cast<std::uint32_t>(prefixes_.size()));
    if (inserted) prefixes_.push_back(prefix);
    return it->second;
  }

  /// Id of a registered prefix, or nullopt.
  std::optional<std::uint32_t> id_of(const Ipv4Prefix& prefix) const {
    const auto it = ids_.find(prefix);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  /// By value: add() may reallocate the backing vector, so a reference
  /// handed to a callback that grows the index would dangle.
  Ipv4Prefix prefix_of(std::uint32_t id) const {
    if (id >= prefixes_.size()) throw std::out_of_range{"prefix id"};
    return prefixes_[id];
  }

  std::size_t size() const { return prefixes_.size(); }

  const std::vector<Ipv4Prefix>& prefixes() const { return prefixes_; }

 private:
  std::unordered_map<Ipv4Prefix, std::uint32_t> ids_;
  std::vector<Ipv4Prefix> prefixes_;
};

/// Write-path access to PrefixId-addressed state: registers an unseen
/// prefix and grows `flat` (value-initialized) to cover it.
template <typename T>
T& grow_slot(PrefixIndex& index, std::vector<T>& flat,
             const Ipv4Prefix& prefix) {
  const std::uint32_t id = index.add(prefix);
  if (id >= flat.size()) flat.resize(index.size());
  return flat[id];
}

/// Read/withdraw-path access: nullptr when the prefix is unregistered or
/// `flat` never grew to cover it. Grows nothing.
template <typename Vec>
auto find_slot(const PrefixIndex& index, Vec& flat, const Ipv4Prefix& prefix)
    -> decltype(flat.data()) {
  const auto id = index.id_of(prefix);
  return id && *id < flat.size() ? flat.data() + *id : nullptr;
}

}  // namespace abrr::bgp
