#include "bgp/rib.h"

#include <algorithm>
#include <stdexcept>

namespace abrr::bgp {
namespace {

struct KeyLess {
  bool operator()(const Route& entry,
                  const std::pair<RouterId, PathId>& key) const {
    return AdjRibIn::key_of(entry) < key;
  }
};

}  // namespace

// --- AdjRibIn ---------------------------------------------------------

AdjRibIn::Change AdjRibIn::announce(const Route& route) {
  if (!route.valid()) throw std::invalid_argument{"announce: invalid route"};
  PathList& paths = grow_slot(*index_, flat_, route.prefix);
  const Key key{route.learned_from, route.path_id};
  const auto it =
      std::lower_bound(paths.begin(), paths.end(), key, KeyLess{});
  if (it == paths.end() || key_of(*it) != key) {
    paths.insert(it, route);
    ++size_;
    ++per_peer_[route.learned_from];
    return Change::kAdded;
  }
  if (it->same_announcement(route) && it->via == route.via) {
    return Change::kUnchanged;
  }
  *it = route;
  return Change::kReplaced;
}

bool AdjRibIn::withdraw(RouterId peer, const Ipv4Prefix& prefix,
                        PathId path_id) {
  PathList* paths = find_slot(*index_, flat_, prefix);
  if (paths == nullptr) return false;
  const Key key{peer, path_id};
  const auto it =
      std::lower_bound(paths->begin(), paths->end(), key, KeyLess{});
  if (it == paths->end() || key_of(*it) != key) return false;
  paths->erase(it);
  --size_;
  --per_peer_[peer];
  return true;
}

std::size_t AdjRibIn::withdraw_prefix(RouterId peer, const Ipv4Prefix& prefix) {
  PathList* paths = find_slot(*index_, flat_, prefix);
  if (paths == nullptr) return 0;
  const std::size_t removed = std::erase_if(
      *paths, [&](const Route& entry) { return entry.learned_from == peer; });
  size_ -= removed;
  per_peer_[peer] -= removed;
  return removed;
}

std::vector<Ipv4Prefix> AdjRibIn::withdraw_peer(RouterId peer) {
  std::vector<Ipv4Prefix> affected;
  for (std::size_t id = 0; id < flat_.size(); ++id) {
    const std::size_t removed = std::erase_if(
        flat_[id],
        [&](const Route& entry) { return entry.learned_from == peer; });
    if (removed != 0) {
      affected.push_back(index_->prefix_of(static_cast<std::uint32_t>(id)));
      size_ -= removed;
    }
  }
  per_peer_.erase(peer);
  // Sorted so downstream re-decisions run in an id-order-independent
  // (and deterministic) order.
  std::sort(affected.begin(), affected.end());
  return affected;
}

std::vector<Route> AdjRibIn::routes_for(const Ipv4Prefix& prefix) const {
  const PathList* paths = find_slot(*index_, flat_, prefix);
  if (paths == nullptr) return {};
  return *paths;
}

void AdjRibIn::routes_for(const Ipv4Prefix& prefix,
                          std::vector<const Route*>& out) const {
  out.clear();
  const PathList* paths = find_slot(*index_, flat_, prefix);
  if (paths == nullptr) return;
  out.reserve(paths->size());
  for (const Route& route : *paths) out.push_back(&route);
}

std::size_t AdjRibIn::peer_size(RouterId peer) const {
  const auto it = per_peer_.find(peer);
  return it == per_peer_.end() ? 0 : it->second;
}

void AdjRibIn::for_each(const std::function<void(const Route&)>& fn) const {
  for (const PathList& paths : flat_) {
    for (const Route& route : paths) fn(route);
  }
}

void AdjRibIn::clear() {
  for (PathList& paths : flat_) paths.clear();
  per_peer_.clear();
  size_ = 0;
}

// --- LocRib -----------------------------------------------------------

bool LocRib::install(const Route& route) {
  if (!route.valid()) throw std::invalid_argument{"install: invalid route"};
  Route& slot = grow_slot(*index_, flat_, route.prefix);
  if (!slot.valid()) {
    slot = route;
    ++count_;
    return true;
  }
  if (slot.same_announcement(route) &&
      slot.learned_from == route.learned_from && slot.via == route.via) {
    return false;
  }
  slot = route;
  return true;
}

bool LocRib::remove(const Ipv4Prefix& prefix) {
  Route* slot = find_slot(*index_, flat_, prefix);
  if (slot == nullptr || !slot->valid()) return false;
  *slot = Route{};
  --count_;
  return true;
}

const Route* LocRib::best(const Ipv4Prefix& prefix) const {
  const Route* slot = find_slot(*index_, flat_, prefix);
  return slot != nullptr && slot->valid() ? slot : nullptr;
}

void LocRib::for_each(const std::function<void(const Route&)>& fn) const {
  for (const Route& route : flat_) {
    if (route.valid()) fn(route);
  }
}

void LocRib::clear() {
  for (Route& route : flat_) route = Route{};
  count_ = 0;
}

// --- AdjRibOut --------------------------------------------------------

namespace {

bool same_route_set(const std::vector<Route>& a, const std::vector<Route>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_announcement(b[i])) return false;
  }
  return true;
}

}  // namespace

std::optional<UpdateMessage> AdjRibOut::set(const Ipv4Prefix& prefix,
                                            std::vector<Route> routes,
                                            bool full_set) {
  // Canonical order: by path id, so set comparison is stable.
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    return a.path_id < b.path_id;
  });

  std::vector<Route>* slot = routes.empty()
                                 ? find_slot(*index_, flat_, prefix)
                                 : &grow_slot(*index_, flat_, prefix);
  const std::vector<Route>* old =
      slot != nullptr && !slot->empty() ? slot : nullptr;
  if (old == nullptr && routes.empty()) return std::nullopt;
  if (old != nullptr && same_route_set(*old, routes)) return std::nullopt;

  UpdateMessage msg;
  msg.prefix = prefix;
  msg.full_set = full_set;
  if (full_set) {
    msg.announce = routes;
  } else {
    // add-paths diff: announce new/changed paths, withdraw removed ones.
    for (const Route& r : routes) {
      const bool unchanged =
          old != nullptr &&
          std::any_of(old->begin(), old->end(), [&](const Route& o) {
            return o.same_announcement(r);
          });
      if (!unchanged) msg.announce.push_back(r);
    }
    if (old != nullptr) {
      for (const Route& o : *old) {
        const bool still =
            std::any_of(routes.begin(), routes.end(), [&](const Route& r) {
              return r.path_id == o.path_id;
            });
        if (!still) msg.withdraw.push_back(o.path_id);
      }
    }
  }

  // Commit.
  if (old != nullptr) size_ -= old->size();
  size_ += routes.size();
  *slot = std::move(routes);
  return msg;
}

const std::vector<Route>* AdjRibOut::get(const Ipv4Prefix& prefix) const {
  const std::vector<Route>* slot = find_slot(*index_, flat_, prefix);
  return slot != nullptr && !slot->empty() ? slot : nullptr;
}

void AdjRibOut::clear() {
  for (std::vector<Route>& routes : flat_) routes.clear();
  size_ = 0;
}

void AdjRibOut::for_each(
    const std::function<void(const Ipv4Prefix&, const std::vector<Route>&)>&
        fn) const {
  for (std::size_t id = 0; id < flat_.size(); ++id) {
    if (!flat_[id].empty()) {
      fn(index_->prefix_of(static_cast<std::uint32_t>(id)), flat_[id]);
    }
  }
}

}  // namespace abrr::bgp
