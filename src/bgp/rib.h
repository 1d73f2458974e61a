// Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//
// Definitions follow §3.2 of the paper, which in turn follows RFC 4271:
// Adj-RIB-In holds what each neighbor reported; Adj-RIB-Out holds what is
// reported to neighbors (one logical copy per peer group).
//
// Storage: every RIB keeps its per-prefix state in a flat vector
// addressed by dense PrefixId — one array access per hot-path touch. The
// PrefixIndex is handed in at construction (a testbed shares one across
// all speakers; a standalone RIB gets a private one) and grows on first
// sight: announce/install/set register an unseen prefix, while reads and
// withdraws only look it up, so a stray withdraw never takes a slot.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/prefix_index.h"
#include "bgp/route.h"
#include "bgp/update.h"

namespace abrr::bgp {

/// Adj-RIB-In: routes reported by every neighbor, keyed by
/// (prefix, sending peer, add-paths path id).
class AdjRibIn {
 public:
  /// Result of applying an announcement.
  enum class Change { kUnchanged, kAdded, kReplaced };

  explicit AdjRibIn(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>())
      : index_(std::move(index)) {}

  /// Stores/overwrites the route keyed by (prefix, learned_from,
  /// path_id). Requires route.valid().
  Change announce(const Route& route);

  /// Removes one path. Returns true if it existed.
  bool withdraw(RouterId peer, const Ipv4Prefix& prefix, PathId path_id);

  /// Removes all paths for `prefix` from `peer`. Returns count removed.
  std::size_t withdraw_prefix(RouterId peer, const Ipv4Prefix& prefix);

  /// Session teardown: removes everything from `peer`; returns the
  /// affected prefixes (sorted) for re-running decisions.
  std::vector<Ipv4Prefix> withdraw_peer(RouterId peer);

  /// All routes currently known for `prefix`, across all peers.
  std::vector<Route> routes_for(const Ipv4Prefix& prefix) const;

  /// Copy-free variant: clears `out` and fills it with pointers to the
  /// stored routes (ordered by (peer, path id), same as routes_for).
  /// Pointers stay valid until the next mutation of this RIB.
  void routes_for(const Ipv4Prefix& prefix,
                  std::vector<const Route*>& out) const;

  /// Total entries (the paper's RIB-In size metric).
  std::size_t size() const { return size_; }

  /// Entries contributed by one peer.
  std::size_t peer_size(RouterId peer) const;

  /// Visits every stored route, in PrefixId order.
  void for_each(const std::function<void(const Route&)>& fn) const;

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

  /// Storage key of an entry: (sending peer, add-paths path id).
  using Key = std::pair<RouterId, PathId>;
  static Key key_of(const Route& route) {
    return Key{route.learned_from, route.path_id};
  }

 private:
  /// Sorted flat path list: node-free storage whose iteration order
  /// matches the std::map it replaced. The sort key (learned_from,
  /// path_id) is read from the routes themselves — storing it separately
  /// would pad every entry by a quarter of a cache line for data the
  /// Route already carries.
  using PathList = std::vector<Route>;

  std::shared_ptr<PrefixIndex> index_;
  std::vector<PathList> flat_;  // slot per PrefixId; empty = no routes
  std::unordered_map<RouterId, std::size_t> per_peer_;
  std::size_t size_ = 0;
};

/// Loc-RIB: the single chosen best route per prefix.
class LocRib {
 public:
  explicit LocRib(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>())
      : index_(std::move(index)) {}

  /// Installs `route` as best for its prefix; returns true if this
  /// changed the entry (new or different announcement).
  bool install(const Route& route);

  /// Removes the entry; returns true if one existed.
  bool remove(const Ipv4Prefix& prefix);

  /// Current best, or nullptr.
  const Route* best(const Ipv4Prefix& prefix) const;

  std::size_t size() const { return count_; }

  /// Visits every best route, in PrefixId order.
  void for_each(const std::function<void(const Route&)>& fn) const;

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

 private:
  std::shared_ptr<PrefixIndex> index_;
  std::vector<Route> flat_;  // slot per PrefixId; !valid() = empty
  std::size_t count_ = 0;
};

/// Adj-RIB-Out for one peer group: the set of routes advertised per
/// prefix (a single route for single-path speakers, the best AS-level
/// set for ARRs and multi-path TRRs).
class AdjRibOut {
 public:
  explicit AdjRibOut(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>())
      : index_(std::move(index)) {}

  /// Replaces the advertised set for `prefix`. Returns the update to
  /// send if something changed, std::nullopt otherwise. `full_set`
  /// selects ABRR replacement semantics for the generated message;
  /// otherwise an add-paths diff (announce changed, withdraw removed) is
  /// produced. An empty set is a withdraw and never grows the index.
  std::optional<UpdateMessage> set(const Ipv4Prefix& prefix,
                                   std::vector<Route> routes, bool full_set);

  /// Current advertised set (nullptr if none).
  const std::vector<Route>* get(const Ipv4Prefix& prefix) const;

  /// Total advertised route entries (the paper's RIB-Out size metric).
  std::size_t size() const { return size_; }

  /// Visits every non-empty advertised set, in PrefixId order.
  void for_each(
      const std::function<void(const Ipv4Prefix&, const std::vector<Route>&)>&
          fn) const;

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

 private:
  std::shared_ptr<PrefixIndex> index_;
  std::vector<std::vector<Route>> flat_;  // slot per PrefixId; empty = none
  std::size_t size_ = 0;
};

}  // namespace abrr::bgp
