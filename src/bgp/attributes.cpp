#include "bgp/attributes.h"

#include <algorithm>

#include "bgp/attrs_intern.h"

namespace abrr::bgp {

bool PathAttrs::has_ext_community(ExtCommunity c) const {
  return std::find(ext_communities.begin(), ext_communities.end(), c) !=
         ext_communities.end();
}

AttrsPtr make_attrs(PathAttrs attrs) {
  // Unconditional recompute: callers routinely clone-and-mutate (see
  // with_attrs), which would otherwise carry a stale cached hash.
  attrs.content_hash = attrs_content_hash(attrs);
  return AttrsInterner::global().intern(std::move(attrs));
}

}  // namespace abrr::bgp
