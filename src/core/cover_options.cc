#include "core/cover_options.h"

#include <algorithm>
#include <cctype>

namespace tdb {

const char* AlgorithmName(CoverAlgorithm algo) {
  switch (algo) {
    case CoverAlgorithm::kBur:
      return "BUR";
    case CoverAlgorithm::kBurPlus:
      return "BUR+";
    case CoverAlgorithm::kTdb:
      return "TDB";
    case CoverAlgorithm::kTdbPlus:
      return "TDB+";
    case CoverAlgorithm::kTdbPlusPlus:
      return "TDB++";
    case CoverAlgorithm::kDarcDv:
      return "DARC-DV";
  }
  return "?";
}

Status ParseAlgorithm(const std::string& name, CoverAlgorithm* algo) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "BUR") {
    *algo = CoverAlgorithm::kBur;
  } else if (upper == "BUR+") {
    *algo = CoverAlgorithm::kBurPlus;
  } else if (upper == "TDB") {
    *algo = CoverAlgorithm::kTdb;
  } else if (upper == "TDB+") {
    *algo = CoverAlgorithm::kTdbPlus;
  } else if (upper == "TDB++") {
    *algo = CoverAlgorithm::kTdbPlusPlus;
  } else if (upper == "DARC-DV" || upper == "DARCDV") {
    *algo = CoverAlgorithm::kDarcDv;
  } else {
    return Status::NotFound("unknown algorithm: " + name);
  }
  return Status::OK();
}

Status CoverOptions::Validate() const {
  const uint32_t min_len = include_two_cycles ? 2 : 3;
  if (!unconstrained && k < min_len) {
    return Status::InvalidArgument(
        "k=" + std::to_string(k) + " below the minimum cycle length " +
        std::to_string(min_len));
  }
  if (k >= 0xFFFFFFFEu) {
    return Status::InvalidArgument("k too large");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = auto)");
  }
  if (num_threads > 4096) {
    return Status::InvalidArgument("num_threads implausibly large");
  }
  return Status::OK();
}

CycleConstraint CoverOptions::Constraint(VertexId n) const {
  CycleConstraint c;
  c.min_len = include_two_cycles ? 2 : 3;
  if (unconstrained) {
    // A simple cycle has at most n hops; permanent blocking keeps the
    // validation O(m) as in the paper's §VI.C modification.
    c.max_hops = std::max<uint32_t>(n, c.min_len);
    c.permanent_block = true;
  } else {
    c.max_hops = k;
    c.permanent_block = false;
  }
  return c;
}

}  // namespace tdb
