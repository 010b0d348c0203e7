#pragma once
// Flit and port types of the SparseNN on-chip network.
//
// Two traffic classes share the router design (Fig. 4c):
//   - activation flits (W-phase / V-result broadcast): {index, value};
//   - partial-sum flits (V-phase reduction): {row, 32-bit partial}.
// The payload is kept wide enough for the reduction accumulator so the
// root's single rescale reproduces the functional model bit-exactly.

#include <cstdint>

namespace sparsenn {

/// One network flit. `index` is the activation index (or reduction row)
/// and doubles as the arbitration key: the router grants the smallest
/// index first, which is what produces the paper's out-of-order-but-
/// bounded delivery.
struct Flit {
  std::uint32_t index = 0;
  std::int64_t payload = 0;   ///< activation value or partial sum
  std::uint16_t source = 0;   ///< injecting PE id (stats/debug)

  friend bool operator==(const Flit&, const Flit&) = default;
};

}  // namespace sparsenn
