#pragma once
// The 4-input routing node of SparseNN's H-tree (paper Section V.B and
// Fig. 4c). A router runs one of two modes:
//
//   kArbitrate — upward activation traffic: among the input buffers'
//     head flits, the smallest activation index wins and is forwarded
//     to the parent; the rest wait (buffered flow control). This is the
//     source of out-of-order delivery across different subtrees.
//
//   kAccumulate — V-phase partial-sum reduction: the router waits until
//     every connected child's head flit carries the same row index,
//     adds the payloads in the ACC pipeline stage, and forwards one
//     combined flit.
//
// Flow control is credit-based: a child may only send when the parent
// buffer it targets has a free slot; credits return with a configurable
// latency. With buffer depth 1 and credit latency equal to the router
// pipeline depth this degrades to the unbuffered handshake used by the
// ablation study.
//
// These are plain records, not objects with behaviour: UpwardTree
// (noc/htree.hpp) keeps every router of the tree in one flat array,
// leaves first and the root last, and every input port in a second
// flat array beside it (port p of router r is port r·radix + p, so PE
// i's leaf port is port i). Each port is a fixed-capacity ring whose
// flit slots sit inline in the tree's slot array, sized once at
// construction; a ring of credit-return stamps of the same shape exists
// only when credits take more than one cycle. No record owns heap
// storage or a clock — the tree's single clock times every router, and
// the tree steps only the routers that hold flits.

#include <cstdint>

namespace sparsenn {

enum class RouterMode { kArbitrate, kAccumulate };

/// Statistics one router accumulates, aggregated by the tree.
struct RouterStats {
  std::uint64_t flits_forwarded = 0;
  std::uint64_t arbitration_conflicts = 0;  ///< >1 candidate in a cycle
  std::uint64_t credit_stalls = 0;  ///< cycles blocked on parent credit
  std::uint64_t acc_operations = 0;  ///< reduction adds performed
  /// Σ over cycles of the flits buffered at the end of the cycle,
  /// integrated up to Router::occupancy_since (the tree adds the
  /// stretch since then when it reports).
  std::uint64_t buffer_occupancy_sum = 0;
};

/// One input port: a ring of `buffer_depth` flit slots (storage in the
/// tree's slot array) plus the credits still travelling back to the
/// child that feeds it.
struct RouterPort {
  std::uint32_t head = 0;          ///< ring slot of the front flit
  std::uint32_t count = 0;         ///< flits buffered
  std::uint32_t credit_head = 0;   ///< ring slot of the oldest stamp
  std::uint32_t credit_count = 0;  ///< stamps held (expired ones too)
  bool closed = false;  ///< the child will send nothing more this phase
};

/// One H-tree routing node: where its output goes, how full it is, and
/// its statistics.
struct Router {
  std::uint32_t parent = 0;   ///< router fed by this one (root: itself)
  std::uint32_t up_port = 0;  ///< flat index of that parent input port
  std::uint32_t buffered = 0;    ///< flits in all input ports
  std::uint32_t open_ports = 0;  ///< input ports not yet closed
  /// Tree clock of the last change to `buffered`: the occupancy integral
  /// in stats covers every cycle before it.
  std::uint64_t occupancy_since = 0;
  /// Tree clock of the last cycle this router forwarded a flit.
  std::uint64_t fired_at = UINT64_MAX;
  /// kArbitrate decision state, kept current as flits arrive: the port
  /// with the smallest head index and how many ports hold a head. A pop
  /// sets `rescan` instead, and the next decision rescans the ports.
  std::uint32_t winner = 0;
  std::uint32_t candidates = 0;
  bool rescan = false;
  RouterStats stats;

  /// True when every input port has been closed (phase drained).
  bool all_closed() const noexcept { return open_ports == 0; }
};

}  // namespace sparsenn
