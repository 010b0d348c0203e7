#include "sim/analytic_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "sim/result_arena.hpp"
#include "sim/trace.hpp"

namespace sparsenn {

AnalyticEngine::AnalyticEngine(const ArchParams& params) : params_(params) {
  params_.validate();
}

const SimResult& AnalyticEngine::run(const CompiledNetwork& compiled,
                                     std::span<const float> input,
                                     ResultArena& arena,
                                     ValidationMode /*validation*/) {
  // Chaos hook at the engine boundary (throw/delay only; result
  // corruption is injected by the serving layer, which owns the
  // client-visible result).
  (void)fault::point("engine.run");
  expects(compiled.num_pes() == params_.num_pes,
          "CompiledNetwork was built for a different PE count");
  expects(!compiled.stale(),
          "CompiledNetwork is stale: the source network mutated after "
          "compilation (e.g. set_prediction_threshold) — recompile, or "
          "fetch through a ModelZoo");
  const QuantizedNetwork& network = compiled.network();
  std::vector<std::int16_t>& input_scratch = arena.input_scratch();
  network.quantize_input_into(input, input_scratch);

  if (trace_) trace_->begin_inference();

  SimResult& out = arena.result();
  out.total_cycles = 0;
  out.layers.resize(compiled.num_layers());
  std::span<const std::int16_t> act{input_scratch};
  for (std::size_t l = 0; l < compiled.num_layers(); ++l) {
    LayerSimResult& layer = out.layers[l];
    run_layer_into(compiled, l, act, layer);
    out.total_cycles += layer.total_cycles;
    act = layer.activations;
  }
  out.output.assign(act.begin(), act.end());
  return out;
}

void AnalyticEngine::run_layer_into(const CompiledNetwork& compiled,
                                    std::size_t l,
                                    std::span<const std::int16_t> act,
                                    LayerSimResult& result) {
  const QuantizedLayer& layer = compiled.network().layer(l);
  const std::size_t num_pes = params_.num_pes;
  const std::size_t m = layer.w.rows;
  const auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };

  result.w_noc = NocStats{};
  result.v_noc = NocStats{};

  // --- The layer itself and its census (LayerPass): predict
  // (s = V a, t = U s, bit = t > θ) then the masked feedforward over
  // the ascending nonzero inputs — QuantizedNetwork owns the one
  // definition of this fixed-point arithmetic, so the backends cannot
  // drift — plus the per-PE interleave of the nonzero inputs and
  // active rows (index c lives on PE c mod P, Section V.A), which gates
  // the slowest-PE terms below.
  pass_.run(compiled, l, act, result.activations);
  const std::size_t nnz_in = pass_.nz_idx.size();
  result.nnz_inputs = nnz_in;
  result.active_rows = pass_.active_rows;
  const std::size_t max_local_nnz =
      *std::max_element(pass_.pe_nnz.begin(), pass_.pe_nnz.end());
  const std::size_t max_active =
      *std::max_element(pass_.pe_active.begin(), pass_.pe_active.end());

  const bool predict = compiled.use_predictor() && layer.has_predictor() &&
                       !layer.is_output;
  const std::size_t rank = predict ? layer.rank() : 0;

  // --- Schedule math (closed-form cycle estimates; see the header).
  const std::size_t max_rows_per_pe = (m + num_pes - 1) / num_pes;
  const std::uint64_t tree_latency =
      u64(params_.router_levels) * 2;  // up fill + down multicast
  if (predict) {
    result.v_cycles = u64(max_local_nnz) * rank + u64(rank) +
                      tree_latency + params_.pe_pipeline_stages;
    // Identical to the cycle engine's U phase, which is already
    // analytic: the slowest PE's rows × rank MACs plus the flush.
    result.u_cycles =
        u64(max_rows_per_pe) * rank + params_.pe_pipeline_stages;
  } else {
    result.v_cycles = 0;
    result.u_cycles = 0;
  }
  // W phase: the root serialises one delivered activation per cycle;
  // each PE multiplies every delivery with its predicted-active rows.
  const std::uint64_t w_work = u64(nnz_in) * u64(max_active);
  result.w_cycles = std::max(w_work, u64(nnz_in)) + tree_latency +
                    params_.pe_pipeline_stages;
  result.total_cycles =
      result.v_cycles + result.u_cycles + result.w_cycles;

  // --- NoC statistics: flit counts are exact (they follow from the
  // schedule), contention terms (conflicts/stalls/occupancy) are left
  // at zero — the analytic model assumes a congestion-free fabric.
  const std::uint64_t routers = u64(params_.total_routers());
  if (predict) {
    result.v_noc.root_flits = rank;
    result.v_noc.acc_operations = u64(rank) * (num_pes - 1);
    // Accumulate mode forwards each reduced row once per router on the
    // way up, and the result multicast traverses every router down.
    result.v_noc.flit_hops = 2 * u64(rank) * routers;
  }
  result.w_noc.root_flits = nnz_in;
  result.w_noc.flit_hops =
      u64(nnz_in) * u64(params_.router_levels)  // one router per level up
      + u64(nnz_in) * routers;                  // downward multicast

  // --- Events: the PE counters are the exact closed form the
  // event-stepped cycle engine uses too; only the router and cycle
  // counters come from the estimates above.
  EventCounts& e = result.events;
  e = pass_.pe_events(predict, rank);
  e.router_flits = result.v_noc.flit_hops + result.w_noc.flit_hops;
  e.router_acc_ops = result.v_noc.acc_operations;
  e.cycles = result.total_cycles;

  if (trace_) record_layer_trace(*trace_, l, result);
}

}  // namespace sparsenn
