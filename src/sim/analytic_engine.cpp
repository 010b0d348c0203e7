#include "sim/analytic_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/kernels.hpp"
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

  // --- Input census: the ascending nonzero index list (the LNZD scan
  // output — every MAC loop below walks it instead of scanning zero
  // slots) and its per-PE interleave (activation c lives on PE
  // c mod P — the row/column schedule of Section V.A), which gates
  // the slowest-PE terms below.
  // Worst case every activation is nonzero: after the first inference
  // the capacity covers the widest layer, so steady state never
  // reallocates (the bench reports the analytic allocs/inference).
  nz_idx_.resize(act.size());
  nz_idx_.resize(kernels().nonzero_scan_i16(act.data(), act.size(),
                                            nz_idx_.data()));
  pe_nnz_.assign(num_pes, 0);
  // num_pes is radix^levels — a power of two at any valid config with
  // radix 2/4/8 — so the interleave is a mask; keep the division for
  // exotic radices.
  if ((num_pes & (num_pes - 1)) == 0) {
    const std::size_t pe_mask = num_pes - 1;
    for (const std::uint32_t c : nz_idx_) ++pe_nnz_[c & pe_mask];
  } else {
    for (const std::uint32_t c : nz_idx_) ++pe_nnz_[c % num_pes];
  }
  const std::size_t nnz_in = nz_idx_.size();
  result.nnz_inputs = nnz_in;
  const std::size_t max_local_nnz =
      *std::max_element(pe_nnz_.begin(), pe_nnz_.end());

  const bool predict = compiled.use_predictor() && layer.has_predictor() &&
                       !layer.is_output;
  const std::size_t rank = predict ? layer.rank() : 0;

  // --- The layer itself: predict (s = V a, t = U s, bit = t > θ) then
  // the masked feedforward — QuantizedNetwork owns the one definition
  // of this fixed-point arithmetic, so the backends cannot drift.
  compiled.network().forward_layer_into(l, act, nz_idx_,
                                        compiled.use_predictor(),
                                        v_scratch_, mask_scratch_,
                                        result.activations);

  // Active rows and their per-PE interleave (row r lives on PE
  // r mod P) — gates the W-phase consume bound.
  pe_active_.assign(num_pes, 0);
  std::size_t active_rows = 0;
  for (std::size_t r = 0, pe = 0; r < m; ++r) {
    active_rows += mask_scratch_[r];
    pe_active_[pe] += mask_scratch_[r];
    if (++pe == num_pes) pe = 0;  // r mod num_pes without the divide
  }
  result.active_rows = active_rows;
  const std::size_t max_active =
      *std::max_element(pe_active_.begin(), pe_active_.end());

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

  // --- Event estimates: datapath counts follow exactly from the
  // functional work; register/queue counts use the broadcast fan-out.
  EventCounts& e = result.events;
  e = EventCounts{};
  e.w_mem_reads = u64(nnz_in) * u64(active_rows);
  e.v_mem_reads = u64(nnz_in) * rank;
  e.u_mem_reads = u64(m) * rank;
  e.macs = e.w_mem_reads + e.v_mem_reads + e.u_mem_reads;
  e.mem_writes = active_rows;
  e.act_reg_reads = nnz_in * (predict ? 2 : 1);  // V scan + W scan
  e.act_reg_writes = u64(active_rows) + u64(rank) * num_pes;
  e.queue_ops = 2 * u64(nnz_in) * num_pes;  // push+pop at every PE
  e.predictor_bits = u64(m) + u64(active_rows);
  e.lnzd_scans = u64(nnz_in) + u64(active_rows);
  e.router_flits = result.v_noc.flit_hops + result.w_noc.flit_hops;
  e.router_acc_ops = result.v_noc.acc_operations;
  e.cycles = result.total_cycles;
  e.pe_active_cycles = e.macs;

  if (trace_) record_layer_trace(*trace_, l, result);
}

}  // namespace sparsenn
