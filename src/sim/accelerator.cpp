#include "sim/accelerator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "sim/result_arena.hpp"

namespace sparsenn {

AcceleratorSim::AcceleratorSim(const ArchParams& params)
    : params_(params),
      v_tree_(params_, RouterMode::kAccumulate),   // ctor validates params
      w_tree_(params_, RouterMode::kArbitrate),
      broadcast_(params_.router_levels),
      event_core_(params_) {
  params_.validate();
  pes_.reserve(params_.num_pes);
  for (std::size_t i = 0; i < params_.num_pes; ++i)
    pes_.emplace_back(i, params_);
}

SimResult AcceleratorSim::run(const QuantizedNetwork& network,
                              std::span<const float> input,
                              bool use_predictor) {
  // One-shot compile: the same slicing work the seed engine did per
  // layer, done up front.
  const CompiledNetwork compiled(network, params_, use_predictor);
  return run(compiled, input, ValidationMode::kFull);
}

const SimResult& AcceleratorSim::run(const CompiledNetwork& compiled,
                                     std::span<const float> input,
                                     ResultArena& arena,
                                     ValidationMode validation) {
  // Chaos hook at the engine boundary (throw/delay only; result
  // corruption is injected by the serving layer, which owns the
  // client-visible result).
  (void)fault::point("engine.run");
  expects(compiled.num_pes() == pes_.size(),
          "CompiledNetwork was built for a different PE count");
  expects(!compiled.stale(),
          "CompiledNetwork is stale: the source network mutated after "
          "compilation (e.g. set_prediction_threshold) — recompile, or "
          "fetch through a ModelZoo");
  std::vector<std::int16_t>& input_scratch = arena.input_scratch();
  compiled.network().quantize_input_into(input, input_scratch);

  // Reserving the compiled image's worst-case broadcast occupancy and
  // layer width up front keeps every send() and the event core's and
  // oracle's scratch allocation-free regardless of input density — a
  // no-op once the engine has seen this network.
  broadcast_.reserve(compiled.max_broadcast_flits());
  event_core_.reserve(compiled.max_layer_width());
  golden_.reserve(compiled.max_layer_width());

  // Only the oracle runs the PEs: scatter the input across their source
  // register files.
  const bool oracle = stepping_ == SteppingMode::kPerCycle;
  if (oracle) {
    for (auto& pe : pes_) pe.load_input(input_scratch);
  }

  if (trace_) trace_->begin_inference();

  const bool validate = validation == ValidationMode::kFull;
  SimResult& out = arena.result();
  out.total_cycles = 0;
  out.layers.resize(compiled.num_layers());
  std::span<const std::int16_t> act{input_scratch};
  for (std::size_t l = 0; l < compiled.num_layers(); ++l) {
    LayerSimResult& layer = out.layers[l];
    run_layer_into(compiled, l, act, validate, layer);
    out.total_cycles += layer.total_cycles;
    if (oracle) {
      for (auto& pe : pes_) pe.swap_regfiles();
    }
    act = layer.activations;
  }
  out.output.assign(act.begin(), act.end());
  return out;
}

void AcceleratorSim::run_layer_into(const CompiledNetwork& compiled,
                                    std::size_t l,
                                    std::span<const std::int16_t> act,
                                    bool validate, LayerSimResult& result) {
  const QuantizedLayer& layer = compiled.network().layer(l);
  // The result slot may be reused storage from a previous inference:
  // reset every counter; activations is assign()ed below, which reuses
  // its capacity.
  result.v_cycles = 0;
  result.u_cycles = 0;
  result.w_cycles = 0;
  result.total_cycles = 0;
  result.events = EventCounts{};
  result.w_noc = NocStats{};
  result.v_noc = NocStats{};
  result.active_rows = 0;

  // The layer's values and per-PE census from the one functional pass.
  // The event path takes them as its result; the per-cycle oracle
  // recomputes the values on its distributed datapath and, when
  // validating, must match them.
  const bool event = stepping_ == SteppingMode::kEvent;
  pass_.run(compiled, l, act, event ? result.activations : golden_);
  result.nnz_inputs = pass_.nz_idx.size();

  const bool predict = compiled.use_predictor() && layer.has_predictor() &&
                       !layer.is_output;
  if (event) {
    const std::size_t rank = predict ? layer.rank() : 0;
    if (predict) {
      result.v_cycles = event_core_.run_v_phase(v_tree_, broadcast_,
                                                pass_.pe_nnz, rank, result);
      // The slowest PE maps ⌈m/P⌉ rows, each rank MACs at one per cycle.
      result.u_cycles =
          (layer.w.rows + params_.num_pes - 1) / params_.num_pes * rank +
          params_.pe_pipeline_stages;
    }
    result.w_cycles =
        event_core_.run_w_phase(w_tree_, broadcast_, pass_.nz_idx, act,
                                pass_.pe_nnz, pass_.pe_active, result);
    result.active_rows = pass_.active_rows;

    // Every PE counter the oracle's datapath charges, in closed form
    // over n nonzero inputs, m rows, a active rows, p PEs and
    // S = Σ_i max(1, a_i) over the per-PE active rows a_i:
    //   V  — each PE MACs its nonzeros × rank, reading each nonzero's
    //        register once, and injects rank partials; every PE
    //        receives the rank results through its queue;
    //   U  — every row takes rank MACs and writes its predictor bit;
    //   W  — the LNZD reads every bit and scans every nonzero, whose
    //        register is read once more to inject it; every PE pushes
    //        and pops every delivered activation, MACs it with its
    //        active rows and is busy max(1, a_i) cycles doing so;
    //   write-back — one register write per row.
    const std::uint64_t n = pass_.nz_idx.size();
    const std::uint64_t m = layer.w.rows;
    const std::uint64_t a = pass_.active_rows;
    const std::uint64_t p = params_.num_pes;
    std::uint64_t busy = 0;
    for (const std::size_t a_i : pass_.pe_active)
      busy += std::max<std::size_t>(1, a_i);
    EventCounts& e = result.events;
    e.v_mem_reads = n * rank;
    e.u_mem_reads = m * rank;
    e.w_mem_reads = n * a;
    e.macs = e.v_mem_reads + e.u_mem_reads + e.w_mem_reads;
    e.act_reg_reads = (rank > 0 ? n : 0) + n;
    e.act_reg_writes = m;
    e.queue_ops = p * rank + 2 * n * p;
    e.predictor_bits = (predict ? m : 0) + m;
    e.lnzd_scans = (predict ? n : 0) + n;
    e.pe_active_cycles = (n + p + m) * rank + n * busy;
  } else {
    for (auto& pe : pes_) {
      pe.reset_events();
      pe.load_layer(compiled.slice(l, pe.id()));
    }
    if (predict) {
      result.v_cycles = simulate_v_phase(layer, result);
      std::uint64_t u_max = 0;
      for (auto& pe : pes_)
        u_max = std::max<std::uint64_t>(u_max, pe.run_u_phase());
      result.u_cycles = u_max + params_.pe_pipeline_stages;
    } else {
      for (auto& pe : pes_) pe.force_all_rows_active();
    }
    result.w_cycles = simulate_w_phase(result);

    // Write back the produced activations (and count computed rows).
    result.activations.assign(layer.w.rows, 0);
    for (auto& pe : pes_) {
      for (const auto& [global, value] : pe.write_back())
        result.activations[global] = value;
      for (const std::uint8_t bit : pe.predictor_bits())
        result.active_rows += bit;
      result.events += pe.events();
    }
    ensures(!validate || result.activations == golden_,
            "simulator diverged from the functional fixed-point model");
  }
  result.total_cycles = result.v_cycles + result.u_cycles + result.w_cycles;

  result.events.router_flits =
      result.v_noc.flit_hops + result.w_noc.flit_hops;
  result.events.router_acc_ops =
      result.v_noc.acc_operations + result.w_noc.acc_operations;
  result.events.cycles = result.total_cycles;

  if (trace_) record_layer_trace(*trace_, l, result);
}

std::uint64_t AcceleratorSim::simulate_v_phase(const QuantizedLayer& layer,
                                               LayerSimResult& result) {
  UpwardTree& tree = v_tree_;
  BroadcastChannel& broadcast = broadcast_;
  tree.reset();
  broadcast.reset();
  const std::size_t rank = layer.rank();
  const int from_frac = layer.in_fmt.frac_bits + layer.v->fmt.frac_bits;

  for (auto& pe : pes_) pe.start_v_phase();

  std::uint64_t cycles = 0;
  v_closed_.assign(pes_.size(), false);
  // Every broadcast result reaches every PE in the same cycle, so one
  // maintained counter replaces the per-cycle all-PEs scan: the phase
  // ends when `rank` results have been delivered.
  std::size_t results_delivered = 0;

  while (results_delivered < rank) {
    ensures(++cycles < kCycleLimit, "V-phase deadlock");

    for (std::size_t i = 0; i < pes_.size(); ++i) {
      ProcessingElement& pe = pes_[i];
      if (!pe.v_compute_done()) {
        pe.step_v_compute();
      } else if (pe.has_partial_ready() && tree.can_inject(i)) {
        tree.inject(i, pe.peek_partial());
        pe.pop_partial();
        if (pe.all_partials_sent() && !v_closed_[i]) {
          tree.close_injector(i);
          v_closed_[i] = true;
        }
      } else if (pe.all_partials_sent() && !v_closed_[i]) {
        tree.close_injector(i);
        v_closed_[i] = true;
      }
    }

    // The root rescales the 32-bit sum to the 16-bit mid format and
    // multicasts it; V results always find room (dedicated registers).
    if (const auto out = tree.step(true)) {
      Flit rescaled = *out;
      rescaled.payload = rescale_to_i16(out->payload, from_frac,
                                        layer.mid_fmt.frac_bits);
      broadcast.send(rescaled);
    }
    if (const auto delivered = broadcast.step()) {
      for (auto& pe : pes_)
        pe.receive_v_result(delivered->index,
                            static_cast<std::int16_t>(delivered->payload));
      ++results_delivered;
    }
  }

  result.v_noc = tree.stats();
  // Downward multicast traverses every router once per result flit.
  result.v_noc.flit_hops +=
      static_cast<std::uint64_t>(rank) * params_.total_routers();
  return cycles + params_.pe_pipeline_stages;
}

std::uint64_t AcceleratorSim::simulate_w_phase(LayerSimResult& result) {
  UpwardTree& tree = w_tree_;
  BroadcastChannel& broadcast = broadcast_;
  tree.reset();
  broadcast.reset();

  for (auto& pe : pes_) pe.start_w_phase();

  std::uint64_t cycles = 0;
  std::uint64_t delivered_count = 0;

  // The phase ends when the PEs have nothing pending and the NoC has
  // drained. The PE predicate is recomputed inside the existing per-PE
  // consume pass (not an extra all-PEs scan), and the tree/broadcast
  // checks read maintained counters, so the loop condition is O(1).
  bool pes_done = true;
  bool all_injected = true;
  std::size_t min_free = SIZE_MAX;
  for (const auto& pe : pes_) {
    pes_done = pes_done && pe.w_done();
    all_injected = all_injected && pe.injections_done();
    min_free = std::min(min_free, pe.queue_free_slots());
  }

  while (!(pes_done && tree.idle() && broadcast.idle())) {
    ensures(++cycles < kCycleLimit, "W-phase deadlock");

    // Injection pass. Queues are untouched by injections, so the
    // begin-of-cycle credit minimum (min_free, carried over from the
    // previous iteration's consume pass) equals the seed engine's
    // separate scan.
    if (!all_injected) {
      all_injected = true;
      for (std::size_t i = 0; i < pes_.size(); ++i) {
        ProcessingElement& pe = pes_[i];
        if (pe.has_injection() && tree.can_inject(i)) {
          tree.inject(i, pe.peek_injection());
          pe.pop_injection();
        }
        all_injected = all_injected && pe.injections_done();
      }
    }

    // Root issues only when every PE can absorb what is in flight plus
    // one more flit (queue-credit backpressure).
    const bool root_ready = min_free > broadcast.in_flight();

    if (const auto out = tree.step(root_ready)) broadcast.send(*out);

    const auto delivered = broadcast.step();
    if (delivered) {
      for (auto& pe : pes_) pe.enqueue_activation(*delivered);
      ++delivered_count;
    }

    // Consume pass, folded with the end-of-cycle queue-credit scan —
    // queue state is final here, so the minimum feeds the next
    // iteration's root_ready exactly like a begin-of-cycle scan would.
    pes_done = true;
    min_free = SIZE_MAX;
    for (auto& pe : pes_) {
      pe.step_w_consume();
      pes_done = pes_done && pe.w_done();
      min_free = std::min(min_free, pe.queue_free_slots());
    }
  }

  ensures(delivered_count == result.nnz_inputs,
          "broadcast delivered a different number of activations than "
          "were injected");

  result.w_noc = tree.stats();
  result.w_noc.flit_hops +=
      delivered_count * params_.total_routers();  // downward multicast
  return cycles + params_.pe_pipeline_stages;
}

}  // namespace sparsenn
