#include "sim/compiled_network.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/kernels.hpp"
#include "pe/memory.hpp"
#include "sim/schedule.hpp"

namespace sparsenn {

CompiledNetwork::CompiledNetwork(const QuantizedNetwork& network,
                                 const ArchParams& params,
                                 bool use_predictor)
    : network_(&network),
      params_(params),
      use_predictor_(use_predictor),
      num_layers_(network.num_layers()),
      source_uid_(network.uid()),
      source_epoch_(network.epoch()) {
  params_.validate();

  // First pass: build the pools while recording each slice's extents.
  // The pools may reallocate during this pass, so the spans are wired
  // up afterwards, once every address is final.
  struct Extents {
    std::size_t rows_off, rows_len;
    std::size_t w_off, w_len;
    std::size_t u_off, u_len;
    std::size_t v_off, v_len;
  };
  std::vector<Extents> extents;
  extents.reserve(num_layers_ * params_.num_pes);
  slices_.reserve(num_layers_ * params_.num_pes);

  // Every pool at its final size up front: the PEs' slices of a layer
  // cover its rows (and V's columns) exactly once. Growing the pools
  // slice by slice would reallocate and copy the multi-megabyte W pool
  // once per slice, and the freed copies would set the compile's peak
  // memory.
  std::size_t rows = 0, w = 0, u = 0, v = 0;
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const QuantizedLayer& layer = network.layer(l);
    rows += layer.w.rows;
    w += layer.w.rows * layer.w.cols;
    if (use_predictor && layer.has_predictor() && !layer.is_output) {
      u += layer.w.rows * layer.u->cols;
      v += layer.v->rows * layer.v->cols;
    }
  }
  rows_pool_.reserve(rows);
  w_pool_.reserve(w);
  u_pool_.reserve(u);
  v_pool_.reserve(v);

  // ProcessingElement::load_layer's capacity checks, made once here as
  // well: the event path never loads a PE, and a network that does not
  // fit the chip must be rejected in either stepping mode.
  const std::size_t w_words = SramBank::words_in_kb(params_.w_mem_kb_per_pe);
  const std::size_t u_words = SramBank::words_in_kb(params_.u_mem_kb_per_pe);
  const std::size_t v_words = SramBank::words_in_kb(params_.v_mem_kb_per_pe);
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const QuantizedLayer& layer = network.layer(l);
    expects(layer.w.cols <= params_.max_activations(),
            "layer input exceeds activation register capacity");
    expects(layer.w.rows <= params_.max_activations(),
            "layer output exceeds activation register capacity");
    // Worst-case broadcast occupancy of this layer's phases: the V
    // phase multicasts `rank` results, the W phase one flit per
    // nonzero input (≤ the layer's input width).
    max_broadcast_flits_ =
        std::max({max_broadcast_flits_, layer.w.cols, layer.rank()});
    max_layer_width_ = std::max({max_layer_width_, max_broadcast_flits_,
                                 layer.w.rows});
    for (std::size_t pe = 0; pe < params_.num_pes; ++pe) {
      Extents e{rows_pool_.size(), 0, w_pool_.size(), 0,
                u_pool_.size(),    0, v_pool_.size(), 0};
      slices_.push_back(detail::append_pe_slice(layer, params_, pe,
                                                use_predictor, rows_pool_,
                                                w_pool_, u_pool_, v_pool_));
      e.rows_len = rows_pool_.size() - e.rows_off;
      e.w_len = w_pool_.size() - e.w_off;
      e.u_len = u_pool_.size() - e.u_off;
      e.v_len = v_pool_.size() - e.v_off;
      expects(e.w_len <= w_words && e.u_len <= u_words && e.v_len <= v_words,
              "layer slice exceeds SRAM capacity");
      extents.push_back(e);
    }
  }

  for (std::size_t i = 0; i < slices_.size(); ++i) {
    const Extents& e = extents[i];
    PeLayerSlice& s = slices_[i];
    s.global_rows = {rows_pool_.data() + e.rows_off, e.rows_len};
    s.w_words = {w_pool_.data() + e.w_off, e.w_len};
    s.u_words = {u_pool_.data() + e.u_off, e.u_len};
    s.v_words = {v_pool_.data() + e.v_off, e.v_len};
  }
}

void LayerPass::run(const CompiledNetwork& compiled, std::size_t l,
                    std::span<const std::int16_t> act,
                    std::vector<std::int16_t>& activations) {
  const std::size_t width = compiled.max_layer_width();
  const std::size_t num_pes = compiled.num_pes();
  nz_idx.reserve(width);
  v.reserve(width);
  mask.reserve(width);

  nz_idx.resize(act.size());
  nz_idx.resize(
      kernels().nonzero_scan_i16(act.data(), act.size(), nz_idx.data()));
  compiled.network().forward_layer_into(l, act, nz_idx,
                                        compiled.use_predictor(), v, mask,
                                        activations);

  // num_pes is radix^levels — a power of two at any valid config with
  // radix 2/4/8 — so the input interleave is a mask; keep the division
  // for exotic radices.
  pe_nnz.assign(num_pes, 0);
  if ((num_pes & (num_pes - 1)) == 0) {
    const std::size_t pe_mask = num_pes - 1;
    for (const std::uint32_t c : nz_idx) ++pe_nnz[c & pe_mask];
  } else {
    for (const std::uint32_t c : nz_idx) ++pe_nnz[c % num_pes];
  }
  pe_active.assign(num_pes, 0);
  active_rows = 0;
  for (std::size_t r = 0, pe = 0; r < mask.size(); ++r) {
    active_rows += mask[r];
    pe_active[pe] += mask[r];
    if (++pe == num_pes) pe = 0;  // r mod num_pes without the divide
  }
}

EventCounts LayerPass::pe_events(bool predict, std::size_t rank) const {
  // Over n nonzero inputs, m rows, a active rows, p PEs and
  // S = Σ_i max(1, a_i) over the per-PE active rows a_i:
  //   V  — each PE MACs its nonzeros × rank, reading each nonzero's
  //        register once, and injects rank partials; every PE receives
  //        the rank results through its queue;
  //   U  — every row takes rank MACs and writes its predictor bit;
  //   W  — the LNZD reads every bit and scans every nonzero, whose
  //        register is read once more to inject it; every PE pushes
  //        and pops every delivered activation, MACs it with its
  //        active rows and is busy max(1, a_i) cycles doing so;
  //   write-back — one register write per row.
  const std::uint64_t n = nz_idx.size();
  const std::uint64_t m = mask.size();
  const std::uint64_t a = active_rows;
  const std::uint64_t p = pe_active.size();
  const std::uint64_t k = rank;
  std::uint64_t busy = 0;
  for (const std::size_t a_i : pe_active)
    busy += std::max<std::size_t>(1, a_i);
  EventCounts e;
  e.v_mem_reads = n * k;
  e.u_mem_reads = m * k;
  e.w_mem_reads = n * a;
  e.macs = e.v_mem_reads + e.u_mem_reads + e.w_mem_reads;
  e.act_reg_reads = (k > 0 ? n : 0) + n;
  e.act_reg_writes = m;
  e.queue_ops = p * k + 2 * n * p;
  e.predictor_bits = (predict ? m : 0) + m;
  e.lnzd_scans = (predict ? n : 0) + n;
  e.pe_active_cycles = (n + p + m) * k + n * busy;
  return e;
}

}  // namespace sparsenn
