#include "sim/compiled_network.hpp"

#include <algorithm>

#include "common/check.hpp"
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

  for (std::size_t l = 0; l < num_layers_; ++l) {
    const QuantizedLayer& layer = network.layer(l);
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

}  // namespace sparsenn
