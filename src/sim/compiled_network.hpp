#pragma once
// A quantised network compiled for the PE array.
//
// The simulator's work splits into input-dependent state (activations,
// partial sums, NoC traffic) and network-only state (the per-PE
// interleaved W/U/V slices, row maps and format metadata). The seed
// engine rebuilt the latter for every layer of every inference —
// copying every weight word into per-PE vectors and again into the PE
// SRAM banks — which dominated batch wall-clock. CompiledNetwork does
// that slicing exactly once per (network, arch, use_predictor) and
// packs all slices into contiguous pools; PeLayerSlice views
// (pe/pe.hpp) point into the pools, so loading a layer into a PE binds
// spans instead of copying words.
//
// The compiled image is immutable and read-only shared: every layer,
// every inference and every BatchRunner worker thread reads the same
// storage concurrently without synchronisation. It snapshots the
// network at compile time and records the network's mutation epoch
// (QuantizedNetwork::epoch); mutating the source afterwards (e.g.
// set_prediction_threshold) makes the image stale(), and every run
// entry point rejects a stale image with a precondition failure
// instead of silently simulating outdated weights. The referenced
// QuantizedNetwork and the chosen ArchParams must outlive the
// CompiledNetwork.
//
// core/model_zoo.hpp closes the remaining recompile-per-call hole:
// single-shot sweeps (System::simulate, the CLI simulate command, the
// fig/ablation benches) fetch images from a ModelZoo — a thread-safe
// LRU keyed on (arch, uid, epoch, uv mode) — instead of compiling per
// call.

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "pe/pe.hpp"

namespace sparsenn {

class CompiledNetwork {
 public:
  /// Slices every layer for every PE. `use_predictor` is baked in
  /// because it decides whether U/V words are packed at all (the
  /// paper's uv_on vs uv_off deployments are different images).
  CompiledNetwork(const QuantizedNetwork& network, const ArchParams& params,
                  bool use_predictor);

  // Movable (vector moves keep heap buffers, so the slice views stay
  // valid); copying would re-point nothing, so it is deleted.
  CompiledNetwork(CompiledNetwork&&) noexcept = default;
  CompiledNetwork& operator=(CompiledNetwork&&) noexcept = default;
  CompiledNetwork(const CompiledNetwork&) = delete;
  CompiledNetwork& operator=(const CompiledNetwork&) = delete;

  const QuantizedNetwork& network() const noexcept { return *network_; }
  const ArchParams& params() const noexcept { return params_; }
  bool use_predictor() const noexcept { return use_predictor_; }
  std::size_t num_layers() const noexcept { return num_layers_; }
  std::size_t num_pes() const noexcept { return params_.num_pes; }

  /// The network identity/epoch this image was compiled at (see
  /// QuantizedNetwork::uid): stored values, safe to read even after
  /// the source network has been destroyed.
  std::uint64_t source_uid() const noexcept { return source_uid_; }
  std::uint64_t source_epoch() const noexcept { return source_epoch_; }
  /// True when the source network mutated (epoch moved) or was
  /// re-identified (assigned over — uid moved) after compilation; a
  /// stale image no longer matches the network and must not be
  /// simulated.
  bool stale() const noexcept {
    return network_->uid() != source_uid_ ||
           network_->epoch() != source_epoch_;
  }

  /// Whether this image was compiled from `network` at its current
  /// state. Unlike an address comparison this can never confuse two
  /// networks that reused the same storage (e.g. re-emplaced into the
  /// same std::optional slot), and it touches only `network` and
  /// stored values — never the possibly-dead source pointer.
  bool compiled_from(const QuantizedNetwork& network) const noexcept {
    return network.uid() == source_uid_ &&
           network.epoch() == source_epoch_;
  }

  /// Worst-case broadcast-channel occupancy of any phase of any layer
  /// (rank for V, input width for W) — the simulator pre-sizes the
  /// channel with this once per run, keeping send() allocation-free
  /// regardless of input density.
  std::size_t max_broadcast_flits() const noexcept {
    return max_broadcast_flits_;
  }

  /// The longest vector any layer's functional pass touches: the
  /// widest layer input, output or rank. The simulator sizes its
  /// functional-pass scratch with this once per run.
  std::size_t max_layer_width() const noexcept { return max_layer_width_; }

  /// The read-only slice of layer `layer` mapped to PE `pe`.
  const PeLayerSlice& slice(std::size_t layer, std::size_t pe) const {
    return slices_.at(layer * params_.num_pes + pe);
  }

  /// Total packed weight words (W + U + V), for memory accounting.
  std::size_t packed_words() const noexcept {
    return w_pool_.size() + u_pool_.size() + v_pool_.size();
  }

 private:
  const QuantizedNetwork* network_;
  ArchParams params_;
  bool use_predictor_;
  std::size_t num_layers_;
  std::uint64_t source_uid_;
  std::uint64_t source_epoch_;
  std::size_t max_broadcast_flits_ = 0;
  std::size_t max_layer_width_ = 0;

  // Packed storage, layer-major then PE-major; never resized after
  // construction so the views below stay valid for the object's life.
  std::vector<std::uint32_t> rows_pool_;
  std::vector<std::int16_t> w_pool_;
  std::vector<std::int16_t> u_pool_;
  std::vector<std::int16_t> v_pool_;

  std::vector<PeLayerSlice> slices_;  ///< [layer * num_pes + pe]
};

}  // namespace sparsenn
