// Tests for src/pe: activation queue, register files, LNZD, SRAM banks,
// and the processing element's V/U/W phase arithmetic.

#include <gtest/gtest.h>

#include "nn/quantized.hpp"
#include "pe/act_queue.hpp"
#include "pe/lnzd.hpp"
#include "pe/memory.hpp"
#include "pe/pe.hpp"
#include "pe/regfile.hpp"
#include "sim/schedule.hpp"

namespace sparsenn {
namespace {

Flit flit(std::uint32_t index, std::int64_t payload) {
  return Flit{.index = index, .payload = payload, .source = 0};
}

TEST(ActQueue, FifoSemantics) {
  ActQueue q(3);
  EXPECT_TRUE(q.empty());
  q.push(flit(1, 10));
  q.push(flit(2, 20));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().index, 1u);
  q.pop();
  EXPECT_EQ(q.front().index, 2u);
  EXPECT_EQ(q.pushes(), 2u);
  EXPECT_EQ(q.pops(), 1u);
}

TEST(ActQueue, OverflowAndUnderflowGuards) {
  ActQueue q(1);
  q.push(flit(1, 1));
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push(flit(2, 2)), InvariantError);
  q.pop();
  EXPECT_THROW(q.pop(), std::invalid_argument);
}

TEST(RegFile, ReadWriteAndCounting) {
  ActRegFile rf(8);
  rf.write(3, 42);
  EXPECT_EQ(rf.read(3), 42);
  EXPECT_EQ(rf.reads(), 1u);
  EXPECT_EQ(rf.writes(), 1u);
  EXPECT_THROW(rf.read(8), std::invalid_argument);
  rf.clear();
  EXPECT_EQ(rf.read(3), 0);
}

TEST(RegFile, PingPongSwap) {
  PingPongRegFiles pp(4);
  pp.destination().write(0, 7);
  EXPECT_EQ(pp.source().read(0), 0);
  pp.swap();
  EXPECT_EQ(pp.source().read(0), 7);  // destination became source
}

TEST(Lnzd, ScansMatchReference) {
  const std::vector<std::int16_t> regs{0, 5, 0, 0, -3, 7, 0};
  EXPECT_EQ(next_nonzero(regs, 0), 1u);
  EXPECT_EQ(next_nonzero(regs, 2), 4u);
  EXPECT_EQ(next_nonzero(regs, 6), std::nullopt);
  EXPECT_EQ(nonzero_positions(regs),
            (std::vector<std::size_t>{1, 4, 5}));

  const std::vector<std::uint8_t> bits{0, 0, 1, 0, 1};
  EXPECT_EQ(next_set_bit(bits, 0), 2u);
  EXPECT_EQ(next_set_bit(bits, 3), 4u);
  EXPECT_EQ(set_bit_positions(bits), (std::vector<std::size_t>{2, 4}));
}

TEST(SramBank, CapacityEnforced) {
  SramBank bank("W", 1);  // 1KB = 512 words
  EXPECT_EQ(bank.capacity_words(), 512u);
  // The bank views caller-owned words (it no longer copies).
  const std::vector<std::int16_t> fits(512, 1);
  const std::vector<std::int16_t> overflows(513, 1);
  EXPECT_NO_THROW(bank.load(fits));
  EXPECT_THROW(bank.load(overflows), std::invalid_argument);
}

TEST(SramBank, RowAccessAndCounting) {
  SramBank bank("U", 1);
  const std::vector<std::int16_t> words{1, 2, 3, 4, 5, 6};
  bank.load_rows(words, 3);
  EXPECT_EQ(bank.num_rows(), 2u);
  EXPECT_EQ(bank.read_row_word(1, 2), 6);
  EXPECT_EQ(bank.reads(), 1u);
  EXPECT_THROW(bank.read(6), std::invalid_argument);
  const auto row = bank.row(0);
  EXPECT_EQ(row[0], 1);
  EXPECT_THROW(bank.row(2), std::invalid_argument);
}

// ---- ProcessingElement ----

ArchParams small_params() {
  ArchParams p;
  p.num_pes = 4;
  p.router_levels = 1;
  p.w_mem_kb_per_pe = 4;
  p.u_mem_kb_per_pe = 2;
  p.v_mem_kb_per_pe = 2;
  p.act_regs_per_pe = 8;
  return p;
}

/// Builds a quantised single-layer network and the slice for PE 0.
struct PeFixture {
  PeFixture() : params(small_params()) {
    Rng rng{77};
    Network net{{8, 6, 3}, rng};
    net.set_predictor(0, Predictor::random(6, 8, 2, rng));
    Matrix calib(4, 8, 0.5f);
    quantized.emplace(net, calib);
  }

  ArchParams params;
  std::optional<QuantizedNetwork> quantized;
};

TEST(ProcessingElement, InputScatteringByModulo) {
  PeFixture f;
  ProcessingElement pe(1, f.params);
  const OwnedPeSlice slice =
      make_pe_slice(f.quantized->layer(0), f.params, 1, true);
  pe.load_layer(slice.view);
  std::vector<std::int16_t> input{10, 11, 12, 13, 14, 15, 16, 17};
  pe.load_input(input);
  const auto nz = pe.scan_source_nonzeros();
  // PE 1 of 4 owns global indices 1 and 5.
  ASSERT_EQ(nz.size(), 2u);
  EXPECT_EQ(nz[0].index, 1u);
  EXPECT_EQ(nz[0].payload, 11);
  EXPECT_EQ(nz[1].index, 5u);
  EXPECT_EQ(nz[1].payload, 15);
}

TEST(ProcessingElement, WPhaseMatchesGoldenRows) {
  PeFixture f;
  const QuantizedLayer& layer = f.quantized->layer(0);

  // Quantise an input and compute the golden layer result.
  const Vector x{0.9f, 0.0f, 0.4f, 0.2f, 0.0f, 0.7f, 0.1f, 0.3f};
  const auto qx = f.quantized->quantize_input(x);
  const QuantizedLayerResult golden =
      f.quantized->forward_layer(0, qx, /*use_predictor=*/false);

  for (std::size_t pe_id = 0; pe_id < f.params.num_pes; ++pe_id) {
    ProcessingElement pe(pe_id, f.params);
    const OwnedPeSlice slice = make_pe_slice(layer, f.params, pe_id, true);
    pe.load_layer(slice.view);
    pe.load_input(qx);
    pe.force_all_rows_active();
    pe.start_w_phase();

    // Feed the PE every nonzero activation (order scrambled to check
    // commutativity), then drain the datapath.
    std::vector<Flit> acts;
    for (std::size_t i = 0; i < qx.size(); ++i)
      if (qx[i] != 0)
        acts.push_back(flit(static_cast<std::uint32_t>(i), qx[i]));
    std::rotate(acts.begin(), acts.begin() + acts.size() / 2, acts.end());
    for (const Flit& a : acts) {
      pe.enqueue_activation(a);
      while (!pe.w_done() || !pe.injections_done()) {
        if (pe.has_injection()) pe.pop_injection();
        if (!pe.step_w_consume()) break;
      }
    }
    while (pe.step_w_consume()) {
    }

    for (const auto& [global, value] : pe.write_back()) {
      EXPECT_EQ(value, golden.activations[global])
          << "PE " << pe_id << " row " << global;
    }
  }
}

TEST(ProcessingElement, VAndUPhasesReproducePredictorBits) {
  PeFixture f;
  const QuantizedLayer& layer = f.quantized->layer(0);
  const Vector x{0.9f, 0.0f, 0.4f, 0.2f, 0.0f, 0.7f, 0.1f, 0.3f};
  const auto qx = f.quantized->quantize_input(x);
  const QuantizedLayerResult golden =
      f.quantized->forward_layer(0, qx, /*use_predictor=*/true);

  // Run the V phase across all PEs manually: local partials, exact
  // reduction, rescale at the "root", then U per PE.
  const std::size_t rank = layer.rank();
  std::vector<std::int64_t> sums(rank, 0);
  std::vector<ProcessingElement> pes;
  std::vector<OwnedPeSlice> slices;  // must outlive the PEs' use
  for (std::size_t id = 0; id < f.params.num_pes; ++id) {
    pes.emplace_back(id, f.params);
    slices.push_back(make_pe_slice(layer, f.params, id, true));
    pes.back().load_layer(slices.back().view);
    pes.back().load_input(qx);
    pes.back().start_v_phase();
    while (!pes.back().v_compute_done()) pes.back().step_v_compute();
    while (pes.back().has_partial_ready()) {
      const Flit p = pes.back().peek_partial();
      sums[p.index] += p.payload;
      pes.back().pop_partial();
    }
  }
  const int from_frac =
      layer.in_fmt.frac_bits + layer.v->fmt.frac_bits;
  for (std::uint32_t row = 0; row < rank; ++row) {
    const std::int16_t s = rescale_to_i16(sums[row], from_frac,
                                          layer.mid_fmt.frac_bits);
    EXPECT_EQ(s, golden.v_result[row]) << "V row " << row;
    for (auto& pe : pes) pe.receive_v_result(row, s);
  }

  for (auto& pe : pes) {
    const std::size_t cycles = pe.run_u_phase();
    EXPECT_EQ(cycles, pe.predictor_bits().size() * rank);
    // Compare bits against the golden mask, row by mapped row.
    std::size_t local = 0;
    for (std::size_t global = pe.id(); global < layer.w.rows;
         global += f.params.num_pes, ++local) {
      EXPECT_EQ(pe.predictor_bits()[local], golden.mask[global])
          << "PE " << pe.id() << " global row " << global;
    }
  }
}

// The event path's charges against the datapath they stand in for: a
// PE that steps its V MACs one cycle at a time, predicts its own bits
// and consumes every activation must end with the same counters,
// cursors, predictor bits and destination register file as a PE that
// charges the V burst in two pieces, takes its bits from the golden
// mask, charges the W activations in bulk and stores the golden
// activations.
TEST(ProcessingElement, ChargesMatchTheDatapath) {
  PeFixture f;
  const QuantizedLayer& layer = f.quantized->layer(0);
  const Vector x{0.9f, 0.0f, 0.4f, 0.2f, 0.0f, 0.7f, 0.1f, 0.3f};
  const auto qx = f.quantized->quantize_input(x);
  const QuantizedLayerResult golden =
      f.quantized->forward_layer(0, qx, /*use_predictor=*/true);
  std::vector<Flit> acts;
  for (std::size_t i = 0; i < qx.size(); ++i)
    if (qx[i] != 0)
      acts.push_back(flit(static_cast<std::uint32_t>(i), qx[i]));

  for (std::size_t pe_id = 0; pe_id < f.params.num_pes; ++pe_id) {
    const OwnedPeSlice slice = make_pe_slice(layer, f.params, pe_id, true);
    ProcessingElement stepped(pe_id, f.params);
    ProcessingElement charged(pe_id, f.params);
    for (ProcessingElement* pe : {&stepped, &charged}) {
      pe->load_layer(slice.view);
      pe->load_input(qx);
      pe->start_v_phase();
    }

    while (!stepped.v_compute_done()) stepped.step_v_compute();
    // Split mid-column where the burst allows (rank 2: an odd split).
    const std::size_t burst = charged.v_burst_cycles();
    const std::size_t first = std::min(burst, burst / 2 + 1);
    charged.burst_v_compute(first);
    EXPECT_EQ(charged.v_burst_cycles(), burst - first);
    charged.burst_v_compute(charged.v_burst_cycles());
    EXPECT_TRUE(charged.v_compute_done());

    for (std::uint32_t row = 0; row < layer.rank(); ++row) {
      stepped.receive_v_result(row, golden.v_result[row]);
      charged.receive_v_result(row, golden.v_result[row]);
    }
    EXPECT_EQ(charged.charge_u_phase(golden.mask), stepped.run_u_phase());
    ASSERT_EQ(charged.predictor_bits().size(),
              stepped.predictor_bits().size());
    for (std::size_t r = 0; r < stepped.predictor_bits().size(); ++r)
      EXPECT_EQ(charged.predictor_bits()[r], stepped.predictor_bits()[r])
          << "PE " << pe_id << " row " << r;

    stepped.start_w_phase();
    charged.start_w_phase();
    for (const Flit& a : acts) {
      stepped.enqueue_activation(a);
      while (stepped.step_w_consume()) {
      }
    }
    charged.charge_w_activations(acts.size());
    (void)stepped.write_back();
    charged.store_activations(golden.activations);

    EXPECT_EQ(charged.events(), stepped.events()) << "PE " << pe_id;
    stepped.swap_regfiles();
    charged.swap_regfiles();
    const auto stepped_nz = stepped.scan_source_nonzeros();
    const std::vector<Flit> want(stepped_nz.begin(), stepped_nz.end());
    const auto got = charged.scan_source_nonzeros();
    ASSERT_EQ(got.size(), want.size()) << "PE " << pe_id;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index);
      EXPECT_EQ(got[i].payload, want[i].payload);
    }
  }
}

TEST(ProcessingElement, CapacityViolationSurfaces) {
  ArchParams p = small_params();
  p.w_mem_kb_per_pe = 1;  // 512 words only
  PeFixture f;
  ProcessingElement pe(0, p);
  OwnedPeSlice slice = make_pe_slice(f.quantized->layer(0), p, 0, true);
  // Inflate the slice beyond 512 words and re-point the view.
  slice.w_words.assign(600, 1);
  slice.view.w_words = slice.w_words;
  EXPECT_THROW(pe.load_layer(slice.view), std::invalid_argument);
}

TEST(ProcessingElement, EventCountersTrackWork) {
  PeFixture f;
  ProcessingElement pe(0, f.params);
  const OwnedPeSlice slice =
      make_pe_slice(f.quantized->layer(0), f.params, 0, true);
  pe.load_layer(slice.view);
  std::vector<std::int16_t> input(8, 100);
  pe.load_input(input);
  pe.force_all_rows_active();
  pe.start_w_phase();
  pe.enqueue_activation(flit(0, 100));
  while (pe.step_w_consume()) {
  }
  const EventCounts& e = pe.events();
  // PE 0 maps rows {0, 4} of the 6-row layer: 2 MACs for 1 activation.
  EXPECT_EQ(e.macs, 2u);
  EXPECT_EQ(e.w_mem_reads, 2u);
  EXPECT_GE(e.queue_ops, 2u);  // push + pop
  EXPECT_GT(e.pe_active_cycles, 0u);
  pe.reset_events();
  EXPECT_EQ(pe.events().macs, 0u);
}

}  // namespace
}  // namespace sparsenn
