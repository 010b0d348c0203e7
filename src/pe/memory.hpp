#pragma once
// Access-counted local SRAM banks of one PE (the per-PE W/U/V memories
// of paper Table II). The bank addresses 16-bit words row-major and
// checks the configured capacity — a layer that does not fit the
// distributed memory is a configuration error the simulator must
// surface, exactly like exceeding the real chip's 128KB/PE would be.
//
// The bank is a *view* over externally owned words (normally a
// CompiledNetwork's packed per-PE slices): loading a layer binds the
// view instead of copying the slice, which models the weights already
// resident on chip and removes the dominant per-inference memcpy. The
// backing storage must outlive the simulation of the loaded layer;
// read counting is unchanged.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace sparsenn {

class SramBank {
 public:
  SramBank(std::string name, std::size_t capacity_kb)
      : name_(std::move(name)), capacity_words_(words_in_kb(capacity_kb)) {}

  /// 16-bit words a bank of `capacity_kb` KB holds.
  static constexpr std::size_t words_in_kb(std::size_t capacity_kb) noexcept {
    return capacity_kb * 1024 / 2;
  }

  const std::string& name() const noexcept { return name_; }
  std::size_t capacity_words() const noexcept { return capacity_words_; }
  std::size_t used_words() const noexcept { return words_.size(); }

  /// Binds the bank to one layer's slice (single row). Throws when the
  /// slice exceeds the physical capacity.
  void load(std::span<const std::int16_t> words) {
    expects(words.size() <= capacity_words_,
            "layer slice exceeds SRAM capacity");
    words_ = words;
    row_stride_ = words_.size();
  }

  /// Binds a rows×stride row-major block.
  void load_rows(std::span<const std::int16_t> words, std::size_t stride) {
    expects(stride > 0, "row stride must be positive");
    expects(words.size() <= capacity_words_,
            "layer slice exceeds SRAM capacity");
    words_ = words;
    row_stride_ = stride;
  }

  std::int16_t read(std::size_t address) {
    expects(address < words_.size(), "SRAM read out of range");
    ++reads_;
    return words_[address];
  }

  std::int16_t read_row_word(std::size_t row, std::size_t offset) {
    return read(row * row_stride_ + offset);
  }

  std::span<const std::int16_t> row(std::size_t r) const {
    expects((r + 1) * row_stride_ <= words_.size(),
            "SRAM row out of range");
    return words_.subspan(r * row_stride_, row_stride_);
  }

  std::size_t num_rows() const noexcept {
    return row_stride_ == 0 ? 0 : words_.size() / row_stride_;
  }

  /// Raw view of the bound words plus the row stride, for the kernel
  /// layer's bulk MAC loops (common/kernels.hpp). No read charge —
  /// callers account the whole burst with note_reads().
  std::span<const std::int16_t> words() const noexcept { return words_; }
  std::size_t row_stride() const noexcept { return row_stride_; }

  /// Bulk read charge for a kernel that touched `n` words — keeps the
  /// access counter identical to n single-word read() calls.
  void note_reads(std::uint64_t n) noexcept { reads_ += n; }

  std::uint64_t reads() const noexcept { return reads_; }
  void reset_counters() noexcept { reads_ = 0; }

 private:
  std::string name_;
  std::size_t capacity_words_;
  std::span<const std::int16_t> words_;
  std::size_t row_stride_ = 0;
  std::uint64_t reads_ = 0;
};

}  // namespace sparsenn
