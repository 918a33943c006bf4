// Abstract interface implemented by every address-bus code in the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/simd/kernels.h"
#include "core/types.h"

namespace abenc {

/// Zero-copy view of n consecutive stream accesses, either BusAccess
/// rows or parallel address / SEL columns (the mmap trace reader,
/// ColumnarTraceSource and wire SUBMIT shape; nonzero SEL = asserted).
/// The viewed storage must outlive the view.
class AccessBatch {
 public:
  AccessBatch() = default;
  static AccessBatch Rows(std::span<const BusAccess> rows) {
    if (rows.empty()) return {};
    return {simd::ViewAddresses(rows.data()),
            reinterpret_cast<const std::uint8_t*>(&rows[0].sel),
            sizeof(BusAccess), rows.size()};
  }
  static AccessBatch Columns(const Word* addresses, const std::uint8_t* sel,
                             std::size_t n) {
    return {{addresses, 1}, sel, 1, n};
  }

  /// The address column as the SIMD kernels read it.
  simd::AddressView addresses() const { return addr_; }
  Word address(std::size_t i) const { return addr_[i]; }
  bool sel(std::size_t i) const { return sel_[sel_step_ * i] != 0; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Accesses [from, from + n).
  AccessBatch Slice(std::size_t from, std::size_t n) const {
    return {{addr_.addr + addr_.step * from, addr_.step},
            sel_ + sel_step_ * from, sel_step_, n};
  }

 private:
  AccessBatch(simd::AddressView addr, const std::uint8_t* sel,
              std::size_t sel_step, std::size_t size)
      : addr_(addr), sel_(sel), sel_step_(sel_step), size_(size) {}

  simd::AddressView addr_;
  const std::uint8_t* sel_ = nullptr;
  std::size_t sel_step_ = 1;
  std::size_t size_ = 0;
};

/// A bus code: a stateful mapping from the address stream b(t) to the bus
/// stream B(t) (encode) and back (decode).
///
/// One Codec object holds *independent* encoder-side and decoder-side state,
/// mirroring the two physical circuits at the ends of the bus. Driving
/// encode() and decode() in lockstep therefore models a real transfer;
/// tests exercise decode(encode(b)) == b on every code.
///
/// The `sel` argument models the instruction/data select control signal of a
/// multiplexed bus interface (asserted for instruction slots). Codes that do
/// not look at SEL simply ignore it; for dedicated instruction or data buses
/// callers pass a constant.
class Codec {
 public:
  explicit Codec(unsigned width) : width_(width) {
    if (width == 0 || width > 64) {
      throw CodecConfigError("bus width must be in [1, 64], got " +
                             std::to_string(width));
    }
  }
  virtual ~Codec() = default;

  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  /// Short machine-friendly identifier, e.g. "t0" or "dual-t0-bi".
  virtual std::string name() const = 0;

  /// Human-readable name as used in the paper's tables, e.g. "Dual T0_BI".
  virtual std::string display_name() const = 0;

  /// Number of address lines N.
  unsigned width() const { return width_; }

  /// Number of redundant control lines (0 for irredundant codes).
  virtual unsigned redundant_lines() const = 0;

  /// Encode the next address of the stream. Addresses are masked to N bits.
  virtual BusState Encode(Word address, bool sel) = 0;

  /// Encode a batch of consecutive stream accesses into `out` — the
  /// batched hot path of the stream evaluator and the service.
  /// `out.size()` must be at least `in.size()`; entries [0, in.size())
  /// are written.
  ///
  /// Contract (the "bit-identity guarantee", enforced for every factory
  /// codec by the `batched-identity` verify property and
  /// tests/stream_evaluator_test): EncodeBatch(in, out) produces exactly
  /// the BusState sequence that `in.size()` successive Encode() calls
  /// would, in either layout, and leaves the encoder-side state
  /// identical, so any chunking of a stream — including mixing
  /// EncodeBatch and Encode — yields the same bus trajectory. The base
  /// implementation loops the virtual Encode; the high-traffic codes
  /// (binary, Gray, offset, T0, INC-XOR, bus-invert) override it with
  /// SIMD kernels that read `in.addresses()` in place and pay one
  /// virtual dispatch per batch instead of per word.
  virtual void EncodeBatch(const AccessBatch& in, std::span<BusState> out) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = Encode(in.address(i), in.sel(i));
    }
  }

  /// Decode the next bus state of the stream. SEL must match the value the
  /// encoder saw in the same cycle (it travels on the bus, per the paper).
  virtual Word Decode(const BusState& bus, bool sel) = 0;

  /// Return both ends of the bus to the power-on state (all lines low,
  /// no history). The first address after reset is always sent verbatim.
  virtual void Reset() = 0;

  /// Total lines driven on the bus (data + redundant).
  unsigned total_lines() const { return width_ + redundant_lines(); }

 protected:
  Word Mask(Word address) const { return address & LowMask(width_); }

 private:
  unsigned width_;
};

using CodecPtr = std::unique_ptr<Codec>;

}  // namespace abenc
