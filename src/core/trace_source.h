// Chunked access to an address stream: the feeding side of the batched
// evaluation hot path.
//
// Evaluate() consumes a fully materialized std::vector<BusAccess>; on a
// comparison grid that either copies the stream per cell or pins one
// big allocation for the whole run. A TraceSource instead hands the
// evaluator fixed-size chunks on demand, so producers can keep their
// natural representation (an AddressTrace, a memory-mapped file, a
// generator) and the engine's working set stays one chunk per worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/types.h"

namespace abenc {

/// Raw columnar view of a chunk of accesses: parallel arrays of
/// addresses and SEL flags (nonzero = instruction slot / SEL asserted).
/// This is the zero-copy handoff between columnar sources (the mmap
/// trace reader, ColumnarTraceSource) and a columns AccessBatch
/// (core/codec.h).
struct TraceColumns {
  const Word* addresses = nullptr;
  const std::uint8_t* sel = nullptr;
};

/// Random-access chunk reader over an address stream.
///
/// Implementations must be stateless with respect to reads: Read() at
/// the same offset always yields the same accesses, and concurrent
/// Read() calls from different threads are safe (the parallel
/// experiment engine shares one source across every cell of a row).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Total number of accesses in the stream.
  virtual std::size_t size() const = 0;

  /// Copy accesses [offset, offset + out.size()) into `out`, clamped to
  /// the end of the stream. Returns the number of accesses written.
  virtual std::size_t Read(std::size_t offset,
                           std::span<BusAccess> out) const = 0;

  /// Zero-copy chunk access: expose up to `max_len` accesses starting
  /// at `offset` directly from the source's own storage. Returns the
  /// number of accesses visible through `*columns`, or 0 when the
  /// source cannot share its storage — callers then fall back to
  /// Read(). The exposed pointers stay valid for the source's lifetime,
  /// and the view must be bit-identical to what Read() copies out.
  virtual std::size_t ViewColumns(std::size_t offset, std::size_t max_len,
                                  TraceColumns* columns) const {
    (void)offset;
    (void)max_len;
    (void)columns;
    return 0;
  }
};

/// Non-owning TraceSource over a contiguous BusAccess sequence — the
/// adapter for every caller that already holds a materialized stream.
/// The viewed storage must outlive the source.
class SpanTraceSource final : public TraceSource {
 public:
  explicit SpanTraceSource(std::span<const BusAccess> accesses)
      : accesses_(accesses) {}

  std::size_t size() const override { return accesses_.size(); }

  std::size_t Read(std::size_t offset,
                   std::span<BusAccess> out) const override {
    if (offset >= accesses_.size()) return 0;
    const std::size_t n = out.size() < accesses_.size() - offset
                              ? out.size()
                              : accesses_.size() - offset;
    for (std::size_t i = 0; i < n; ++i) out[i] = accesses_[offset + i];
    return n;
  }

 private:
  std::span<const BusAccess> accesses_;
};

/// Owning columnar TraceSource: the in-memory twin of the mmap-backed
/// packed-trace reader (trace/mmap_trace.h). Tests and verify
/// properties use it to drive the zero-copy columnar path without
/// touching disk.
class ColumnarTraceSource final : public TraceSource {
 public:
  ColumnarTraceSource(std::vector<Word> addresses,
                      std::vector<std::uint8_t> sel)
      : addresses_(std::move(addresses)), sel_(std::move(sel)) {
    if (addresses_.size() != sel_.size()) {
      throw std::invalid_argument(
          "ColumnarTraceSource: address and SEL columns differ in length");
    }
  }

  static ColumnarTraceSource FromAccesses(std::span<const BusAccess> stream) {
    std::vector<Word> addresses;
    std::vector<std::uint8_t> sel;
    addresses.reserve(stream.size());
    sel.reserve(stream.size());
    for (const BusAccess& access : stream) {
      addresses.push_back(access.address);
      sel.push_back(access.sel ? 1 : 0);
    }
    return ColumnarTraceSource(std::move(addresses), std::move(sel));
  }

  std::size_t size() const override { return addresses_.size(); }

  std::size_t Read(std::size_t offset,
                   std::span<BusAccess> out) const override {
    if (offset >= addresses_.size()) return 0;
    const std::size_t n = out.size() < addresses_.size() - offset
                              ? out.size()
                              : addresses_.size() - offset;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = BusAccess{addresses_[offset + i], sel_[offset + i] != 0};
    }
    return n;
  }

  std::size_t ViewColumns(std::size_t offset, std::size_t max_len,
                          TraceColumns* columns) const override {
    if (offset >= addresses_.size()) return 0;
    const std::size_t n = max_len < addresses_.size() - offset
                              ? max_len
                              : addresses_.size() - offset;
    columns->addresses = addresses_.data() + offset;
    columns->sel = sel_.data() + offset;
    return n;
  }

 private:
  std::vector<Word> addresses_;
  std::vector<std::uint8_t> sel_;
};

}  // namespace abenc
