// In-memory address traces and streaming trace sources.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "memx/trace/memref.hpp"

namespace memx {

/// An ordered sequence of memory references (the unit the cache simulator,
/// bus monitor and energy accounting all consume).
class Trace {
public:
  Trace() = default;
  explicit Trace(std::vector<MemRef> refs) : refs_(std::move(refs)) {}

  /// Append one reference to the end of the trace.
  void push(const MemRef& ref) { refs_.push_back(ref); }

  /// Append every reference of `other`, preserving order.
  void append(const Trace& other);

  [[nodiscard]] std::size_t size() const noexcept { return refs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return refs_.empty(); }
  [[nodiscard]] const MemRef& operator[](std::size_t i) const {
    return refs_[i];
  }

  [[nodiscard]] auto begin() const noexcept { return refs_.begin(); }
  [[nodiscard]] auto end() const noexcept { return refs_.end(); }

  [[nodiscard]] const std::vector<MemRef>& refs() const noexcept {
    return refs_;
  }

  /// Number of read-like references (loads and instruction fetches).
  [[nodiscard]] std::size_t readCount() const noexcept;
  /// Number of write references.
  [[nodiscard]] std::size_t writeCount() const noexcept;

private:
  std::vector<MemRef> refs_;
};

/// I/O-side accounting of a streaming source (what external ingestion
/// has cost so far, not what a consumer has kept). Sources that do no
/// external decoding report zeros.
struct IngestStats {
  std::uint64_t bytesRead = 0;    ///< raw bytes consumed (compressed size
                                  ///< for a .din.gz, file size for a .din)
  std::uint64_t refsDecoded = 0;  ///< references decoded from the format
};

/// Default chunk granularity of the streaming replay loops: 64k
/// references (~1 MiB of MemRef buffer) keeps the per-chunk dispatch
/// cost invisible while bounding resident memory independent of trace
/// length.
inline constexpr std::size_t kDefaultTraceChunkRefs = std::size_t{1} << 16;

/// Pull-based source of references; lets large synthetic workloads and
/// out-of-core trace files be simulated without materializing the whole
/// trace.
class TraceSource {
public:
  virtual ~TraceSource() = default;
  /// Next reference, or nullopt when the stream is exhausted.
  [[nodiscard]] virtual std::optional<MemRef> next() = 0;
  /// Ingestion-side accounting; decorators forward to the source they
  /// wrap so the decode cost stays visible through a windowing chain.
  [[nodiscard]] virtual IngestStats ingest() const { return {}; }
};

/// Fill `buf` (cleared first) with up to `chunkRefs` references pulled
/// from `source`. Returns the number delivered; a short count means the
/// source is exhausted. The chunked replay loops are all built on this.
std::size_t fillChunk(TraceSource& source, std::vector<MemRef>& buf,
                      std::size_t chunkRefs);

/// Adapts an in-memory Trace to the streaming interface. A non-owning
/// view: the trace is not copied and must outlive the source, so
/// temporaries are refused at compile time.
class VectorTraceSource final : public TraceSource {
public:
  explicit VectorTraceSource(const Trace& trace) : trace_(&trace) {}
  VectorTraceSource(Trace&&) = delete;
  [[nodiscard]] std::optional<MemRef> next() override;

private:
  const Trace* trace_;
  std::size_t pos_ = 0;
};

/// Drain a source into an in-memory trace (test/bench helper).
[[nodiscard]] Trace drain(TraceSource& source);

}  // namespace memx
