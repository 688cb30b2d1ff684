#include "memx/trace/trace.hpp"

#include <algorithm>

namespace memx {

void Trace::append(const Trace& other) {
  refs_.insert(refs_.end(), other.refs_.begin(), other.refs_.end());
}

std::size_t Trace::readCount() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(refs_.begin(), refs_.end(), [](const MemRef& r) {
        return isReadLike(r.type);
      }));
}

std::size_t Trace::writeCount() const noexcept {
  return refs_.size() - readCount();
}

std::optional<MemRef> VectorTraceSource::next() {
  if (pos_ >= trace_->size()) return std::nullopt;
  return (*trace_)[pos_++];
}

std::size_t fillChunk(TraceSource& source, std::vector<MemRef>& buf,
                      std::size_t chunkRefs) {
  buf.clear();
  while (buf.size() < chunkRefs) {
    auto ref = source.next();
    if (!ref) break;
    buf.push_back(*ref);
  }
  return buf.size();
}

Trace drain(TraceSource& source) {
  Trace out;
  while (auto ref = source.next()) out.push(*ref);
  return out;
}

}  // namespace memx
