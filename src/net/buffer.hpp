// Buffer: the zero-copy payload representation carried by net::Message.
//
// A Buffer is an ordered sequence of ref-counted byte slices.  The two
// producers on the hot path construct it without copying:
//
//   * serial::OArchive::take() yields a std::vector<std::byte> that the
//     implicit Buffer constructor *adopts* (one move, zero copies) — the
//     serialized argument pack travels from the archive through Message
//     to the socket untouched;
//   * a batched receive (wire::StreamFrameDecoder) pulls a whole batch
//     payload into one shared allocation and hands each sub-frame a
//     Buffer::view of its range.
//
// Copying a Buffer copies slice descriptors (refcount bumps), never the
// bytes — which is what makes the retry driver's resend copy, the dedup
// cache's replay copy, and FaultyFabric's pass-through effectively free.
//
// Readers see a contiguous std::span<const std::byte> via bytes() (and an
// implicit conversion, so `serial::IArchive ia(m.payload)` compiles
// unchanged).  A single-slice Buffer — the overwhelmingly common case —
// returns its storage directly; a multi-slice Buffer flattens lazily into
// a cached allocation on first access.
//
// A Buffer is immutable except for mutate_byte(), a copy-on-write hook
// that exists solely so FaultyFabric can corrupt one byte without
// disturbing other holders of the same slices.  Like Message itself, a
// Buffer instance is not internally synchronized: concurrent access to
// one *instance* needs external ordering, while distinct instances may
// freely share underlying slices across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "serial/archive.hpp"
#include "serial/bytes.hpp"
#include "util/assert.hpp"

namespace oopp::net {

class Buffer {
 public:
  Buffer() = default;

  /// Adopt a byte vector without copying.  Implicit on purpose: every
  /// call site that built a std::vector<std::byte> payload keeps
  /// compiling, and OArchive::take() feeds this directly.
  Buffer(std::vector<std::byte> bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.empty()) return;
    size_ = bytes.size();
    slices_.push_back(Slice{
        std::make_shared<const std::vector<std::byte>>(std::move(bytes)), 0,
        size_});
  }

  /// A view of `[off, off+len)` of shared storage: how a batched receive
  /// gives each sub-frame its payload without copying the batch buffer.
  static Buffer view(std::shared_ptr<const std::vector<std::byte>> store,
                     std::size_t off, std::size_t len) {
    Buffer b;
    if (len == 0) return b;
    OOPP_CHECK(store != nullptr && off + len <= store->size());
    b.size_ = len;
    b.slices_.push_back(Slice{std::move(store), off, len});
    return b;
  }

  /// Adopt an OArchive's sealed segment chain (refcount bumps, no byte
  /// copies): how a payload that spliced serial::Bytes slices reaches
  /// the wire without flattening.  Segments arrive in stream order.
  static Buffer from_segments(std::vector<serial::Bytes> segs) {
    Buffer b;
    for (serial::Bytes& s : segs) {
      if (s.empty()) continue;
      b.size_ += s.size();
      b.slices_.push_back(Slice{s.store(), s.offset(), s.size()});
    }
    return b;
  }

  /// The whole payload as one ref-counted serial::Bytes slice — what an
  /// IArchive takes to decode Bytes arguments as views into this buffer.
  /// Single-slice buffers (the common case) share their storage
  /// directly; a multi-slice buffer flattens once (the same lazy flatten
  /// bytes() performs) and shares the flat allocation.
  [[nodiscard]] serial::Bytes share() const {
    if (slices_.empty()) return {};
    if (slices_.size() == 1)
      return serial::Bytes(slices_[0].store, slices_[0].off, slices_[0].len);
    (void)bytes();  // materialize flat_
    return serial::Bytes(flat_, 0, size_);
  }

  /// Append another buffer's slices (refcount bumps, no byte copies).
  void append(const Buffer& b) {
    for (const Slice& s : b.slices_) slices_.push_back(s);
    size_ += b.size_;
    flat_.reset();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t slice_count() const { return slices_.size(); }

  /// The i-th slice as a span — what send_framev turns into iovecs.
  [[nodiscard]] std::span<const std::byte> slice(std::size_t i) const {
    const Slice& s = slices_[i];
    return {s.store->data() + s.off, s.len};
  }

  /// Contiguous view of the whole payload.  Free for empty and
  /// single-slice buffers; a multi-slice buffer flattens once into a
  /// cached allocation (rare: only consumers that parse a scatter-built
  /// payload pay it).
  [[nodiscard]] std::span<const std::byte> bytes() const {
    if (slices_.empty()) return {};
    if (slices_.size() == 1) return slice(0);
    if (!flat_) {
      auto flat = std::make_shared<std::vector<std::byte>>();
      flat->reserve(size_);
      for (std::size_t i = 0; i < slices_.size(); ++i) {
        const auto s = slice(i);
        flat->insert(flat->end(), s.begin(), s.end());
      }
      flat_ = std::move(flat);
    }
    return {flat_->data(), flat_->size()};
  }

  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const std::byte>() const { return bytes(); }

  [[nodiscard]] std::byte operator[](std::size_t pos) const {
    return bytes()[pos];
  }

  [[nodiscard]] std::vector<std::byte> to_vector() const {
    const auto b = bytes();
    return {b.begin(), b.end()};
  }

  /// FNV-1a-32 over the logical byte sequence, never returning 0 (0 means
  /// "unchecked" in the frame header).  Computed per slice — no flatten.
  [[nodiscard]] std::uint32_t checksum() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      for (std::byte b : slice(i)) {
        h ^= static_cast<std::uint8_t>(b);
        h *= 0x100000001b3ULL;
      }
    }
    auto folded = static_cast<std::uint32_t>(h ^ (h >> 32));
    return folded == 0 ? 1 : folded;
  }

  /// Copy-on-write single-byte XOR, for fault injection only: other
  /// Buffers sharing these slices are unaffected.
  void mutate_byte(std::size_t pos, std::byte xor_mask) {
    OOPP_CHECK(pos < size_);
    std::vector<std::byte> copy = to_vector();
    copy[pos] ^= xor_mask;
    *this = Buffer(std::move(copy));
  }

 private:
  struct Slice {
    std::shared_ptr<const std::vector<std::byte>> store;
    std::size_t off = 0;
    std::size_t len = 0;
  };

  std::vector<Slice> slices_;
  std::size_t size_ = 0;
  /// Lazily built contiguous copy for multi-slice buffers; shared so that
  /// copies of a flattened Buffer reuse it.
  mutable std::shared_ptr<const std::vector<std::byte>> flat_;
};

/// Finish an OArchive into a Buffer, preserving spliced segments: the
/// common pack-and-send idiom `async_raw(..., to_buffer(oa), ...)`.
/// Without segments this is exactly the old Buffer(oa.take()) adoption.
inline Buffer to_buffer(serial::OArchive& oa) {
  if (!oa.has_segments()) return Buffer(oa.take());
  return Buffer::from_segments(oa.take_segments());
}

}  // namespace oopp::net
