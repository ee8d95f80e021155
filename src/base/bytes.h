/// \file bytes.h
/// \brief The byte codec shared by the on-disk formats: MAPINVSN instance
/// snapshots (data/snapshot.cc), MAPINVJB job manifests (job/job.cc) and
/// MAPINVSW symbolic-world checkpoints (chase/chase_so.cc).
///
/// Integers are written host-endian: every format is a single-host
/// artifact. ByteReader is the one bounds-checked cursor their loaders read
/// through: a read past the end fails with kMalformed, prefixed with the
/// format's name, instead of walking off the buffer.

#ifndef MAPINV_BASE_BYTES_H_
#define MAPINV_BASE_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "base/status.h"

namespace mapinv {

inline void AppendU32(std::string& buf, uint32_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void AppendU64(std::string& buf, uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// The FNV-1a offset basis: the seed of a hash over no bytes yet.
constexpr uint64_t kFnv1aOffset = 14695981039346656037ull;

/// Folds `len` bytes at `data` into the 64-bit FNV-1a hash `seed`. Chained
/// calls hash the concatenation of their inputs.
inline uint64_t Fnv1a(uint64_t seed, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief Bounds-checked cursor over an encoded image. Every failed read
/// returns kMalformed "<format>: truncated inside a field" (or "... inside
/// padding" for Skip) and leaves the cursor where it was.
class ByteReader {
 public:
  /// `format` names the encoding in error messages; it must outlive the
  /// reader (pass a string literal).
  ByteReader(const uint8_t* data, size_t size, const char* format)
      : data_(data), size_(size), format_(format) {}

  Result<uint8_t> U8() { return Fixed<uint8_t>(); }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }

  /// The next `len` bytes, viewed in place.
  Result<std::string_view> Bytes(size_t len) {
    if (len > remaining()) return Truncated("a field");
    std::string_view view(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return view;
  }

  Status Skip(size_t len) {
    if (len > remaining()) return Truncated("padding");
    pos_ += len;
    return Status::OK();
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  Result<T> Fixed() {
    if (sizeof(T) > remaining()) return Truncated("a field");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Status Truncated(const char* where) const {
    return Status::Malformed(std::string(format_) + ": truncated inside " +
                             where);
  }

  const uint8_t* data_;
  size_t size_;
  const char* format_;
  size_t pos_ = 0;
};

}  // namespace mapinv

#endif  // MAPINV_BASE_BYTES_H_
