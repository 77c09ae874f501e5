// Byte-level serialization primitives shared by everything that speaks
// untrusted bytes: a little-endian fixed-width writer, a sticky-error
// reader that is safe on arbitrary (truncated, bit-flipped, adversarial)
// input, and the CRC-64 used to detect corruption. The recovery snapshot
// container and the admission-service wire protocol are both built on
// these.
//
// The reader's contract is the load-bearing part: snapshot files are read
// back after crashes and protocol frames arrive from arbitrary clients,
// so every Take* operation on malformed input must return a harmless zero
// value and latch ok() == false — never read out of bounds, never
// allocate a length the input cannot back (length claims are capped by
// the bytes actually remaining), never invoke UB.
#ifndef ZONESTREAM_COMMON_BLOB_H_
#define ZONESTREAM_COMMON_BLOB_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zonestream::common {

// CRC-64/XZ (reflected polynomial 0xC96C5795D7870F42) over `data`.
uint64_t Crc64(std::string_view data);

// Appends little-endian fixed-width values to an owned byte buffer.
class BlobWriter {
 public:
  void PutU8(uint8_t value);
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI64(int64_t value);   // two's-complement via the u64 encoding
  void PutF64(double value);    // IEEE-754 bits via the u64 encoding
  void PutBool(bool value) { PutU8(value ? 1 : 0); }

  // u64 length prefix + raw bytes.
  void PutString(std::string_view value);

  // u64 count prefix + that many u64 words.
  void PutWords(const std::vector<uint64_t>& words);

  const std::string& data() const { return data_; }
  std::string Release() { return std::move(data_); }

 private:
  std::string data_;
};

// Consumes a byte range written by BlobWriter. All errors are sticky:
// after the first short or malformed read, every further Take* returns a
// zero value and ok() stays false.
class BlobReader {
 public:
  explicit BlobReader(std::string_view data) : data_(data) {}

  uint8_t TakeU8();
  uint32_t TakeU32();
  uint64_t TakeU64();
  int64_t TakeI64();
  double TakeF64();
  // Strict bool: rejects any byte other than 0 or 1 (a flipped bit in a
  // flag must fail the load, not silently flip behavior).
  bool TakeBool();
  std::string TakeString();
  std::vector<uint64_t> TakeWords();

  // Marks the stream failed (for semantic errors found above this layer).
  void Fail() { failed_ = true; }

  bool ok() const { return !failed_; }
  size_t remaining() const { return data_.size() - position_; }
  // True when the reader is still ok and fully consumed.
  bool AtEnd() const { return ok() && remaining() == 0; }

 private:
  // Takes `n` raw bytes; returns an empty view and latches the error when
  // fewer remain.
  std::string_view TakeBytes(size_t n);

  std::string_view data_;
  size_t position_ = 0;
  bool failed_ = false;
};

}  // namespace zonestream::common

#endif  // ZONESTREAM_COMMON_BLOB_H_
