// Byte-level codec shared by the durable-state format (src/persist) and
// the network wire protocol (src/net).
//
// All integers are little-endian fixed width; doubles are stored as their
// IEEE-754 bit patterns, so a decoded value is bit-exact. The Decoder is
// bounds-checked: every getter returns false on overrun and the caller
// treats that as corruption (a torn WAL tail, a malformed network frame).

#ifndef CROWDTOPK_UTIL_CODEC_H_
#define CROWDTOPK_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace crowdtopk::util {

class Encoder {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutBytes(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutBytes(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutBytes(&v, sizeof(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutString(const std::string& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    buffer_.append(v);
  }

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void PutBytes(const void* data, size_t size) {
    // Little-endian hosts only (the toolchains this repo targets); memcpy
    // keeps the accessors free of alignment traps.
    buffer_.append(static_cast<const char*>(data), size);
  }
  std::string buffer_;
};

// Bounds-checked reader; every getter returns false on overrun and the
// caller treats that as corruption.
class Decoder {
 public:
  Decoder(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::string& data)
      : Decoder(data.data(), data.size()) {}

  bool GetU8(uint8_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU16(uint16_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetI32(int32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetString(std::string* v) {
    uint32_t size;
    return GetU32(&size) && GetRaw(size, v);
  }
  // Copies the next `size` bytes into `v` and advances past them.
  bool GetRaw(size_t size, std::string* v) {
    if (size_ - offset_ < size) return false;
    v->assign(data_ + offset_, size);
    offset_ += size;
    return true;
  }

  size_t remaining() const { return size_ - offset_; }

 private:
  bool GetBytes(void* out, size_t size) {
    if (size_ - offset_ < size) return false;
    std::memcpy(out, data_ + offset_, size);
    offset_ += size;
    return true;
  }
  const char* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace crowdtopk::util

#endif  // CROWDTOPK_UTIL_CODEC_H_
