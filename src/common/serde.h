// Byte-buffer serialization for log records and wire messages.
//
// Records written into FaRM ring-buffer logs travel through (simulated)
// one-sided RDMA writes, so they must be flat byte sequences. BufWriter and
// BufReader provide bounds-checked little-endian packing.
#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/logging.h"

namespace farm {

class BufWriter {
 public:
  BufWriter() = default;

  void PutU8(uint8_t v) { Append(&v, 1); }
  void PutU16(uint16_t v) { Append(&v, 2); }
  void PutU32(uint32_t v) { Append(&v, 4); }
  void PutU64(uint64_t v) { Append(&v, 8); }
  void PutBytes(const void* data, size_t len) {
    PutU32(static_cast<uint32_t>(len));
    Append(data, len);
  }
  void PutString(const std::string& s) { PutBytes(s.data(), s.size()); }

  // Raw append without a length prefix.
  void Append(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class BufReader {
 public:
  BufReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}
  explicit BufReader(const std::vector<uint8_t>& buf) : BufReader(buf.data(), buf.size()) {}

  uint8_t GetU8() { return Get<uint8_t>(); }
  uint16_t GetU16() { return Get<uint16_t>(); }
  uint32_t GetU32() { return Get<uint32_t>(); }
  uint64_t GetU64() { return Get<uint64_t>(); }

  std::vector<uint8_t> GetBytes() {
    uint32_t n = GetU32();
    FARM_CHECK(pos_ + n <= len_) << "BufReader overrun";
    std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  std::string GetString() {
    auto b = GetBytes();
    return std::string(b.begin(), b.end());
  }

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  template <typename T>
  T Get() {
    FARM_CHECK(pos_ + sizeof(T) <= len_) << "BufReader overrun";
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace farm

#endif  // SRC_COMMON_SERDE_H_
