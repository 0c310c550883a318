// Byte-level message serialization for the prototype's RPC substrate.
//
// The paper's prototype exchanges Thrift-encoded messages between node
// monitors and schedulers; this is the equivalent wire layer. Values are
// encoded little-endian into a byte buffer and decoded with bounds checks,
// so the prototype exercises a real encode/transfer/decode path rather than
// passing pointers around.
#ifndef HAWK_RPC_SERIALIZER_H_
#define HAWK_RPC_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace hawk {
namespace rpc {

class Writer {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteString(const std::string& s);
  void WriteU32Vector(const std::vector<uint32_t>& v);
  void WriteI64Vector(const std::vector<int64_t>& v);

  std::vector<uint8_t> Take() { return std::move(buf_); }
  const std::vector<uint8_t>& buffer() const { return buf_; }

 private:
  // Grows the buffer, then copies into the new tail. (A range insert here,
  // inlined into the message encoders, trips GCC 12's -Wstringop-overflow
  // in Release builds.)
  void WriteRaw(const void* data, size_t size) {
    if (size == 0) {
      return;
    }
    const size_t offset = buf_.size();
    buf_.resize(offset + size);
    std::memcpy(buf_.data() + offset, data, size);
  }

  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  bool ReadBool() { return ReadU8() != 0; }
  std::string ReadString();
  std::vector<uint32_t> ReadU32Vector();
  std::vector<int64_t> ReadI64Vector();

  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  void ReadRaw(void* out, size_t size) {
    HAWK_CHECK_LE(pos_ + size, buf_.size()) << "rpc message truncated";
    std::memcpy(out, buf_.data() + pos_, size);
    pos_ += size;
  }

  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace rpc
}  // namespace hawk

#endif  // HAWK_RPC_SERIALIZER_H_
