// Wire format of the socket shard transport.
//
// Every request and response of the ShardTransport interface
// (shard/shard_transport.h) travels as one FRAME:
//
//   offset  size  field
//   0       4     magic      0x4B535052 ("RSPK" on the wire, LE "KSPR")
//   4       2     version    kWireVersion — peers reject other versions
//   6       2     type       MessageType of the payload
//   8       8     seq        request sequence number; the response echoes
//                            it, which is how a client matches responses
//                            after retries and discards stale duplicates
//   16      4     payload_size   <= kMaxFramePayload
//   20      8     checksum   FNV-1a 64 over the payload bytes
//   28      ...   payload    message-specific little-endian encoding
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern (memcpy to uint64_t), so values survive the wire BITWISE — the
// sharded tier's bitwise-identity gates hold over real sockets for exactly
// this reason. A frame is rejected (WireError) when the magic, version,
// declared size or checksum does not hold; a rejected frame means the
// stream can no longer be trusted and the connection must be dropped
// (resynchronising inside a byte stream is not attempted).
//
// The encoding is deliberately non-extensible per version: decoders check
// that a payload is consumed EXACTLY, so truncated and padded payloads are
// both rejected rather than half-read.

#ifndef KSPR_NET_WIRE_H_
#define KSPR_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/vec.h"
#include "shard/shard_transport.h"

namespace kspr {
namespace net {

inline constexpr uint32_t kWireMagic = 0x4B535052u;  // "KSPR" (LE bytes RSPK)
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderSize = 28;
/// Upper bound on a payload: a candidate set of ~1.8M records. Anything
/// larger is a protocol error, not a legitimate message.
inline constexpr uint32_t kMaxFramePayload = 128u << 20;

enum class MessageType : uint16_t {
  kCandidatesRequest = 1,
  kCandidatesResponse = 2,
  kApplyDeltaRequest = 3,
  kApplyDeltaResponse = 4,
  kGetRecordRequest = 5,
  kGetRecordResponse = 6,
  kInfoRequest = 7,
  kInfoResponse = 8,
  kSaveSnapshotRequest = 9,
  kSaveSnapshotResponse = 10,
  /// Server-side handler failure; payload is an ErrorBody.
  kError = 100,
};

const char* ToString(MessageType type);

/// Thrown on any malformed frame or payload. The connection that produced
/// it must be considered poisoned and closed.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// FNV-1a 64-bit over a byte range (the storage layer uses the same family
/// for page checksums; this one is the canonical single-stream variant).
uint64_t Fnv1a64(const uint8_t* data, size_t size);

struct FrameHeader {
  MessageType type = MessageType::kError;
  uint64_t seq = 0;
  uint32_t payload_size = 0;
  uint64_t checksum = 0;
};

/// Serialises header + payload into one contiguous frame.
std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload);

/// Parses and validates the fixed-size header (`buf` must hold
/// kFrameHeaderSize bytes). Throws WireError on bad magic / version /
/// oversized payload declaration.
FrameHeader DecodeFrameHeader(const uint8_t* buf);

/// Validates `header.checksum` against the actual payload bytes.
void VerifyPayload(const FrameHeader& header, const uint8_t* payload);

// ---------------------------------------------------------------------------
// Payload building blocks
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I32(int32_t v) { AppendLe(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern — bitwise-exact round trip.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLe(bits);
  }
  void Str(const std::string& s);
  void VecField(const Vec& v);

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian decoder; throws WireError on overrun and
/// on any structurally invalid field (dim out of range, absurd counts).
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8();
  uint16_t U16() { return static_cast<uint16_t>(ReadLe(2)); }
  uint32_t U32() { return static_cast<uint32_t>(ReadLe(4)); }
  uint64_t U64() { return ReadLe(8); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str();
  Vec VecField();

  /// A count prefix for a repeated section; rejects values that could not
  /// possibly fit in the remaining payload (cheap DoS/corruption guard:
  /// each element of a repeated section encodes to >= `min_elem_size`
  /// bytes).
  uint32_t Count(size_t min_elem_size);

  size_t remaining() const { return size_ - pos_; }
  /// Decoders call this last: trailing bytes are a protocol error.
  void ExpectEnd() const;

 private:
  uint64_t ReadLe(size_t n);
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Message payload encodings (one pair per ShardTransport method)
// ---------------------------------------------------------------------------

struct ErrorBody {
  std::string message;
};

std::vector<uint8_t> Encode(const CandidateRequest& m);
std::vector<uint8_t> Encode(const CandidateResponse& m);
std::vector<uint8_t> Encode(const ShardUpdateRequest& m);
std::vector<uint8_t> Encode(const ShardUpdateResponse& m);
std::vector<uint8_t> EncodeGetRecordRequest(RecordId global_id);
std::vector<uint8_t> Encode(const RecordResponse& m);
std::vector<uint8_t> EncodeInfoRequest();
std::vector<uint8_t> Encode(const ShardInfo& m);
std::vector<uint8_t> EncodeSaveSnapshotRequest(const std::string& path);
struct SaveSnapshotResponse {
  bool ok = false;
  std::string error;
};
std::vector<uint8_t> Encode(const SaveSnapshotResponse& m);
std::vector<uint8_t> Encode(const ErrorBody& m);

CandidateRequest DecodeCandidateRequest(const uint8_t* data, size_t size);
CandidateResponse DecodeCandidateResponse(const uint8_t* data, size_t size);
ShardUpdateRequest DecodeShardUpdateRequest(const uint8_t* data, size_t size);
ShardUpdateResponse DecodeShardUpdateResponse(const uint8_t* data,
                                              size_t size);
RecordId DecodeGetRecordRequest(const uint8_t* data, size_t size);
RecordResponse DecodeRecordResponse(const uint8_t* data, size_t size);
void DecodeInfoRequest(const uint8_t* data, size_t size);
ShardInfo DecodeShardInfo(const uint8_t* data, size_t size);
std::string DecodeSaveSnapshotRequest(const uint8_t* data, size_t size);
SaveSnapshotResponse DecodeSaveSnapshotResponse(const uint8_t* data,
                                                size_t size);
ErrorBody DecodeErrorBody(const uint8_t* data, size_t size);

}  // namespace net
}  // namespace kspr

#endif  // KSPR_NET_WIRE_H_
