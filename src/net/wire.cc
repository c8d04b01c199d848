#include "net/wire.h"

namespace kspr {
namespace net {

const char* ToString(MessageType type) {
  switch (type) {
    case MessageType::kCandidatesRequest:
      return "candidates-request";
    case MessageType::kCandidatesResponse:
      return "candidates-response";
    case MessageType::kApplyDeltaRequest:
      return "apply-delta-request";
    case MessageType::kApplyDeltaResponse:
      return "apply-delta-response";
    case MessageType::kGetRecordRequest:
      return "get-record-request";
    case MessageType::kGetRecordResponse:
      return "get-record-response";
    case MessageType::kInfoRequest:
      return "info-request";
    case MessageType::kInfoResponse:
      return "info-response";
    case MessageType::kSaveSnapshotRequest:
      return "save-snapshot-request";
    case MessageType::kSaveSnapshotResponse:
      return "save-snapshot-response";
    case MessageType::kError:
      return "error";
  }
  return "?";
}

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

void PutLe16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void PutLe32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint16_t GetLe16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetLe32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

bool KnownType(uint16_t raw) {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kCandidatesRequest:
    case MessageType::kCandidatesResponse:
    case MessageType::kApplyDeltaRequest:
    case MessageType::kApplyDeltaResponse:
    case MessageType::kGetRecordRequest:
    case MessageType::kGetRecordResponse:
    case MessageType::kInfoRequest:
    case MessageType::kInfoResponse:
    case MessageType::kSaveSnapshotRequest:
    case MessageType::kSaveSnapshotResponse:
    case MessageType::kError:
      return true;
  }
  return false;
}

}  // namespace

std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("encode: payload of " + std::to_string(payload.size()) +
                    " bytes exceeds kMaxFramePayload");
  }
  std::vector<uint8_t> frame(kFrameHeaderSize + payload.size());
  PutLe32(frame.data(), kWireMagic);
  PutLe16(frame.data() + 4, kWireVersion);
  PutLe16(frame.data() + 6, static_cast<uint16_t>(type));
  PutLe64(frame.data() + 8, seq);
  PutLe32(frame.data() + 16, static_cast<uint32_t>(payload.size()));
  PutLe64(frame.data() + 20, Fnv1a64(payload.data(), payload.size()));
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderSize, payload.data(),
                payload.size());
  }
  return frame;
}

FrameHeader DecodeFrameHeader(const uint8_t* buf) {
  const uint32_t magic = GetLe32(buf);
  if (magic != kWireMagic) {
    throw WireError("bad frame magic 0x" + std::to_string(magic));
  }
  const uint16_t version = GetLe16(buf + 4);
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version));
  }
  const uint16_t raw_type = GetLe16(buf + 6);
  if (!KnownType(raw_type)) {
    throw WireError("unknown message type " + std::to_string(raw_type));
  }
  FrameHeader header;
  header.type = static_cast<MessageType>(raw_type);
  header.seq = GetLe64(buf + 8);
  header.payload_size = GetLe32(buf + 16);
  if (header.payload_size > kMaxFramePayload) {
    throw WireError("declared payload of " +
                    std::to_string(header.payload_size) +
                    " bytes exceeds kMaxFramePayload");
  }
  header.checksum = GetLe64(buf + 20);
  return header;
}

void VerifyPayload(const FrameHeader& header, const uint8_t* payload) {
  const uint64_t actual = Fnv1a64(payload, header.payload_size);
  if (actual != header.checksum) {
    throw WireError(std::string("payload checksum mismatch on ") +
                    ToString(header.type) + " frame");
  }
}

// ---------------------------------------------------------------------------
// WireWriter / WireReader
// ---------------------------------------------------------------------------

void WireWriter::Str(const std::string& s) {
  if (s.size() > kMaxFramePayload) {
    throw WireError("string field too large to encode");
  }
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::VecField(const Vec& v) {
  U8(static_cast<uint8_t>(v.dim));
  for (int i = 0; i < v.dim; ++i) F64(v.v[i]);
}

uint8_t WireReader::U8() {
  if (pos_ >= size_) throw WireError("payload truncated");
  return data_[pos_++];
}

uint64_t WireReader::ReadLe(size_t n) {
  if (size_ - pos_ < n) throw WireError("payload truncated");
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += n;
  return v;
}

std::string WireReader::Str() {
  const uint32_t len = U32();
  if (remaining() < len) throw WireError("string field truncated");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Vec WireReader::VecField() {
  const uint8_t dim = U8();
  if (dim > kMaxDim) {
    throw WireError("vector dimension " + std::to_string(dim) +
                    " exceeds kMaxDim");
  }
  Vec v(dim);
  for (int i = 0; i < dim; ++i) v.v[i] = F64();
  return v;
}

uint32_t WireReader::Count(size_t min_elem_size) {
  const uint32_t n = U32();
  if (min_elem_size > 0 && remaining() / min_elem_size < n) {
    throw WireError("repeated section count " + std::to_string(n) +
                    " cannot fit in remaining payload");
  }
  return n;
}

void WireReader::ExpectEnd() const {
  if (pos_ != size_) {
    throw WireError(std::to_string(size_ - pos_) +
                    " trailing bytes after payload");
  }
}

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------

namespace {

// Encoded element sizes used as Count() lower bounds. A Candidate is an
// I32 id plus a Vec (1 dim byte + dim doubles, dim >= 0).
constexpr size_t kMinCandidateSize = 4 + 1;
constexpr size_t kMinInsertSize = 4 + 1;
constexpr size_t kMinSkybandChangeSize = 4 + 4;  // k + count
constexpr size_t kMinVecSize = 1;                 // dim byte, dim >= 0

void EncodeCandidate(WireWriter& w, const Candidate& c) {
  w.I32(c.global_id);
  w.VecField(c.value);
}

Candidate DecodeCandidate(WireReader& r) {
  Candidate c;
  c.global_id = r.I32();
  c.value = r.VecField();
  return c;
}

}  // namespace

std::vector<uint8_t> Encode(const CandidateRequest& m) {
  WireWriter w;
  w.I32(m.k);
  return w.Take();
}

CandidateRequest DecodeCandidateRequest(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  CandidateRequest m;
  m.k = r.I32();
  r.ExpectEnd();
  return m;
}

std::vector<uint8_t> Encode(const CandidateResponse& m) {
  WireWriter w;
  w.U64(m.shard_version);
  w.U8(m.from_cache ? 1 : 0);
  w.U32(static_cast<uint32_t>(m.candidates.size()));
  for (const Candidate& c : m.candidates) EncodeCandidate(w, c);
  return w.Take();
}

CandidateResponse DecodeCandidateResponse(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  CandidateResponse m;
  m.shard_version = r.U64();
  m.from_cache = r.U8() != 0;
  const uint32_t n = r.Count(kMinCandidateSize);
  m.candidates.reserve(n);
  for (uint32_t i = 0; i < n; ++i) m.candidates.push_back(DecodeCandidate(r));
  r.ExpectEnd();
  return m;
}

std::vector<uint8_t> Encode(const ShardUpdateRequest& m) {
  WireWriter w;
  w.U64(m.batch_seq);
  w.U32(static_cast<uint32_t>(m.inserts.size()));
  for (const ShardInsert& ins : m.inserts) {
    w.I32(ins.global_id);
    w.VecField(ins.value);
  }
  w.U32(static_cast<uint32_t>(m.delete_global_ids.size()));
  for (RecordId id : m.delete_global_ids) w.I32(id);
  w.U32(static_cast<uint32_t>(m.skyband_ks.size()));
  for (int k : m.skyband_ks) w.I32(k);
  return w.Take();
}

ShardUpdateRequest DecodeShardUpdateRequest(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  ShardUpdateRequest m;
  m.batch_seq = r.U64();
  const uint32_t inserts = r.Count(kMinInsertSize);
  m.inserts.reserve(inserts);
  for (uint32_t i = 0; i < inserts; ++i) {
    ShardInsert ins;
    ins.global_id = r.I32();
    ins.value = r.VecField();
    m.inserts.push_back(ins);
  }
  const uint32_t deletes = r.Count(4);
  m.delete_global_ids.reserve(deletes);
  for (uint32_t i = 0; i < deletes; ++i) m.delete_global_ids.push_back(r.I32());
  const uint32_t ks = r.Count(4);
  m.skyband_ks.reserve(ks);
  for (uint32_t i = 0; i < ks; ++i) m.skyband_ks.push_back(r.I32());
  r.ExpectEnd();
  return m;
}

std::vector<uint8_t> Encode(const ShardUpdateResponse& m) {
  WireWriter w;
  w.U64(m.shard_version);
  w.U64(static_cast<uint64_t>(m.inserts_applied));
  w.U64(static_cast<uint64_t>(m.deletes_applied));
  w.U32(static_cast<uint32_t>(m.skyband_changes.size()));
  for (const SkybandChange& sc : m.skyband_changes) {
    w.I32(sc.k);
    w.U32(static_cast<uint32_t>(sc.changed.size()));
    for (const Vec& v : sc.changed) w.VecField(v);
  }
  return w.Take();
}

ShardUpdateResponse DecodeShardUpdateResponse(const uint8_t* data,
                                              size_t size) {
  WireReader r(data, size);
  ShardUpdateResponse m;
  m.shard_version = r.U64();
  m.inserts_applied = static_cast<size_t>(r.U64());
  m.deletes_applied = static_cast<size_t>(r.U64());
  const uint32_t changes = r.Count(kMinSkybandChangeSize);
  m.skyband_changes.reserve(changes);
  for (uint32_t i = 0; i < changes; ++i) {
    SkybandChange sc;
    sc.k = r.I32();
    const uint32_t n = r.Count(kMinVecSize);
    sc.changed.reserve(n);
    for (uint32_t j = 0; j < n; ++j) sc.changed.push_back(r.VecField());
    m.skyband_changes.push_back(std::move(sc));
  }
  r.ExpectEnd();
  return m;
}

std::vector<uint8_t> EncodeGetRecordRequest(RecordId global_id) {
  WireWriter w;
  w.I32(global_id);
  return w.Take();
}

RecordId DecodeGetRecordRequest(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  const RecordId id = r.I32();
  r.ExpectEnd();
  return id;
}

std::vector<uint8_t> Encode(const RecordResponse& m) {
  WireWriter w;
  w.U8(m.known ? 1 : 0);
  w.U8(m.live ? 1 : 0);
  w.VecField(m.value);
  return w.Take();
}

RecordResponse DecodeRecordResponse(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  RecordResponse m;
  m.known = r.U8() != 0;
  m.live = r.U8() != 0;
  m.value = r.VecField();
  r.ExpectEnd();
  return m;
}

std::vector<uint8_t> EncodeInfoRequest() { return {}; }

void DecodeInfoRequest(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  r.ExpectEnd();
}

std::vector<uint8_t> Encode(const ShardInfo& m) {
  WireWriter w;
  w.U64(m.shard_version);
  w.I32(m.records_total);
  w.I32(m.records_live);
  return w.Take();
}

ShardInfo DecodeShardInfo(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  ShardInfo m;
  m.shard_version = r.U64();
  m.records_total = r.I32();
  m.records_live = r.I32();
  r.ExpectEnd();
  return m;
}

std::vector<uint8_t> EncodeSaveSnapshotRequest(const std::string& path) {
  WireWriter w;
  w.Str(path);
  return w.Take();
}

std::string DecodeSaveSnapshotRequest(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  std::string path = r.Str();
  r.ExpectEnd();
  return path;
}

std::vector<uint8_t> Encode(const SaveSnapshotResponse& m) {
  WireWriter w;
  w.U8(m.ok ? 1 : 0);
  w.Str(m.error);
  return w.Take();
}

SaveSnapshotResponse DecodeSaveSnapshotResponse(const uint8_t* data,
                                                size_t size) {
  WireReader r(data, size);
  SaveSnapshotResponse m;
  m.ok = r.U8() != 0;
  m.error = r.Str();
  r.ExpectEnd();
  return m;
}

std::vector<uint8_t> Encode(const ErrorBody& m) {
  WireWriter w;
  w.Str(m.message);
  return w.Take();
}

ErrorBody DecodeErrorBody(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  ErrorBody m;
  m.message = r.Str();
  r.ExpectEnd();
  return m;
}

}  // namespace net
}  // namespace kspr
