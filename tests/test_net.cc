// Wire-format contract of the socket shard transport (src/net/wire.h).
//
// Two families of guarantees under test:
//   1. Round trips — every request/response struct of the five
//      ShardTransport message pairs encodes and decodes to a bitwise-
//      equal value (doubles travel as IEEE-754 bit patterns, so NaNs,
//      denormals and negative zero must all survive), across a seeded
//      property loop of randomised messages.
//   2. Rejection — corrupted, truncated, oversized and trailing-garbage
//      frames throw WireError rather than half-decode (a fuzz-style
//      seeded loop flips every byte of real frames).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "net/fault_schedule.h"
#include "net/wire.h"

namespace kspr {
namespace net {
namespace {

Vec RandomVec(Rng& rng, int dim) {
  Vec v(dim);
  for (int i = 0; i < dim; ++i) v.v[i] = rng.Uniform(-1e6, 1e6);
  return v;
}

bool BitwiseEqual(const Vec& a, const Vec& b) {
  if (a.dim != b.dim) return false;
  return std::memcmp(a.v.data(), b.v.data(), sizeof(a.v)) == 0;
}

bool BitwiseEqual(const Candidate& a, const Candidate& b) {
  return a.global_id == b.global_id && BitwiseEqual(a.value, b.value);
}

std::vector<Candidate> RandomCandidates(Rng& rng, int dim, size_t max_count) {
  std::vector<Candidate> out(rng.UniformInt(max_count + 1));
  for (Candidate& c : out) {
    c.global_id = static_cast<RecordId>(rng.UniformInt(1 << 20));
    c.value = RandomVec(rng, dim);
  }
  return out;
}

std::vector<Vec> RandomVecs(Rng& rng, int dim, size_t max_count) {
  std::vector<Vec> out(rng.UniformInt(max_count + 1));
  for (Vec& v : out) v = RandomVec(rng, dim);
  return out;
}

TEST(FrameTest, HeaderRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame =
      EncodeFrame(MessageType::kInfoRequest, 77, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  const FrameHeader header = DecodeFrameHeader(frame.data());
  EXPECT_EQ(header.type, MessageType::kInfoRequest);
  EXPECT_EQ(header.seq, 77u);
  EXPECT_EQ(header.payload_size, payload.size());
  VerifyPayload(header, frame.data() + kFrameHeaderSize);  // no throw
}

TEST(FrameTest, RejectsBadMagicVersionTypeAndSize) {
  std::vector<uint8_t> frame = EncodeFrame(MessageType::kInfoRequest, 1, {});
  {
    std::vector<uint8_t> bad = frame;
    bad[0] ^= 0xFF;  // magic
    EXPECT_THROW(DecodeFrameHeader(bad.data()), WireError);
  }
  {
    std::vector<uint8_t> bad = frame;
    bad[4] = 0x7F;  // version
    EXPECT_THROW(DecodeFrameHeader(bad.data()), WireError);
  }
  {
    std::vector<uint8_t> bad = frame;
    bad[6] = 0xEE;  // unknown message type
    bad[7] = 0xEE;
    EXPECT_THROW(DecodeFrameHeader(bad.data()), WireError);
  }
  {
    std::vector<uint8_t> bad = frame;
    // Declared payload size beyond kMaxFramePayload.
    const uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(bad.data() + 16, &huge, sizeof(huge));
    EXPECT_THROW(DecodeFrameHeader(bad.data()), WireError);
  }
}

TEST(FrameTest, RejectsOversizedEncode) {
  // Encoding refuses to build an illegal frame in the first place.
  std::vector<uint8_t> payload(kMaxFramePayload + 1);
  EXPECT_THROW(EncodeFrame(MessageType::kError, 0, payload), WireError);
}

// Every byte of the payload is covered by the checksum: flipping any one
// must be detected. Fuzz-style: real message, every position, seeded
// content.
TEST(FrameTest, ChecksumCatchesEveryPayloadByteFlip) {
  Rng rng(2024);
  CandidateResponse msg;
  msg.shard_version = 41;
  msg.from_cache = true;
  msg.candidates = RandomCandidates(rng, 4, 8);
  const std::vector<uint8_t> payload = Encode(msg);
  ASSERT_FALSE(payload.empty());
  const std::vector<uint8_t> frame =
      EncodeFrame(MessageType::kCandidatesResponse, 9, payload);
  const FrameHeader header = DecodeFrameHeader(frame.data());
  for (size_t i = 0; i < payload.size(); ++i) {
    std::vector<uint8_t> corrupted(frame.begin() + kFrameHeaderSize,
                                   frame.end());
    corrupted[i] ^= 0x01;
    EXPECT_THROW(VerifyPayload(header, corrupted.data()), WireError)
        << "flip at payload byte " << i << " undetected";
  }
}

TEST(RoundTripTest, CandidateRequest) {
  for (int k : {0, 1, 7, 1 << 20}) {
    const std::vector<uint8_t> bytes = Encode(CandidateRequest{k});
    EXPECT_EQ(DecodeCandidateRequest(bytes.data(), bytes.size()).k, k);
  }
}

TEST(RoundTripTest, CandidateResponseProperty) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    CandidateResponse msg;
    msg.shard_version = rng.Next();
    msg.from_cache = rng.UniformInt(2) == 1;
    msg.candidates = RandomCandidates(rng, 1 + iter % kMaxDim, 20);
    const std::vector<uint8_t> bytes = Encode(msg);
    const CandidateResponse got =
        DecodeCandidateResponse(bytes.data(), bytes.size());
    EXPECT_EQ(got.shard_version, msg.shard_version);
    EXPECT_EQ(got.from_cache, msg.from_cache);
    ASSERT_EQ(got.candidates.size(), msg.candidates.size());
    for (size_t i = 0; i < got.candidates.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(got.candidates[i], msg.candidates[i]));
    }
  }
}

TEST(RoundTripTest, SpecialDoublesSurviveBitwise) {
  CandidateResponse msg;
  Candidate c;
  c.global_id = 3;
  c.value = Vec(4);
  c.value.v[0] = -0.0;
  c.value.v[1] = std::numeric_limits<double>::denorm_min();
  c.value.v[2] = std::numeric_limits<double>::infinity();
  c.value.v[3] = std::nan("");
  msg.candidates.push_back(c);
  const std::vector<uint8_t> bytes = Encode(msg);
  const CandidateResponse got =
      DecodeCandidateResponse(bytes.data(), bytes.size());
  ASSERT_EQ(got.candidates.size(), 1u);
  // memcmp, not ==: NaN payloads and signed zero must survive exactly.
  EXPECT_TRUE(BitwiseEqual(got.candidates[0].value, c.value));
}

TEST(RoundTripTest, ShardUpdateRequestProperty) {
  Rng rng(13);
  for (int iter = 0; iter < 50; ++iter) {
    ShardUpdateRequest msg;
    msg.batch_seq = rng.Next();
    const int dim = 1 + static_cast<int>(rng.UniformInt(kMaxDim));
    const size_t inserts = rng.UniformInt(10);
    for (size_t i = 0; i < inserts; ++i) {
      msg.inserts.push_back(
          {static_cast<RecordId>(rng.UniformInt(1 << 20)),
           RandomVec(rng, dim)});
    }
    const size_t deletes = rng.UniformInt(10);
    for (size_t i = 0; i < deletes; ++i) {
      msg.delete_global_ids.push_back(
          static_cast<RecordId>(rng.UniformInt(1 << 20)));
    }
    const size_t ks = rng.UniformInt(5);
    for (size_t i = 0; i < ks; ++i) {
      msg.skyband_ks.push_back(1 + static_cast<int>(rng.UniformInt(16)));
    }
    const std::vector<uint8_t> bytes = Encode(msg);
    const ShardUpdateRequest got =
        DecodeShardUpdateRequest(bytes.data(), bytes.size());
    EXPECT_EQ(got.batch_seq, msg.batch_seq);
    ASSERT_EQ(got.inserts.size(), msg.inserts.size());
    for (size_t i = 0; i < got.inserts.size(); ++i) {
      EXPECT_EQ(got.inserts[i].global_id, msg.inserts[i].global_id);
      EXPECT_TRUE(BitwiseEqual(got.inserts[i].value, msg.inserts[i].value));
    }
    EXPECT_EQ(got.delete_global_ids, msg.delete_global_ids);
    EXPECT_EQ(got.skyband_ks, msg.skyband_ks);
  }
}

TEST(RoundTripTest, ShardUpdateResponseProperty) {
  Rng rng(17);
  for (int iter = 0; iter < 50; ++iter) {
    ShardUpdateResponse msg;
    msg.shard_version = rng.Next();
    msg.inserts_applied = rng.UniformInt(100);
    msg.deletes_applied = rng.UniformInt(100);
    const size_t changes = rng.UniformInt(4);
    // Fixed fields, then per change: k + count + per value a dim byte and
    // its doubles. No record id travels with a changed value.
    size_t expected_size = 8 + 8 + 8 + 4;
    for (size_t i = 0; i < changes; ++i) {
      SkybandChange change;
      change.k = 1 + static_cast<int>(rng.UniformInt(16));
      change.changed = RandomVecs(rng, 3, 6);
      expected_size += 4 + 4 + change.changed.size() * (1 + 3 * 8);
      msg.skyband_changes.push_back(std::move(change));
    }
    const std::vector<uint8_t> bytes = Encode(msg);
    EXPECT_EQ(bytes.size(), expected_size);
    const ShardUpdateResponse got =
        DecodeShardUpdateResponse(bytes.data(), bytes.size());
    EXPECT_EQ(got.shard_version, msg.shard_version);
    EXPECT_EQ(got.inserts_applied, msg.inserts_applied);
    EXPECT_EQ(got.deletes_applied, msg.deletes_applied);
    ASSERT_EQ(got.skyband_changes.size(), msg.skyband_changes.size());
    for (size_t i = 0; i < got.skyband_changes.size(); ++i) {
      EXPECT_EQ(got.skyband_changes[i].k, msg.skyband_changes[i].k);
      ASSERT_EQ(got.skyband_changes[i].changed.size(),
                msg.skyband_changes[i].changed.size());
      for (size_t j = 0; j < got.skyband_changes[i].changed.size(); ++j) {
        EXPECT_TRUE(BitwiseEqual(got.skyband_changes[i].changed[j],
                                 msg.skyband_changes[i].changed[j]));
      }
    }
  }
}

TEST(RoundTripTest, GetRecordAndResponse) {
  const std::vector<uint8_t> req = EncodeGetRecordRequest(12345);
  EXPECT_EQ(DecodeGetRecordRequest(req.data(), req.size()), 12345);

  Rng rng(23);
  for (int iter = 0; iter < 20; ++iter) {
    RecordResponse msg;
    msg.known = rng.UniformInt(2) == 1;
    msg.live = msg.known && rng.UniformInt(2) == 1;
    msg.value = RandomVec(rng, 1 + iter % kMaxDim);
    const std::vector<uint8_t> bytes = Encode(msg);
    const RecordResponse got = DecodeRecordResponse(bytes.data(), bytes.size());
    EXPECT_EQ(got.known, msg.known);
    EXPECT_EQ(got.live, msg.live);
    EXPECT_TRUE(BitwiseEqual(got.value, msg.value));
  }
}

TEST(RoundTripTest, InfoPair) {
  const std::vector<uint8_t> req = EncodeInfoRequest();
  EXPECT_TRUE(req.empty());
  DecodeInfoRequest(req.data(), req.size());  // no throw

  ShardInfo msg;
  msg.shard_version = 99;
  msg.records_total = 1000;
  msg.records_live = 900;
  const std::vector<uint8_t> bytes = Encode(msg);
  const ShardInfo got = DecodeShardInfo(bytes.data(), bytes.size());
  EXPECT_EQ(got.shard_version, msg.shard_version);
  EXPECT_EQ(got.records_total, msg.records_total);
  EXPECT_EQ(got.records_live, msg.records_live);
  EXPECT_TRUE(got.reachable);  // client-side field, defaults true
}

TEST(RoundTripTest, SaveSnapshotPairAndError) {
  const std::string path = "/tmp/some/snapshot.file";
  const std::vector<uint8_t> req = EncodeSaveSnapshotRequest(path);
  EXPECT_EQ(DecodeSaveSnapshotRequest(req.data(), req.size()), path);

  SaveSnapshotResponse resp;
  resp.ok = false;
  resp.error = "disk full";
  const std::vector<uint8_t> bytes = Encode(resp);
  const SaveSnapshotResponse got =
      DecodeSaveSnapshotResponse(bytes.data(), bytes.size());
  EXPECT_EQ(got.ok, resp.ok);
  EXPECT_EQ(got.error, resp.error);

  ErrorBody err{"worker exploded"};
  const std::vector<uint8_t> err_bytes = Encode(err);
  EXPECT_EQ(DecodeErrorBody(err_bytes.data(), err_bytes.size()).message,
            err.message);
}

// Truncation at EVERY prefix length of a structured payload must throw,
// never read out of bounds or half-succeed.
TEST(RejectionTest, TruncatedPayloadsThrow) {
  Rng rng(29);
  ShardUpdateResponse msg;
  msg.shard_version = 5;
  SkybandChange change;
  change.k = 2;
  change.changed = RandomVecs(rng, 5, 6);
  change.changed.push_back(RandomVec(rng, 5));  // never empty
  msg.skyband_changes.push_back(change);
  const std::vector<uint8_t> bytes = Encode(msg);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(DecodeShardUpdateResponse(bytes.data(), len), WireError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(RejectionTest, TrailingBytesThrow) {
  std::vector<uint8_t> bytes = Encode(CandidateRequest{3});
  bytes.push_back(0);
  EXPECT_THROW(DecodeCandidateRequest(bytes.data(), bytes.size()), WireError);
}

TEST(RejectionTest, AbsurdCountsThrow) {
  // A count prefix promising more elements than the payload could hold is
  // rejected before any allocation.
  WireWriter w;
  w.U64(1);            // shard_version
  w.U8(0);             // from_cache
  w.U32(0xFFFFFFFFu);  // candidate count
  const std::vector<uint8_t> bytes = w.bytes();
  EXPECT_THROW(DecodeCandidateResponse(bytes.data(), bytes.size()), WireError);
}

TEST(RejectionTest, BadVecDimThrows) {
  WireWriter w;
  w.U8(0);              // known
  w.U8(0);              // live
  w.U8(kMaxDim + 1);    // dim out of range
  const std::vector<uint8_t> bytes = w.bytes();
  EXPECT_THROW(DecodeRecordResponse(bytes.data(), bytes.size()), WireError);
}

// Fuzz-style: flip every byte of a valid structured payload and decode.
// Any outcome is acceptable EXCEPT a crash/UB — most flips throw, some
// produce a different valid message; the loop asserts decode never reads
// out of bounds (ASan enforces) and never loops forever.
TEST(RejectionTest, SeededByteFlipFuzz) {
  Rng rng(31);
  ShardUpdateRequest msg;
  msg.batch_seq = 9;
  for (int i = 0; i < 4; ++i) {
    msg.inserts.push_back({i, RandomVec(rng, 3)});
  }
  msg.delete_global_ids = {7, 8};
  msg.skyband_ks = {1, 2, 4};
  const std::vector<uint8_t> bytes = Encode(msg);
  size_t throws = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> fuzzed = bytes;
      fuzzed[i] ^= flip;
      try {
        (void)DecodeShardUpdateRequest(fuzzed.data(), fuzzed.size());
      } catch (const WireError&) {
        ++throws;
      }
    }
  }
  // Sanity: the decoder is actually validating, not accepting everything.
  EXPECT_GT(throws, 0u);
}

TEST(FaultScheduleTest, ParsesFullGrammar) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse(
      "drop@7,delay@3:10,dup@11,corrupt@5#0,disconnect@13", &schedule, &error))
      << error;
  ASSERT_EQ(schedule.rules().size(), 5u);
  EXPECT_EQ(schedule.rules()[0].kind, FaultKind::kDrop);
  EXPECT_EQ(schedule.rules()[0].period, 7u);
  EXPECT_EQ(schedule.rules()[0].shard, -1);
  EXPECT_EQ(schedule.rules()[1].kind, FaultKind::kDelay);
  EXPECT_EQ(schedule.rules()[1].delay_ms, 10);
  EXPECT_EQ(schedule.rules()[3].kind, FaultKind::kCorrupt);
  EXPECT_EQ(schedule.rules()[3].shard, 0);

  // Empty spec = empty schedule.
  ASSERT_TRUE(FaultSchedule::Parse("", &schedule, &error));
  EXPECT_TRUE(schedule.empty());
}

TEST(FaultScheduleTest, RejectsMalformedSpecs) {
  FaultSchedule schedule;
  std::string error;
  for (const char* bad :
       {"drop", "drop@", "drop@0", "nuke@3", "drop@3:5", "delay@3:999999",
        "drop@x", "drop@3#abc", ",", "drop@3,,dup@2"}) {
    EXPECT_FALSE(FaultSchedule::Parse(bad, &schedule, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultScheduleTest, DeterministicPeriodicFiring) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("drop@3", &schedule, &error));
  std::vector<FaultKind> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(schedule.Next(0).kind);
  const std::vector<FaultKind> expected = {
      FaultKind::kNone, FaultKind::kNone, FaultKind::kDrop,
      FaultKind::kNone, FaultKind::kNone, FaultKind::kDrop,
      FaultKind::kNone, FaultKind::kNone, FaultKind::kDrop};
  EXPECT_EQ(fired, expected);
  // Per-shard counters are independent: shard 1 starts fresh.
  EXPECT_EQ(schedule.Next(1).kind, FaultKind::kNone);
}

TEST(FaultScheduleTest, ShardScopedRuleOnlyFiresThere) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("corrupt@2#1", &schedule, &error));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(schedule.Next(0).kind, FaultKind::kNone);
  }
  EXPECT_EQ(schedule.Next(1).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(1).kind, FaultKind::kCorrupt);
}

// Regression: Parse used to install rules/counters into `out` without the
// schedule's mutex, so a Next() racing an in-place re-parse could observe
// rules and counters mid-swap. Parse now installs under the lock; this
// hammers the pair under TSan and checks only sane actions come out.
TEST(FaultScheduleTest, ReparseInPlaceRacesNext) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("drop@3,delay@5:2", &schedule, &error));

  std::atomic<bool> stop{false};
  std::atomic<bool> bad_action{false};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const FaultAction action = schedule.Next(0);
      switch (action.kind) {
        case FaultKind::kNone:
        case FaultKind::kDrop:
        case FaultKind::kDelay:
        case FaultKind::kDuplicate:
        case FaultKind::kCorrupt:
        case FaultKind::kDisconnect:
          break;
        default:
          bad_action.store(true);
      }
    }
  });

  const char* specs[] = {"dup@2", "corrupt@4#0", "drop@3,delay@5:2",
                         "disconnect@7"};
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(FaultSchedule::Parse(specs[round % 4], &schedule, &error))
        << error;
  }
  stop.store(true);
  consumer.join();
  EXPECT_FALSE(bad_action.load());

  // The last installed spec is fully in force: counters restarted, so the
  // deterministic firing pattern starts from zero.
  ASSERT_TRUE(FaultSchedule::Parse("drop@3", &schedule, &error));
  EXPECT_EQ(schedule.Next(0).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(0).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(0).kind, FaultKind::kDrop);
}

}  // namespace
}  // namespace net
}  // namespace kspr
