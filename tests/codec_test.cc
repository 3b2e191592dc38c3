// Tests for the wire codec: primitive round trips, message round trips,
// and robustness against truncation/corruption.

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/common/rng.h"
#include "src/func/builder.h"
#include "src/lvi/codec.h"
#include "src/lvi/lvi_server.h"

namespace radical {
namespace {

// --- Primitives ----------------------------------------------------------------

TEST(WireCodecTest, VarintRoundTrip) {
  WireBuffer buffer;
  WireWriter w(&buffer);
  const std::vector<uint64_t> cases = {0, 1, 127, 128, 300, 16384, 1ull << 32, ~0ull};
  for (const uint64_t v : cases) {
    w.WriteVarint(v);
  }
  WireReader r(buffer);
  for (const uint64_t v : cases) {
    EXPECT_EQ(r.ReadVarint(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireCodecTest, SignedZigzagRoundTrip) {
  WireBuffer buffer;
  WireWriter w(&buffer);
  const std::vector<int64_t> cases = {0, -1, 1, -64, 64, kMissingVersion, INT64_MIN, INT64_MAX};
  for (const int64_t v : cases) {
    w.WriteSigned(v);
  }
  WireReader r(buffer);
  for (const int64_t v : cases) {
    EXPECT_EQ(r.ReadSigned(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireCodecTest, SmallMagnitudesStaySmall) {
  WireBuffer buffer;
  WireWriter w(&buffer);
  w.WriteSigned(-1);  // Zigzag: one byte.
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(WireCodecTest, StringRoundTripIncludingEmbeddedNul) {
  WireBuffer buffer;
  WireWriter w(&buffer);
  const std::string s("key\0with\0nuls", 13);
  w.WriteString(s);
  w.WriteString("");
  WireReader r(buffer);
  EXPECT_EQ(r.ReadString(), s);
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireCodecTest, ValueRoundTripAllKinds) {
  const Value nested(ValueList{
      Value(), Value(static_cast<int64_t>(-42)), Value("text"),
      Value(ValueList{Value("inner"), Value(static_cast<int64_t>(7))})});
  WireBuffer buffer;
  WireWriter w(&buffer);
  w.WriteValue(nested);
  WireReader r(buffer);
  EXPECT_EQ(r.ReadValue(), nested);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireCodecTest, TruncatedInputFailsCleanly) {
  WireBuffer buffer;
  WireWriter w(&buffer);
  w.WriteValue(Value("a longer string payload"));
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    WireBuffer truncated(buffer.begin(), buffer.begin() + static_cast<long>(cut));
    WireReader r(truncated);
    (void)r.ReadValue();
    EXPECT_FALSE(r.AtEnd()) << "cut=" << cut;  // Either error or leftover state.
  }
}

TEST(WireCodecTest, DeepNestingRejected) {
  // 40 nested single-element lists exceed the depth guard.
  WireBuffer buffer;
  WireWriter w(&buffer);
  for (int i = 0; i < 40; ++i) {
    w.WriteByte(3);     // kTagList.
    w.WriteVarint(1);   // One element...
  }
  w.WriteByte(0);  // ...bottoming out at unit.
  WireReader r(buffer);
  (void)r.ReadValue();
  EXPECT_FALSE(r.ok());
}

// --- Messages -------------------------------------------------------------------

LviRequest SampleRequest() {
  LviRequest request;
  request.exec_id = 987654321;
  request.origin = Region::kJP;
  request.function = "social_post";
  request.inputs = {Value("u1"), Value("p1"), Value("hello")};
  request.items = {{"followers:u1", 4, LockMode::kRead},
                   {"post:p1", kMissingVersion, LockMode::kWrite},
                   {"timeline:u2", 9, LockMode::kWrite}};
  return request;
}

TEST(WireCodecTest, LviRequestRoundTrip) {
  const LviRequest request = SampleRequest();
  const WireBuffer buffer = EncodeLviRequest(request);
  const Result<LviRequest> decoded = DecodeLviRequest(buffer);
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->exec_id, request.exec_id);
  EXPECT_EQ(decoded->origin, request.origin);
  EXPECT_EQ(decoded->function, request.function);
  ASSERT_EQ(decoded->inputs.size(), 3u);
  EXPECT_EQ(decoded->inputs[2], Value("hello"));
  ASSERT_EQ(decoded->items.size(), 3u);
  EXPECT_EQ(decoded->items[1].key, "post:p1");
  EXPECT_EQ(decoded->items[1].cached_version, kMissingVersion);
  EXPECT_EQ(decoded->items[1].mode, LockMode::kWrite);
}

TEST(WireCodecTest, ItemModeByteCarriesReadReadWriteAndBlindWrite) {
  LviRequest request = SampleRequest();
  request.items[1].blind = true;  // post:p1, written and never read.
  const WireBuffer buffer = EncodeLviRequest(request);
  const Result<LviRequest> decoded = DecodeLviRequest(buffer);
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  ASSERT_EQ(decoded->items.size(), 3u);
  EXPECT_EQ(decoded->items[0].mode, LockMode::kRead);
  EXPECT_FALSE(decoded->items[0].blind);
  EXPECT_EQ(decoded->items[1].mode, LockMode::kWrite);
  EXPECT_TRUE(decoded->items[1].blind);
  EXPECT_EQ(decoded->items[2].mode, LockMode::kWrite);
  EXPECT_FALSE(decoded->items[2].blind);
  // The mark is a value of the mode byte: it costs nothing.
  EXPECT_EQ(buffer.size(), EncodeLviRequest(SampleRequest()).size());
}

TEST(WireCodecTest, UnknownItemModeByteRejected) {
  LviRequest request;
  request.exec_id = 7;
  request.function = "f";
  request.items = {{"k", 3, LockMode::kRead}};
  const WireBuffer read = EncodeLviRequest(request);
  request.items[0].mode = LockMode::kWrite;
  request.items[0].blind = true;
  const WireBuffer blind = EncodeLviRequest(request);
  // The two encodings differ in the mode byte alone.
  ASSERT_EQ(read.size(), blind.size());
  size_t at = 0;
  while (at < read.size() && read[at] == blind[at]) {
    ++at;
  }
  ASSERT_LT(at, read.size());
  EXPECT_EQ(read[at], 0);
  EXPECT_EQ(blind[at], 2);
  for (const uint8_t mode : {uint8_t{3}, uint8_t{0x80}, uint8_t{0xff}}) {
    WireBuffer corrupted = read;
    corrupted[at] = mode;
    const Result<LviRequest> decoded = DecodeLviRequest(corrupted);
    ASSERT_FALSE(decoded.ok()) << int{mode};
    EXPECT_NE(decoded.message().find("invalid item mode"), std::string::npos)
        << decoded.message();
  }
}

TEST(WireCodecTest, LviResponseRoundTrip) {
  LviResponse response;
  response.exec_id = 55;
  response.validated = false;
  response.backup_result = Value(ValueList{Value("a"), Value("b")});
  response.fresh_items = {{"k1", Value("v1"), 3}, {"k2", Value(static_cast<int64_t>(9)), 1}};
  const Result<LviResponse> decoded = DecodeLviResponse(EncodeLviResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_FALSE(decoded->validated);
  EXPECT_EQ(decoded->backup_result, response.backup_result);
  ASSERT_EQ(decoded->fresh_items.size(), 2u);
  EXPECT_EQ(decoded->fresh_items[0].version, 3);
}

TEST(WireCodecTest, SnapshotReplyRoundTripsOnTheValidationByte) {
  LviResponse snapshot;
  snapshot.exec_id = 56;
  snapshot.snapshot = true;
  snapshot.fresh_items = {{"absent", Value(), kMissingVersion}, {"k", Value("v"), 2}};
  WireScratch scratch;
  const size_t size = scratch.SizeOf(snapshot);
  const Result<LviResponse> decoded = DecodeLviResponse(scratch.buffer());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_FALSE(decoded->validated);
  EXPECT_TRUE(decoded->snapshot);
  EXPECT_EQ(decoded->backup_result, Value());
  ASSERT_EQ(decoded->fresh_items.size(), 2u);
  EXPECT_EQ(decoded->fresh_items[0].key, "absent");
  EXPECT_EQ(decoded->fresh_items[0].version, kMissingVersion);
  EXPECT_EQ(decoded->fresh_items[1].value, Value("v"));
  // The marker is the validation byte's third value: it costs no byte over
  // the same items in a backup reply, and a backup reply decodes unmarked.
  LviResponse backup = snapshot;
  backup.snapshot = false;
  EXPECT_EQ(scratch.SizeOf(backup), size);
  const Result<LviResponse> unmarked = DecodeLviResponse(scratch.buffer());
  ASSERT_TRUE(unmarked.ok()) << unmarked.message();
  EXPECT_FALSE(unmarked->snapshot);
  EXPECT_FALSE(unmarked->validated);
  // A validated reply is never a snapshot.
  LviResponse validated;
  validated.validated = true;
  const Result<LviResponse> ok = DecodeLviResponse(EncodeLviResponse(validated));
  ASSERT_TRUE(ok.ok()) << ok.message();
  EXPECT_TRUE(ok->validated);
  EXPECT_FALSE(ok->snapshot);
}

TEST(WireCodecTest, UnknownValidationByteRejected) {
  LviResponse response;
  response.exec_id = 5;  // One varint byte: the validation byte is at offset 3.
  WireBuffer encoded = EncodeLviResponse(response);
  for (const uint8_t verdict : {uint8_t{3}, uint8_t{0x80}, uint8_t{0xff}}) {
    WireBuffer corrupted = encoded;
    corrupted[3] = verdict;
    const Result<LviResponse> decoded = DecodeLviResponse(corrupted);
    ASSERT_FALSE(decoded.ok()) << int{verdict};
    EXPECT_NE(decoded.message().find("invalid validation byte"), std::string::npos)
        << decoded.message();
  }
}

TEST(WireCodecTest, FollowupRoundTrip) {
  WriteFollowup followup;
  followup.exec_id = 77;
  followup.writes = {{"a", Value("x")}, {"b", Value(static_cast<int64_t>(2))}};
  const Result<WriteFollowup> decoded = DecodeWriteFollowup(EncodeWriteFollowup(followup));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->exec_id, 77u);
  ASSERT_EQ(decoded->writes.size(), 2u);
  EXPECT_EQ(decoded->writes[1].value, Value(static_cast<int64_t>(2)));
  EXPECT_TRUE(decoded->result.is_unit());
}

TEST(WireCodecTest, FollowupCarriesItsResultInATrailingGroup) {
  WriteFollowup followup;
  followup.exec_id = 77;
  followup.writes = {{"k", Value("v1")}};
  // version + tag + exec id + write count, then the write: key (length + 1
  // byte), value (tag + length + 2 bytes). A unit result adds nothing.
  const size_t without_result = 1 + 1 + 1 + 1 + (1 + 1) + (1 + 1 + 2);
  WireScratch scratch;
  EXPECT_EQ(scratch.SizeOf(followup), without_result);
  followup.result = Value(int64_t{300});
  // The result: tag + 2-byte zigzag varint.
  EXPECT_EQ(scratch.SizeOf(followup), without_result + 1 + 2);
  EXPECT_EQ(scratch.buffer(), EncodeWriteFollowup(followup));
  const Result<WriteFollowup> decoded = DecodeWriteFollowup(scratch.buffer());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->exec_id, 77u);
  ASSERT_EQ(decoded->writes.size(), 1u);
  EXPECT_EQ(decoded->writes[0].key, "k");
  EXPECT_EQ(decoded->writes[0].value, Value("v1"));
  EXPECT_EQ(decoded->result, Value(int64_t{300}));
  // A truncated result is an error, not a unit result.
  WireBuffer truncated = scratch.buffer();
  truncated.pop_back();
  EXPECT_FALSE(DecodeWriteFollowup(truncated).ok());
}

TEST(WireCodecTest, DirectRequestRoundTrip) {
  DirectRequest request;
  request.exec_id = 424242;
  request.origin = Region::kDE;
  request.function = "fallback_fn";
  request.inputs = {Value("k"), Value(static_cast<int64_t>(17))};
  const Result<DirectRequest> decoded = DecodeDirectRequest(EncodeDirectRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->exec_id, request.exec_id);
  EXPECT_EQ(decoded->origin, Region::kDE);
  EXPECT_EQ(decoded->function, "fallback_fn");
  ASSERT_EQ(decoded->inputs.size(), 2u);
  EXPECT_EQ(decoded->inputs[1], Value(static_cast<int64_t>(17)));
}

// Session trailer: per-item floors and the session id ride as an optional
// trailing group. When the session is absent the encoding must stay
// byte-identical to the legacy (pre-session) format — here pinned by
// checking the sessionless buffer never grows and old-style decoding sees
// the defaults.
TEST(WireCodecTest, LviRequestSessionTrailerRoundTrip) {
  LviRequest request = SampleRequest();
  request.deadline = 0;  // Even a zero deadline is written once a session is.
  request.session_id = 31337;
  request.items[0].session_floor = 4;
  request.items[2].session_floor = 9;
  const Result<LviRequest> decoded = DecodeLviRequest(EncodeLviRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->session_id, 31337u);
  EXPECT_EQ(decoded->deadline, 0);
  ASSERT_EQ(decoded->items.size(), 3u);
  EXPECT_EQ(decoded->items[0].session_floor, 4);
  EXPECT_EQ(decoded->items[1].session_floor, 0);
  EXPECT_EQ(decoded->items[2].session_floor, 9);
}

TEST(WireCodecTest, SessionlessLviRequestEncodingUnchanged) {
  const LviRequest legacy = SampleRequest();
  const WireBuffer legacy_bytes = EncodeLviRequest(legacy);
  // Setting floors without a session id must not leak onto the wire: the
  // trailer exists only when session_id != 0.
  LviRequest floors_only = SampleRequest();
  floors_only.items[0].session_floor = 7;
  EXPECT_EQ(EncodeLviRequest(floors_only), legacy_bytes);
  const Result<LviRequest> decoded = DecodeLviRequest(legacy_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->session_id, 0u);
  for (const LviItem& item : decoded->items) {
    EXPECT_EQ(item.session_floor, 0);
  }
  // A session strictly appends: the legacy bytes are a prefix of the
  // sessioned encoding of the same (deadlined) request.
  LviRequest with_session = SampleRequest();
  with_session.deadline = 1500;
  with_session.session_id = 8;
  LviRequest deadline_only = SampleRequest();
  deadline_only.deadline = 1500;
  const WireBuffer base = EncodeLviRequest(deadline_only);
  const WireBuffer extended = EncodeLviRequest(with_session);
  ASSERT_GT(extended.size(), base.size());
  EXPECT_TRUE(std::equal(base.begin(), base.end(), extended.begin()));
}

TEST(WireCodecTest, DirectRequestSessionTrailerRoundTrip) {
  DirectRequest request;
  request.exec_id = 11;
  request.function = "f";
  request.session_id = 99;
  const Result<DirectRequest> decoded = DecodeDirectRequest(EncodeDirectRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->session_id, 99u);
  // And sessionless stays sessionless after a round trip.
  request.session_id = 0;
  const Result<DirectRequest> plain = DecodeDirectRequest(EncodeDirectRequest(request));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->session_id, 0u);
}

// Acknowledgement group: the sender's life and how far below its own id the
// acknowledgement reaches. It sits between the deadline and the session
// group; a request without one keeps the deadline-only encoding.
TEST(WireCodecTest, AckTrailerRoundTripsAndCostsThreeBytesAtTheRuntimesCommonCase) {
  const LviRequest plain = SampleRequest();
  LviRequest acking = plain;
  acking.ack = Ack{0, acking.exec_id};  // The runtime's only open request.
  const WireBuffer base = EncodeLviRequest(plain);
  const WireBuffer extended = EncodeLviRequest(acking);
  // An explicit zero deadline, the life and a zero distance.
  EXPECT_EQ(extended.size(), base.size() + 3);
  ASSERT_TRUE(std::equal(base.begin(), base.end(), extended.begin()));

  LviRequest full = SampleRequest();
  full.deadline = 1500;
  full.ack = Ack{2, full.exec_id - 40};
  full.session_id = 7;
  full.items[1].session_floor = 3;
  const Result<LviRequest> decoded = DecodeLviRequest(EncodeLviRequest(full));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->deadline, 1500);
  EXPECT_EQ(decoded->ack.life, 2u);
  EXPECT_EQ(decoded->ack.below, full.exec_id - 40);
  EXPECT_EQ(decoded->session_id, 7u);
  EXPECT_EQ(decoded->items[1].session_floor, 3);

  // A session without an acknowledgement (a failover replay) keeps below 0.
  DirectRequest replay;
  replay.exec_id = 11;
  replay.function = "f";
  replay.session_id = 99;
  const Result<DirectRequest> replayed = DecodeDirectRequest(EncodeDirectRequest(replay));
  ASSERT_TRUE(replayed.ok()) << replayed.message();
  EXPECT_EQ(replayed->ack.below, 0u);
  EXPECT_EQ(replayed->session_id, 99u);
  DirectRequest direct = replay;
  direct.session_id = 0;
  direct.ack = Ack{1, 9};
  const Result<DirectRequest> acked = DecodeDirectRequest(EncodeDirectRequest(direct));
  ASSERT_TRUE(acked.ok()) << acked.message();
  EXPECT_EQ(acked->ack.life, 1u);
  EXPECT_EQ(acked->ack.below, 9u);
  EXPECT_EQ(acked->session_id, 0u);
}

TEST(WireCodecTest, DirectResponseRoundTrip) {
  DirectResponse response;
  response.exec_id = 99;
  response.result = Value(ValueList{Value("ok"), Value("r")});
  response.fresh_items = {{"post:1", Value("body"), 12}};
  const Result<DirectResponse> decoded = DecodeDirectResponse(EncodeDirectResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded->exec_id, 99u);
  EXPECT_EQ(decoded->result, response.result);
  ASSERT_EQ(decoded->fresh_items.size(), 1u);
  EXPECT_EQ(decoded->fresh_items[0].key, "post:1");
  EXPECT_EQ(decoded->fresh_items[0].version, 12);
}

TEST(WireCodecTest, CachePushRoundTrip) {
  CachePush push;
  push.items = {{"frontpage", Value(ValueList{Value("p1"), Value("p2")}), 9},
                {"vote:p1:u3", Value(int64_t{1}), 0}};
  const Result<CachePush> decoded = DecodeCachePush(EncodeCachePush(push));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  ASSERT_EQ(decoded->items.size(), 2u);
  for (size_t i = 0; i < push.items.size(); ++i) {
    EXPECT_EQ(decoded->items[i].key, push.items[i].key);
    EXPECT_EQ(decoded->items[i].value, push.items[i].value);
    EXPECT_EQ(decoded->items[i].version, push.items[i].version);
  }
  const WireBuffer bytes = EncodeCachePush(push);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireBuffer truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeCachePush(truncated).ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(DecodeCachePush(EncodeLviResponse(LviResponse{})).ok());
  EXPECT_FALSE(DecodeLviResponse(bytes).ok());
}

TEST(WireCodecTest, CachePushSizeOfIsExact) {
  CachePush push;
  push.items = {{"k", Value("v1"), 3}};
  // version + tag + item count, then the item: key (length + 1 byte),
  // value (tag + length + 2 bytes), zigzag version.
  const size_t expected = 1 + 1 + 1 + (1 + 1) + (1 + 1 + 2) + 1;
  WireScratch scratch;
  EXPECT_EQ(scratch.SizeOf(push), expected);
  EXPECT_EQ(scratch.buffer(), EncodeCachePush(push));
  push.items.push_back({"key2", Value(int64_t{300}), 200});
  // key (1 + 4), value (tag + 2-byte zigzag varint), version (2-byte zigzag).
  EXPECT_EQ(scratch.SizeOf(push), expected + (1 + 4) + (1 + 2) + 2);
}

TEST(WireCodecTest, EnvelopeCarriesWireFormatVersion) {
  const WireBuffer buffer = EncodeLviRequest(SampleRequest());
  ASSERT_FALSE(buffer.empty());
  EXPECT_EQ(buffer[0], kWireFormatVersion);
  EXPECT_EQ(EncodeLviResponse(LviResponse{})[0], kWireFormatVersion);
  EXPECT_EQ(EncodeWriteFollowup(WriteFollowup{})[0], kWireFormatVersion);
  EXPECT_EQ(EncodeDirectRequest(DirectRequest{})[0], kWireFormatVersion);
  EXPECT_EQ(EncodeDirectResponse(DirectResponse{})[0], kWireFormatVersion);
  EXPECT_EQ(EncodeCachePush(CachePush{})[0], kWireFormatVersion);
}

TEST(WireCodecTest, VersionMismatchRejectedAtDecode) {
  WireBuffer buffer = EncodeLviRequest(SampleRequest());
  ASSERT_FALSE(buffer.empty());
  buffer[0] = kWireFormatVersion + 1;  // A future (or corrupted) version.
  const Result<LviRequest> decoded = DecodeLviRequest(buffer);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.message().find("wire format version mismatch"), std::string::npos)
      << decoded.message();
}

TEST(WireCodecTest, MessageTypeConfusionRejected) {
  const WireBuffer request_bytes = EncodeLviRequest(SampleRequest());
  EXPECT_FALSE(DecodeLviResponse(request_bytes).ok());
  EXPECT_FALSE(DecodeWriteFollowup(request_bytes).ok());
  EXPECT_FALSE(DecodeDirectRequest(request_bytes).ok());
  EXPECT_FALSE(DecodeDirectResponse(request_bytes).ok());
  EXPECT_FALSE(DecodeCachePush(request_bytes).ok());
}

TEST(WireCodecTest, RequestTruncationAlwaysFails) {
  const WireBuffer buffer = EncodeLviRequest(SampleRequest());
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    WireBuffer truncated(buffer.begin(), buffer.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeLviRequest(truncated).ok()) << "cut=" << cut;
  }
}

TEST(WireCodecTest, RandomCorruptionNeverCrashes) {
  const WireBuffer original = EncodeLviRequest(SampleRequest());
  Rng rng(13579);
  for (int trial = 0; trial < 500; ++trial) {
    WireBuffer corrupted = original;
    const size_t flips = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < flips; ++i) {
      corrupted[rng.NextBelow(corrupted.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    // Must not crash; may decode to something or fail — both acceptable.
    (void)DecodeLviRequest(corrupted);
  }
}

TEST(WireCodecTest, WireSizesAreModest) {
  // The LVI protocol's bandwidth claim (§5.7): requests are key names plus
  // versions — a few hundred bytes, not kilobytes.
  const WireBuffer request = EncodeLviRequest(SampleRequest());
  EXPECT_LT(request.size(), 256u);
  WriteFollowup followup;
  followup.exec_id = 1;
  followup.writes = {{"timeline:u2", Value("u1: hello")}};
  EXPECT_LT(EncodeWriteFollowup(followup).size(), 128u);
}

// --- The codec carries the whole protocol -----------------------------------------
// Route one complete LVI exchange through encode/decode at every hop: the
// wire format is sufficient for the protocol, not merely round-trippable.

TEST(WireCodecTest, FullProtocolExchangeThroughTheCodec) {
  Simulator sim(515);
  VersionedStore store;
  store.Seed("k", Value("old"));
  Analyzer analyzer(&HostRegistry::Standard());
  Interpreter interp(&HostRegistry::Standard());
  FunctionRegistry registry(&analyzer);
  registry.Register(Fn("set_k", {"v"}, {
      Write(C("k"), In("v")),
      Return(In("v")),
  }));
  LockService locks(&sim);
  LviServer server(&sim, &store, &registry, &interp, &locks);

  // Client side: build the request, push it through the codec.
  LviRequest request;
  request.exec_id = 42;
  request.origin = Region::kDE;
  request.function = "set_k";
  request.inputs = {Value("new")};
  request.items = {{"k", 1, LockMode::kWrite}};
  const Result<LviRequest> arrived = DecodeLviRequest(EncodeLviRequest(request));
  ASSERT_TRUE(arrived.ok());

  std::optional<LviResponse> received;
  server.HandleLviRequest(*arrived, [&](LviResponse response) {
    // Server -> client hop through the codec.
    const Result<LviResponse> decoded = DecodeLviResponse(EncodeLviResponse(response));
    ASSERT_TRUE(decoded.ok());
    received = *decoded;
  });
  sim.RunFor(Millis(100));
  ASSERT_TRUE(received.has_value());
  EXPECT_TRUE(received->validated);

  // Followup through the codec.
  WriteFollowup followup;
  followup.exec_id = received->exec_id;
  followup.writes = {{"k", Value("new")}};
  const Result<WriteFollowup> followup_arrived =
      DecodeWriteFollowup(EncodeWriteFollowup(followup));
  ASSERT_TRUE(followup_arrived.ok());
  server.HandleFollowup(*followup_arrived);
  sim.Run();
  EXPECT_EQ(store.Peek("k")->value, Value("new"));
  EXPECT_EQ(store.VersionOf("k"), 2);
  EXPECT_TRUE(server.idle());
}

}  // namespace
}  // namespace radical
