#include "src/lvi/codec.h"

#include <cassert>

namespace radical {

namespace {

constexpr uint8_t kTagUnit = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagString = 2;
constexpr uint8_t kTagList = 3;

constexpr int kMaxValueDepth = 32;
constexpr uint64_t kMaxLength = 1u << 26;  // 64 MiB: sanity bound on decode.

}  // namespace

// --- WireWriter -----------------------------------------------------------------

void WireWriter::WriteByte(uint8_t b) { out_->push_back(b); }

void WireWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    out_->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_->push_back(static_cast<uint8_t>(v));
}

void WireWriter::WriteSigned(int64_t v) {
  // Zigzag: small magnitudes (either sign) stay small on the wire.
  WriteVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void WireWriter::WriteString(const std::string& s) {
  WriteVarint(s.size());
  out_->insert(out_->end(), s.begin(), s.end());
}

void WireWriter::WriteValue(const Value& v) {
  if (v.is_unit()) {
    WriteByte(kTagUnit);
  } else if (v.is_int()) {
    WriteByte(kTagInt);
    WriteSigned(v.AsInt());
  } else if (v.is_string()) {
    WriteByte(kTagString);
    WriteString(v.AsString());
  } else {
    WriteByte(kTagList);
    const ValueList& list = v.AsList();
    WriteVarint(list.size());
    for (const Value& element : list) {
      WriteValue(element);
    }
  }
}

// --- WireReader -----------------------------------------------------------------

void WireReader::Fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
}

uint8_t WireReader::ReadByte() {
  if (!ok_ || pos_ >= size_) {
    Fail("truncated message: byte");
    return 0;
  }
  return data_[pos_++];
}

uint64_t WireReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (ok_) {
    if (pos_ >= size_) {
      Fail("truncated message: varint");
      return 0;
    }
    const uint8_t b = data_[pos_++];
    if (shift >= 64) {
      Fail("varint overflow");
      return 0;
    }
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
  return 0;
}

int64_t WireReader::ReadSigned() {
  const uint64_t z = ReadVarint();
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string WireReader::ReadString() {
  const uint64_t length = ReadVarint();
  if (!ok_) {
    return {};
  }
  if (length > kMaxLength || pos_ + length > size_) {
    Fail("truncated message: string body");
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return s;
}

Value WireReader::ReadValue() {
  if (++value_depth_ > kMaxValueDepth) {
    Fail("value nesting too deep");
    --value_depth_;
    return Value();
  }
  Value out;
  const uint8_t tag = ReadByte();
  switch (tag) {
    case kTagUnit:
      out = Value();
      break;
    case kTagInt:
      out = Value(ReadSigned());
      break;
    case kTagString:
      out = Value(ReadString());
      break;
    case kTagList: {
      const uint64_t count = ReadVarint();
      if (count > kMaxLength) {
        Fail("list too long");
        break;
      }
      ValueList list;
      list.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count && ok_; ++i) {
        list.push_back(ReadValue());
      }
      out = Value(std::move(list));
      break;
    }
    default:
      Fail("unknown value tag");
      break;
  }
  --value_depth_;
  return out;
}

// --- Messages --------------------------------------------------------------------

namespace {

constexpr uint8_t kMsgLviRequest = 1;
constexpr uint8_t kMsgLviResponse = 2;
constexpr uint8_t kMsgFollowup = 3;
// Tag 4 carried function images; it stays unassigned.
constexpr uint8_t kMsgDirectRequest = 5;
constexpr uint8_t kMsgDirectResponse = 6;
constexpr uint8_t kMsgCachePush = 7;

// An LVI item's mode byte. A blind write takes a write lock; validation
// skips its version.
constexpr uint8_t kModeRead = 0;
constexpr uint8_t kModeReadWrite = 1;
constexpr uint8_t kModeBlindWrite = 2;

// An LVI response's validation byte. A snapshot reply is a failed
// validation answered with the primary's snapshot instead of a backup.
constexpr uint8_t kBackupReply = 0;
constexpr uint8_t kValidatedReply = 1;
constexpr uint8_t kSnapshotReply = 2;

// Envelope prologue: the version byte precedes every message tag.
void WriteEnvelope(WireWriter& w, uint8_t msg_tag) {
  w.WriteByte(kWireFormatVersion);
  w.WriteByte(msg_tag);
}

Status VersionMismatch(uint8_t got) {
  return Status::Error("wire format version mismatch: got " + std::to_string(got) +
                       ", expected " + std::to_string(kWireFormatVersion));
}

// Reads the envelope prologue; empty status on success.
Status ReadEnvelope(WireReader& r, uint8_t expected_tag, const char* tag_error) {
  const uint8_t version = r.ReadByte();
  if (r.ok() && version != kWireFormatVersion) {
    return VersionMismatch(version);
  }
  if (r.ReadByte() != expected_tag) {
    return Status::Error(tag_error);
  }
  return Status::Ok();
}

void WriteFreshItem(WireWriter& w, const FreshItem& item) {
  w.WriteString(item.key);
  w.WriteValue(item.value);
  w.WriteSigned(item.version);
}

FreshItem ReadFreshItem(WireReader& r) {
  FreshItem item;
  item.key = r.ReadString();
  item.value = r.ReadValue();
  item.version = r.ReadSigned();
  return item;
}

// --- Optional trailing fields ---------------------------------------------------
//
// Overload control (deadlines on requests, status + retry-after on
// responses) rides as *optional trailing fields*: they are encoded only when
// non-default, and decoders read them only when bytes remain after the base
// message. A default-valued message therefore encodes byte-identically to
// the pre-overload wire format — old captures still decode, sizes (and the
// bandwidth model fed by them) are unchanged, and the truncation tests keep
// their property that every strict prefix of a *base* encoding fails.

void WriteRequestDeadline(WireWriter& w, SimTime deadline) {
  if (deadline != 0) {
    w.WriteSigned(deadline);
  }
}

SimTime ReadRequestDeadline(WireReader& r) {
  if (r.ok() && !r.AtEnd()) {
    return r.ReadSigned();
  }
  return 0;
}

// Two more optional groups stack after the deadline, in this order: the
// acknowledgement (the sender's life, then exec_id - ack.below, so an
// acknowledgement up to the sender's oldest open request costs a byte; no
// acknowledgement, below == 0, is written as exec_id), and the session group
// (session id + the items' floor versions, in item order). Presence is still
// detected by bytes-remaining, which makes the stacking rule load-bearing:
// whenever a group is written, every group before it is written too (zeros
// when absent), so the decoder's read order is unambiguous. A request with
// neither group therefore encodes byte-identically to the deadline-only wire
// format.

void WriteRequestTrailer(WireWriter& w, ExecutionId exec_id, SimTime deadline, const Ack& ack,
                         uint64_t session_id, const std::vector<LviItem>* items) {
  const bool has_ack = ack.life != 0 || ack.below != 0;
  if (!has_ack && session_id == 0) {
    WriteRequestDeadline(w, deadline);
    return;
  }
  w.WriteSigned(deadline);  // Explicit, even when 0: anchors the read order.
  w.WriteVarint(ack.life);
  w.WriteVarint(exec_id - ack.below);
  if (session_id == 0) {
    return;
  }
  w.WriteVarint(session_id);
  if (items == nullptr) {
    w.WriteVarint(0);  // Direct requests carry no floor (already linearizable).
    return;
  }
  w.WriteVarint(items->size());
  for (const LviItem& item : *items) {
    w.WriteSigned(item.session_floor);
  }
}

void ReadRequestTrailer(WireReader& r, ExecutionId exec_id, SimTime* deadline, Ack* ack,
                        uint64_t* session_id, std::vector<LviItem>* items) {
  *deadline = ReadRequestDeadline(r);
  *ack = Ack{};
  *session_id = 0;
  if (!r.ok() || r.AtEnd()) {
    return;
  }
  ack->life = r.ReadVarint();
  ack->below = exec_id - r.ReadVarint();
  if (!r.ok() || r.AtEnd()) {
    return;
  }
  *session_id = r.ReadVarint();
  const uint64_t count = r.ReadVarint();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    const Version floor = r.ReadSigned();
    if (items != nullptr && i < items->size()) {
      (*items)[i].session_floor = floor;
    }
  }
}

void WriteResponseStatus(WireWriter& w, ResponseStatus status, SimDuration retry_after) {
  if (status != ResponseStatus::kOk || retry_after != 0) {
    w.WriteByte(static_cast<uint8_t>(status));
    w.WriteSigned(retry_after);
  }
}

// Returns false on a malformed status byte.
bool ReadResponseStatus(WireReader& r, ResponseStatus* status, SimDuration* retry_after) {
  *status = ResponseStatus::kOk;
  *retry_after = 0;
  if (!r.ok() || r.AtEnd()) {
    return true;
  }
  const uint8_t raw = r.ReadByte();
  if (raw > static_cast<uint8_t>(ResponseStatus::kShed)) {
    return false;
  }
  *status = static_cast<ResponseStatus>(raw);
  *retry_after = r.ReadSigned();
  return true;
}

}  // namespace

void EncodeLviRequestTo(const LviRequest& request, WireBuffer* out) {
  out->clear();
  WireWriter w(out);
  WriteEnvelope(w, kMsgLviRequest);
  w.WriteVarint(request.exec_id);
  w.WriteVarint(static_cast<uint64_t>(request.origin));
  w.WriteString(request.function);
  w.WriteVarint(request.inputs.size());
  for (const Value& input : request.inputs) {
    w.WriteValue(input);
  }
  w.WriteVarint(request.items.size());
  for (const LviItem& item : request.items) {
    w.WriteString(item.key);
    w.WriteSigned(item.cached_version);
    w.WriteByte(item.blind ? kModeBlindWrite
                           : item.mode == LockMode::kWrite ? kModeReadWrite : kModeRead);
  }
  WriteRequestTrailer(w, request.exec_id, request.deadline, request.ack, request.session_id,
                      &request.items);
}

WireBuffer EncodeLviRequest(const LviRequest& request) {
  WireBuffer out;
  EncodeLviRequestTo(request, &out);
  return out;
}

Result<LviRequest> DecodeLviRequest(const WireBuffer& buffer) {
  WireReader r(buffer);
  if (Status envelope = ReadEnvelope(r, kMsgLviRequest, "not an LVI request"); !envelope.ok()) {
    return envelope;
  }
  LviRequest request;
  request.exec_id = r.ReadVarint();
  const uint64_t origin = r.ReadVarint();
  if (origin >= static_cast<uint64_t>(kNumRegions)) {
    return Status::Error("invalid origin region");
  }
  request.origin = static_cast<Region>(origin);
  request.function = r.ReadString();
  const uint64_t num_inputs = r.ReadVarint();
  for (uint64_t i = 0; i < num_inputs && r.ok(); ++i) {
    request.inputs.push_back(r.ReadValue());
  }
  const uint64_t num_items = r.ReadVarint();
  for (uint64_t i = 0; i < num_items && r.ok(); ++i) {
    LviItem item;
    item.key = r.ReadString();
    item.cached_version = r.ReadSigned();
    const uint8_t mode = r.ReadByte();
    if (mode > kModeBlindWrite) {
      return Status::Error("invalid item mode in LVI request");
    }
    item.mode = mode == kModeRead ? LockMode::kRead : LockMode::kWrite;
    item.blind = mode == kModeBlindWrite;
    request.items.push_back(std::move(item));
  }
  ReadRequestTrailer(r, request.exec_id, &request.deadline, &request.ack, &request.session_id,
                     &request.items);
  if (!r.AtEnd()) {
    return Status::Error(r.ok() ? "trailing bytes in LVI request" : r.error());
  }
  return request;
}

void EncodeLviResponseTo(const LviResponse& response, WireBuffer* out) {
  out->clear();
  WireWriter w(out);
  WriteEnvelope(w, kMsgLviResponse);
  w.WriteVarint(response.exec_id);
  w.WriteByte(response.validated ? kValidatedReply
                                 : response.snapshot ? kSnapshotReply : kBackupReply);
  w.WriteValue(response.backup_result);
  w.WriteVarint(response.fresh_items.size());
  for (const FreshItem& item : response.fresh_items) {
    WriteFreshItem(w, item);
  }
  WriteResponseStatus(w, response.status, response.retry_after);
}

WireBuffer EncodeLviResponse(const LviResponse& response) {
  WireBuffer out;
  EncodeLviResponseTo(response, &out);
  return out;
}

Result<LviResponse> DecodeLviResponse(const WireBuffer& buffer) {
  WireReader r(buffer);
  if (Status envelope = ReadEnvelope(r, kMsgLviResponse, "not an LVI response"); !envelope.ok()) {
    return envelope;
  }
  LviResponse response;
  response.exec_id = r.ReadVarint();
  const uint8_t verdict = r.ReadByte();
  if (verdict > kSnapshotReply) {
    return Status::Error("invalid validation byte in LVI response");
  }
  response.validated = verdict == kValidatedReply;
  response.snapshot = verdict == kSnapshotReply;
  response.backup_result = r.ReadValue();
  const uint64_t count = r.ReadVarint();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    response.fresh_items.push_back(ReadFreshItem(r));
  }
  if (!ReadResponseStatus(r, &response.status, &response.retry_after)) {
    return Status::Error("invalid response status in LVI response");
  }
  if (!r.AtEnd()) {
    return Status::Error(r.ok() ? "trailing bytes in LVI response" : r.error());
  }
  return response;
}

void EncodeWriteFollowupTo(const WriteFollowup& followup, WireBuffer* out) {
  out->clear();
  WireWriter w(out);
  WriteEnvelope(w, kMsgFollowup);
  w.WriteVarint(followup.exec_id);
  w.WriteVarint(followup.writes.size());
  for (const BufferedWrite& write : followup.writes) {
    w.WriteString(write.key);
    w.WriteValue(write.value);
  }
  // f's result: an optional trailing group, absent for the unit value, so a
  // followup of a function that returns nothing keeps its old bytes.
  if (!followup.result.is_unit()) {
    w.WriteValue(followup.result);
  }
}

WireBuffer EncodeWriteFollowup(const WriteFollowup& followup) {
  WireBuffer out;
  EncodeWriteFollowupTo(followup, &out);
  return out;
}

Result<WriteFollowup> DecodeWriteFollowup(const WireBuffer& buffer) {
  WireReader r(buffer);
  if (Status envelope = ReadEnvelope(r, kMsgFollowup, "not a write followup"); !envelope.ok()) {
    return envelope;
  }
  WriteFollowup followup;
  followup.exec_id = r.ReadVarint();
  const uint64_t count = r.ReadVarint();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    BufferedWrite write;
    write.key = r.ReadString();
    write.value = r.ReadValue();
    followup.writes.push_back(std::move(write));
  }
  if (r.ok() && !r.AtEnd()) {
    followup.result = r.ReadValue();
  }
  if (!r.AtEnd()) {
    return Status::Error(r.ok() ? "trailing bytes in followup" : r.error());
  }
  return followup;
}

void EncodeDirectRequestTo(const DirectRequest& request, WireBuffer* out) {
  out->clear();
  WireWriter w(out);
  WriteEnvelope(w, kMsgDirectRequest);
  w.WriteVarint(request.exec_id);
  w.WriteVarint(static_cast<uint64_t>(request.origin));
  w.WriteString(request.function);
  w.WriteVarint(request.inputs.size());
  for (const Value& input : request.inputs) {
    w.WriteValue(input);
  }
  WriteRequestTrailer(w, request.exec_id, request.deadline, request.ack, request.session_id,
                      nullptr);
}

WireBuffer EncodeDirectRequest(const DirectRequest& request) {
  WireBuffer out;
  EncodeDirectRequestTo(request, &out);
  return out;
}

Result<DirectRequest> DecodeDirectRequest(const WireBuffer& buffer) {
  WireReader r(buffer);
  if (Status envelope = ReadEnvelope(r, kMsgDirectRequest, "not a direct request"); !envelope.ok()) {
    return envelope;
  }
  DirectRequest request;
  request.exec_id = r.ReadVarint();
  const uint64_t origin = r.ReadVarint();
  if (origin >= static_cast<uint64_t>(kNumRegions)) {
    return Status::Error("invalid origin region");
  }
  request.origin = static_cast<Region>(origin);
  request.function = r.ReadString();
  const uint64_t num_inputs = r.ReadVarint();
  for (uint64_t i = 0; i < num_inputs && r.ok(); ++i) {
    request.inputs.push_back(r.ReadValue());
  }
  ReadRequestTrailer(r, request.exec_id, &request.deadline, &request.ack, &request.session_id,
                     nullptr);
  if (!r.AtEnd()) {
    return Status::Error(r.ok() ? "trailing bytes in direct request" : r.error());
  }
  return request;
}

void EncodeDirectResponseTo(const DirectResponse& response, WireBuffer* out) {
  out->clear();
  WireWriter w(out);
  WriteEnvelope(w, kMsgDirectResponse);
  w.WriteVarint(response.exec_id);
  w.WriteValue(response.result);
  w.WriteVarint(response.fresh_items.size());
  for (const FreshItem& item : response.fresh_items) {
    WriteFreshItem(w, item);
  }
  WriteResponseStatus(w, response.status, response.retry_after);
}

WireBuffer EncodeDirectResponse(const DirectResponse& response) {
  WireBuffer out;
  EncodeDirectResponseTo(response, &out);
  return out;
}

Result<DirectResponse> DecodeDirectResponse(const WireBuffer& buffer) {
  WireReader r(buffer);
  if (Status envelope = ReadEnvelope(r, kMsgDirectResponse, "not a direct response"); !envelope.ok()) {
    return envelope;
  }
  DirectResponse response;
  response.exec_id = r.ReadVarint();
  response.result = r.ReadValue();
  const uint64_t count = r.ReadVarint();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    response.fresh_items.push_back(ReadFreshItem(r));
  }
  if (!ReadResponseStatus(r, &response.status, &response.retry_after)) {
    return Status::Error("invalid response status in direct response");
  }
  if (!r.AtEnd()) {
    return Status::Error(r.ok() ? "trailing bytes in direct response" : r.error());
  }
  return response;
}

void EncodeCachePushTo(const CachePush& push, WireBuffer* out) {
  out->clear();
  WireWriter w(out);
  WriteEnvelope(w, kMsgCachePush);
  w.WriteVarint(push.items.size());
  for (const FreshItem& item : push.items) {
    WriteFreshItem(w, item);
  }
}

WireBuffer EncodeCachePush(const CachePush& push) {
  WireBuffer out;
  EncodeCachePushTo(push, &out);
  return out;
}

Result<CachePush> DecodeCachePush(const WireBuffer& buffer) {
  WireReader r(buffer);
  if (Status envelope = ReadEnvelope(r, kMsgCachePush, "not a cache push"); !envelope.ok()) {
    return envelope;
  }
  CachePush push;
  const uint64_t count = r.ReadVarint();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    push.items.push_back(ReadFreshItem(r));
  }
  if (!r.AtEnd()) {
    return Status::Error(r.ok() ? "trailing bytes in cache push" : r.error());
  }
  return push;
}

}  // namespace radical
