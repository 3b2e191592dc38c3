// Binary wire codec for Radical's protocol messages.
//
// The near-user and near-storage locations exchange LVI requests, responses,
// write followups, direct requests and cache pushes over the WAN. This codec
// defines the wire format: a compact tagged binary encoding with varint
// integers and length-prefixed strings, symmetric Encode/Decode pairs, and
// strict bounds checking on decode (a truncated or corrupted message yields
// an error, not undefined behaviour).
//
// The simulator passes message objects by value — the codec exists so that
// (a) message sizes on the wire are exact rather than approximated, and
// (b) the repository is honest about what crossing a network requires.

#ifndef RADICAL_SRC_LVI_CODEC_H_
#define RADICAL_SRC_LVI_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/value.h"
#include "src/lvi/messages.h"

namespace radical {

using WireBuffer = std::vector<uint8_t>;

// Wire-format version. Every message envelope starts with this byte, before
// the message tag; decoders reject a mismatched version with an explicit
// error instead of misparsing the payload. Bump on any incompatible layout
// change.
inline constexpr uint8_t kWireFormatVersion = 1;

// --- Primitive layer ---------------------------------------------------------

// Append-only writer over a WireBuffer.
class WireWriter {
 public:
  explicit WireWriter(WireBuffer* out) : out_(out) {}

  void WriteByte(uint8_t b);
  // LEB128-style varint (unsigned).
  void WriteVarint(uint64_t v);
  // Zigzag-encoded signed varint.
  void WriteSigned(int64_t v);
  void WriteString(const std::string& s);
  void WriteValue(const Value& v);

 private:
  WireBuffer* out_;
};

// Bounds-checked reader.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const WireBuffer& buffer) : WireReader(buffer.data(), buffer.size()) {}

  bool ok() const { return ok_; }
  // First failure description, empty if ok.
  const std::string& error() const { return error_; }
  // All bytes consumed and no error.
  bool AtEnd() const { return ok_ && pos_ == size_; }

  uint8_t ReadByte();
  uint64_t ReadVarint();
  int64_t ReadSigned();
  std::string ReadString();
  Value ReadValue();

 private:
  void Fail(const std::string& message);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
  int value_depth_ = 0;  // Guards against maliciously deep list nesting.
};

// --- Message layer -------------------------------------------------------------
//
// Each message has two encode entry points:
//
//   EncodeXTo(msg, &buffer)  — clears `buffer` and encodes into it, reusing
//                              its capacity. This is the steady-state form:
//                              endpoints keep one scratch WireBuffer per
//                              connection/runtime and encode every outgoing
//                              message through it, so the codec stops
//                              allocating once the scratch has grown to the
//                              largest message seen (tests/alloc_test.cc
//                              pins this).
//   EncodeX(msg)             — convenience wrapper returning a fresh buffer;
//                              fine for tests and cold paths.

void EncodeLviRequestTo(const LviRequest& request, WireBuffer* out);
WireBuffer EncodeLviRequest(const LviRequest& request);
Result<LviRequest> DecodeLviRequest(const WireBuffer& buffer);

void EncodeLviResponseTo(const LviResponse& response, WireBuffer* out);
WireBuffer EncodeLviResponse(const LviResponse& response);
Result<LviResponse> DecodeLviResponse(const WireBuffer& buffer);

void EncodeWriteFollowupTo(const WriteFollowup& followup, WireBuffer* out);
WireBuffer EncodeWriteFollowup(const WriteFollowup& followup);
Result<WriteFollowup> DecodeWriteFollowup(const WireBuffer& buffer);

void EncodeDirectRequestTo(const DirectRequest& request, WireBuffer* out);
WireBuffer EncodeDirectRequest(const DirectRequest& request);
Result<DirectRequest> DecodeDirectRequest(const WireBuffer& buffer);

void EncodeDirectResponseTo(const DirectResponse& response, WireBuffer* out);
WireBuffer EncodeDirectResponse(const DirectResponse& response);
Result<DirectResponse> DecodeDirectResponse(const WireBuffer& buffer);

void EncodeCachePushTo(const CachePush& push, WireBuffer* out);
WireBuffer EncodeCachePush(const CachePush& push);
Result<CachePush> DecodeCachePush(const WireBuffer& buffer);

// Reusable encode scratch for an endpoint. The simulated wire carries exact
// encoded sizes, not bytes, so the steady-state need is "encode to measure":
// WireScratch keeps one buffer and routes every measurement through the
// EncodeXTo functions, reusing capacity across messages. One instance per
// Runtime / Deployment endpoint; not shared across endpoints (the buffer is
// live between SizeOf and the next call via buffer()).
class WireScratch {
 public:
  size_t SizeOf(const LviRequest& m) { return Measure(EncodeLviRequestTo, m); }
  size_t SizeOf(const LviResponse& m) { return Measure(EncodeLviResponseTo, m); }
  size_t SizeOf(const WriteFollowup& m) { return Measure(EncodeWriteFollowupTo, m); }
  size_t SizeOf(const DirectRequest& m) { return Measure(EncodeDirectRequestTo, m); }
  size_t SizeOf(const DirectResponse& m) { return Measure(EncodeDirectResponseTo, m); }
  size_t SizeOf(const CachePush& m) { return Measure(EncodeCachePushTo, m); }

  // The bytes of the most recent SizeOf, valid until the next call.
  const WireBuffer& buffer() const { return buf_; }

 private:
  template <typename Msg>
  size_t Measure(void (*encode_to)(const Msg&, WireBuffer*), const Msg& m) {
    encode_to(m, &buf_);
    return buf_.size();
  }

  WireBuffer buf_;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_CODEC_H_
