// Typed message envelopes for the unified transport layer.
//
// Every message crossing a link in the simulation — WAN protocol traffic,
// intra-DC Raft RPCs, quorum-store coordination — travels as an Envelope: a
// message kind tag, a wire size in bytes, and the closure to run at the
// destination. The kind tag is what makes one fault-injection and metrics
// surface possible: tests drop "write followups from CA" instead of wiring a
// bespoke filter into each component, and the cost analysis reads per-kind
// byte counters off the fabric instead of instrumenting call sites.

#ifndef RADICAL_SRC_NET_MESSAGE_H_
#define RADICAL_SRC_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>

#include "src/common/inline_task.h"
#include "src/common/types.h"

namespace radical {
namespace net {

// Wire size charged when a sender does not compute one. The LVI protocol
// messages always carry exact codec-derived sizes; this default remains for
// pings and control traffic whose size does not matter.
inline constexpr size_t kDefaultMessageBytes = 128;

// Every message category that crosses a simulated link.
enum class MessageKind : uint8_t {
  kGeneric = 0,
  // LVI protocol (near-user <-> near-storage, src/lvi/messages.h).
  kLviRequest,
  kLviResponse,
  kWriteFollowup,
  kDirectRequest,
  kDirectResponse,
  kCachePush,
  // Raft RPCs (AZ mesh, src/raft).
  kRaftVote,
  kRaftVoteReply,
  kRaftAppend,
  kRaftAppendReply,
  kRaftSnapshot,
  // Quorum-store coordination (geo-replicated baseline, src/kv).
  kQuorumRequest,
  kQuorumReplicate,
  kQuorumAck,
  kQuorumReply,
};

inline constexpr int kNumMessageKinds = 16;

const char* MessageKindName(MessageKind kind);

// One message in flight: kind tag, wire size, and the delivery closure run
// at the destination endpoint. The closure is an InlineTask — its captures
// live inline in the envelope (and then inline in the event node that
// schedules delivery), so sending a message performs no heap allocation.
// Envelopes are move-only, like the closure they carry.
struct Envelope {
  MessageKind kind = MessageKind::kGeneric;
  size_t size_bytes = kDefaultMessageBytes;
  InlineTask deliver;
  // Absolute deadline the payload is useful until; 0 = none. A message whose
  // computed delivery instant lands past its deadline is discarded by the
  // fabric — it still consumed link capacity (queue/FIFO state advanced),
  // but the receiver would only throw it away. Overload-control requests and
  // their responses carry the client deadline here.
  SimTime deadline = 0;
};

}  // namespace net
}  // namespace radical

#endif  // RADICAL_SRC_NET_MESSAGE_H_
