#include "src/net/message.h"

namespace radical {
namespace net {

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kGeneric:
      return "generic";
    case MessageKind::kLviRequest:
      return "lvi_request";
    case MessageKind::kLviResponse:
      return "lvi_response";
    case MessageKind::kWriteFollowup:
      return "write_followup";
    case MessageKind::kDirectRequest:
      return "direct_request";
    case MessageKind::kDirectResponse:
      return "direct_response";
    case MessageKind::kCachePush:
      return "cache_push";
    case MessageKind::kRaftVote:
      return "raft_vote";
    case MessageKind::kRaftVoteReply:
      return "raft_vote_reply";
    case MessageKind::kRaftAppend:
      return "raft_append";
    case MessageKind::kRaftAppendReply:
      return "raft_append_reply";
    case MessageKind::kRaftSnapshot:
      return "raft_snapshot";
    case MessageKind::kQuorumRequest:
      return "quorum_request";
    case MessageKind::kQuorumReplicate:
      return "quorum_replicate";
    case MessageKind::kQuorumAck:
      return "quorum_ack";
    case MessageKind::kQuorumReply:
      return "quorum_reply";
  }
  return "?";
}

}  // namespace net
}  // namespace radical
