#include "src/check/linearizability.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace radical {

namespace {

struct SearchState {
  const std::vector<HistoryOp>* ops;
  const Value* initial;
  // Visited (linearized-mask, last-write-index) pairs; -1 = initial value.
  std::set<std::pair<uint64_t, int>> visited;
};

// Value of the register after the write at `last_write` (-1 = initial).
const Value& RegisterValue(const SearchState& s, int last_write) {
  if (last_write < 0) {
    return *s.initial;
  }
  return (*s.ops)[static_cast<size_t>(last_write)].value;
}

// Earliest response among the ops not yet in `done_mask`.
SimTime MinPendingResponse(const SearchState& s, uint64_t done_mask) {
  SimTime min_response = INT64_MAX;
  for (size_t i = 0; i < s.ops->size(); ++i) {
    if ((done_mask & (1ULL << i)) == 0) {
      min_response = std::min(min_response, (*s.ops)[i].response);
    }
  }
  return min_response;
}

bool Search(SearchState& s, uint64_t done_mask, int last_write) {
  const size_t n = s.ops->size();
  const uint64_t all = n == 64 ? ~0ULL : ((1ULL << n) - 1);
  // An op may linearize next only if it is pending and no other pending op
  // responded before it was invoked (else that one must come first).
  SimTime min_pending_response = MinPendingResponse(s, done_mask);
  // Linearize, without branching, every enabled read that returns the
  // current value. Exchange argument: in any completing order, moving such a
  // read to the front breaks no real-time edge (every op that had to precede
  // it is already linearized, and each pending op's response is >= its
  // invoke) and changes no value (a read leaves the register as it is).
  for (bool absorbed = true; absorbed && done_mask != all;) {
    absorbed = false;
    for (size_t i = 0; i < n; ++i) {
      const HistoryOp& op = (*s.ops)[i];
      if ((done_mask & (1ULL << i)) == 0 && !op.is_write && op.invoke <= min_pending_response &&
          op.value == RegisterValue(s, last_write)) {
        done_mask |= 1ULL << i;
        absorbed = true;
      }
    }
    if (absorbed) {
      min_pending_response = MinPendingResponse(s, done_mask);
    }
  }
  if (done_mask == all) {
    return true;
  }
  if (!s.visited.emplace(done_mask, last_write).second) {
    return false;
  }
  // Only writes branch: every enabled read of the current value went above,
  // and a read of any other value cannot go next.
  for (size_t i = 0; i < n; ++i) {
    const HistoryOp& op = (*s.ops)[i];
    if ((done_mask & (1ULL << i)) != 0 || !op.is_write || op.invoke > min_pending_response) {
      continue;  // Linearized, a read, or some pending op precedes it in real time.
    }
    if (Search(s, done_mask | (1ULL << i), static_cast<int>(i))) {
      return true;
    }
  }
  return false;
}

}  // namespace

LinearizabilityResult CheckRegisterHistory(const std::vector<HistoryOp>& ops,
                                           const Value& initial) {
  LinearizabilityResult result;
  if (ops.empty()) {
    return result;
  }
  if (ops.size() > 64) {
    result.linearizable = false;
    result.violation = "history too large for the checker (> 64 ops per key)";
    return result;
  }
  SearchState state{&ops, &initial, {}};
  if (!Search(state, 0, -1)) {
    result.linearizable = false;
    std::ostringstream os;
    os << "no linearization exists for key " << ops.front().key << " (" << ops.size()
       << " ops)";
    result.violation = os.str();
  }
  return result;
}

LinearizabilityResult CheckHistory(const HistoryRecorder& history,
                                   const std::map<Key, Value>& initials) {
  for (const auto& [key, ops] : history.ByKey()) {
    const auto it = initials.find(key);
    const Value initial = it == initials.end() ? Value() : it->second;
    const LinearizabilityResult result = CheckRegisterHistory(ops, initial);
    if (!result.linearizable) {
      return result;
    }
  }
  return LinearizabilityResult{};
}

}  // namespace radical
