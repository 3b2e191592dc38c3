// Linearizability checker for register histories.
//
// Wing & Gong's algorithm with Lowe-style memoization, specialized to
// single-key read/write registers: a depth-first search over linearization
// prefixes, where a pending operation may be linearized next only if no
// other pending operation completed before it began (real-time order), reads
// must return the value of the most recently linearized write, and states
// are memoized by (linearized-set, last-write) pairs.
//
// Only writes branch. Before branching, the search linearizes every enabled
// read that returns the current value: moving such a read to the front of
// any completing order breaks no real-time edge and changes no value, so it
// never loses a linearization. The search stays exponential in the number
// of mutually concurrent writes, but overlapping reads cost nothing extra.
// A key's history holds at most 64 ops (the linearized set is a 64-bit
// mask). Linearizability is compositional (Herlihy & Wing), so checking each
// key independently checks the whole history.

#ifndef RADICAL_SRC_CHECK_LINEARIZABILITY_H_
#define RADICAL_SRC_CHECK_LINEARIZABILITY_H_

#include <optional>
#include <string>

#include "src/check/history.h"

namespace radical {

struct LinearizabilityResult {
  bool linearizable = true;
  std::string violation;  // Human-readable description of the first failure.
};

// Checks one key's history against an atomic register initialized to
// `initial` (unit for "key absent"; reads of an absent key return unit).
// Requires ops.size() <= 64.
LinearizabilityResult CheckRegisterHistory(const std::vector<HistoryOp>& ops,
                                           const Value& initial);

// Checks every key of the recorded history; `initials` supplies per-key
// initial values (absent key -> unit).
LinearizabilityResult CheckHistory(const HistoryRecorder& history,
                                   const std::map<Key, Value>& initials);

}  // namespace radical

#endif  // RADICAL_SRC_CHECK_LINEARIZABILITY_H_
