// Validates machine-readable benchmark output against its schema.
//
//   bench_json_check BENCH_radical.json          — BENCH report schema
//   bench_json_check --trace trace.json          — Chrome trace-event schema
//
// Exit status 0 when the file parses as JSON and carries every required
// field with the right type; 1 otherwise, with a diagnostic on stderr.
// tools/check.sh runs this in CHECK_BENCH_SMOKE mode so a bench whose
// export drifts from docs/observability.md fails CI rather than producing
// a file no downstream script can read.
//
// The parser is a deliberately small recursive-descent JSON reader — enough
// to validate our own exports without pulling in a dependency.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace {

// --- JSON value + parser -----------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is(Type t) const { return type == t; }
  const JsonValue* Find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after top-level value");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool Consume(char c) {
    if (!Peek(c)) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) != 0) {
      return Fail(std::string("expected '") + literal + "'");
    }
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return ConsumeLiteral("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return ConsumeLiteral("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) {
      return false;
    }
    SkipWs();
    if (Peek('}')) {
      return Consume('}');
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) {
      return false;
    }
    SkipWs();
    if (Peek(']')) {
      return Consume(']');
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          // Validation only needs well-formedness, not transcoding: keep the
          // escape verbatim.
          out->append("\\u");
          out->append(text_, pos_, 4);
          pos_ += 4;
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Peek('-')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

// --- Schema checks -----------------------------------------------------------

int g_errors = 0;

void Report(const std::string& path, const std::string& message) {
  std::fprintf(stderr, "bench_json_check: %s: %s\n", path.c_str(), message.c_str());
  ++g_errors;
}

const JsonValue* Require(const JsonValue& obj, const std::string& where, const std::string& key,
                         JsonValue::Type type) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    Report(where, "missing required field '" + key + "'");
    return nullptr;
  }
  if (!v->is(type)) {
    Report(where, "field '" + key + "' has the wrong type");
    return nullptr;
  }
  return v;
}

void CheckSummary(const JsonValue& summary, const std::string& where) {
  for (const char* field : {"count", "mean", "min", "p50", "p90", "p99", "max"}) {
    Require(summary, where, field, JsonValue::Type::kNumber);
  }
}

// Throughput-vs-configuration curves (bench/throughput_server.cc): each
// curve is {name, points[]}, each point one measured server configuration.
void CheckCurves(const JsonValue& curves, const std::string& path) {
  for (size_t i = 0; i < curves.array.size(); ++i) {
    const JsonValue& curve = curves.array[i];
    const std::string where = path + " curves[" + std::to_string(i) + "]";
    if (!curve.is(JsonValue::Type::kObject)) {
      Report(where, "entry is not an object");
      continue;
    }
    Require(curve, where, "name", JsonValue::Type::kString);
    const JsonValue* points = Require(curve, where, "points", JsonValue::Type::kArray);
    if (points == nullptr) {
      continue;
    }
    if (points->array.empty()) {
      Report(where, "points array is empty");
    }
    for (size_t j = 0; j < points->array.size(); ++j) {
      const JsonValue& point = points->array[j];
      const std::string pwhere = where + ".points[" + std::to_string(j) + "]";
      if (!point.is(JsonValue::Type::kObject)) {
        Report(pwhere, "entry is not an object");
        continue;
      }
      for (const char* field : {"shards", "clients", "offered_rps", "throughput_rps", "p50_ms",
                                "p90_ms", "p99_ms"}) {
        Require(point, pwhere, field, JsonValue::Type::kNumber);
      }
      // Goodput accounting joined the point schema with the open-loop
      // saturation fix; reports written before then simply lack the keys.
      const JsonValue* goodput = point.Find("goodput_rps");
      if (goodput != nullptr) {
        for (const char* field : {"goodput_rps", "aborts", "reexecutions"}) {
          Require(point, pwhere, field, JsonValue::Type::kNumber);
        }
        const JsonValue* tput = point.Find("throughput_rps");
        if (goodput->is(JsonValue::Type::kNumber) && tput != nullptr &&
            tput->is(JsonValue::Type::kNumber) &&
            goodput->number > tput->number + 0.5) {
          Report(pwhere, "goodput_rps exceeds throughput_rps");
        }
      }
      const JsonValue* shards = point.Find("shards");
      if (shards != nullptr && shards->is(JsonValue::Type::kNumber) && shards->number < 1) {
        Report(pwhere, "shards must be >= 1");
      }
      // Overload-control accounting joined the point schema with bounded
      // admission + deadline shedding; reports written before then simply
      // lack the keys. When any of the group is present, the whole group
      // must be, with the right types.
      const JsonValue* control = point.Find("overload_control");
      if (control != nullptr) {
        if (!control->is(JsonValue::Type::kBool)) {
          Report(pwhere, "field 'overload_control' has the wrong type");
        }
        for (const char* field : {"rejected", "shed", "deadline_exceeded", "queue_depth_peak"}) {
          const JsonValue* v = Require(point, pwhere, field, JsonValue::Type::kNumber);
          if (v != nullptr && v->number < 0) {
            Report(pwhere, std::string("field '") + field + "' must be >= 0");
          }
        }
        // An uncontrolled point cannot report backpressure activity: with no
        // queue limit and no deadline the server never rejects or sheds.
        if (control->is(JsonValue::Type::kBool) && !control->boolean) {
          for (const char* field : {"rejected", "shed"}) {
            const JsonValue* v = point.Find(field);
            if (v != nullptr && v->is(JsonValue::Type::kNumber) && v->number > 0) {
              Report(pwhere, std::string("uncontrolled point reports nonzero '") + field + "'");
            }
          }
        }
      }
      // Replicated-lock accounting (bench/sec5_6_replication multi-Raft
      // curves) is keyed on 'raft_groups': when present the whole group must
      // be, a point must run at least one group, answer percentages must be
      // percentages, and the observed history must have checked out
      // linearizable — a non-linearizable point is a correctness failure,
      // not a measurement. A point without a leader kill must need no
      // compensating release: the lock service acts on each committed grant
      // once, so only a fault can land a grant after its release. Nor may
      // it send more than two AppendEntries per follower per commit: the
      // leader pipelines, so each entry ships once plus heartbeats, and a
      // count above that is the append storm of resending unacknowledged
      // entries.
      const JsonValue* groups = point.Find("raft_groups");
      if (groups != nullptr) {
        if (!groups->is(JsonValue::Type::kNumber) || groups->number < 1) {
          Report(pwhere, "field 'raft_groups' must be a number >= 1");
        }
        for (const char* field : {"leader_kills", "replies_pct", "compensating_releases",
                                  "raft_nodes", "appends_per_commit"}) {
          const JsonValue* v = Require(point, pwhere, field, JsonValue::Type::kNumber);
          if (v != nullptr && v->number < 0) {
            Report(pwhere, std::string("field '") + field + "' must be >= 0");
          }
        }
        const JsonValue* replies = point.Find("replies_pct");
        if (replies != nullptr && replies->is(JsonValue::Type::kNumber) &&
            replies->number > 100.0 + 1e-9) {
          Report(pwhere, "field 'replies_pct' must be <= 100");
        }
        const JsonValue* kills = point.Find("leader_kills");
        const JsonValue* compensations = point.Find("compensating_releases");
        if (kills != nullptr && kills->is(JsonValue::Type::kNumber) && kills->number == 0 &&
            compensations != nullptr && compensations->is(JsonValue::Type::kNumber) &&
            compensations->number > 0) {
          Report(pwhere, "fault-free replicated point reports compensating releases");
        }
        const JsonValue* nodes = point.Find("raft_nodes");
        const JsonValue* appends = point.Find("appends_per_commit");
        if (kills != nullptr && kills->is(JsonValue::Type::kNumber) && kills->number == 0 &&
            nodes != nullptr && nodes->is(JsonValue::Type::kNumber) && appends != nullptr &&
            appends->is(JsonValue::Type::kNumber) &&
            appends->number > 2.0 * (nodes->number - 1)) {
          Report(pwhere, "fault-free replicated point sends more than 2 appends per follower "
                         "per commit");
        }
        const JsonValue* linearizable = point.Find("linearizable");
        if (linearizable == nullptr || !linearizable->is(JsonValue::Type::kBool)) {
          Report(pwhere, "missing or mistyped field 'linearizable'");
        } else if (!linearizable->boolean) {
          Report(pwhere, "replicated point's history was not linearizable");
        }
      }
      // Replicated acquisition cost (bench/sec5_6_replication's serial vs
      // batched table) is keyed on 'locks': when present both medians must
      // be, each positive (a failed acquisition reports -1), and taking the
      // keys as one run may not cost more than one commit per lock.
      const JsonValue* locks = point.Find("locks");
      if (locks != nullptr) {
        if (!locks->is(JsonValue::Type::kNumber) || locks->number < 1) {
          Report(pwhere, "field 'locks' must be a number >= 1");
        }
        const JsonValue* serial = Require(point, pwhere, "serial_ms", JsonValue::Type::kNumber);
        const JsonValue* batched =
            Require(point, pwhere, "batched_ms", JsonValue::Type::kNumber);
        for (const JsonValue* v : {serial, batched}) {
          if (v != nullptr && v->number <= 0) {
            Report(pwhere, "acquire medians must be > 0");
          }
        }
        if (serial != nullptr && batched != nullptr && batched->number > serial->number) {
          Report(pwhere, "batched_ms exceeds serial_ms");
        }
      }
      // Consistency-spectrum accounting (bench/consistency_spectrum session
      // curves) is keyed on 'session_point': when present the whole group
      // must be, the preview gap cannot be negative (a preview never lands
      // after its final), accuracy is a percentage, and preview/failover
      // counts are non-negative.
      const JsonValue* session = point.Find("session_point");
      if (session != nullptr) {
        if (!session->is(JsonValue::Type::kBool)) {
          Report(pwhere, "field 'session_point' has the wrong type");
        }
        for (const char* field :
             {"preview_gap_ms", "preview_p50_ms", "preview_accuracy_pct", "previews",
              "failovers"}) {
          const JsonValue* v = Require(point, pwhere, field, JsonValue::Type::kNumber);
          if (v != nullptr && v->number < 0) {
            Report(pwhere, std::string("field '") + field + "' must be >= 0");
          }
        }
        const JsonValue* accuracy = point.Find("preview_accuracy_pct");
        if (accuracy != nullptr && accuracy->is(JsonValue::Type::kNumber) &&
            accuracy->number > 100.0 + 1e-9) {
          Report(pwhere, "field 'preview_accuracy_pct' must be <= 100");
        }
        // A point that delivered previews must have measured a positive gap:
        // previews are only worth delivering while the final is unresolved.
        const JsonValue* previews = point.Find("previews");
        const JsonValue* gap = point.Find("preview_gap_ms");
        if (previews != nullptr && previews->is(JsonValue::Type::kNumber) &&
            previews->number > 0 && gap != nullptr && gap->is(JsonValue::Type::kNumber) &&
            gap->number <= 0) {
          Report(pwhere, "session point delivered previews but preview_gap_ms is not > 0");
        }
      }
    }
  }
}

// Hand-timed simulator-core microbenchmarks (bench/micro_core.cc): each
// entry is {name, iterations, ns_per_op, ops_per_sec}.
void CheckMicro(const JsonValue& micro, const std::string& path) {
  for (size_t i = 0; i < micro.array.size(); ++i) {
    const JsonValue& entry = micro.array[i];
    const std::string where = path + " micro[" + std::to_string(i) + "]";
    if (!entry.is(JsonValue::Type::kObject)) {
      Report(where, "entry is not an object");
      continue;
    }
    Require(entry, where, "name", JsonValue::Type::kString);
    for (const char* field : {"iterations", "ns_per_op", "ops_per_sec"}) {
      Require(entry, where, field, JsonValue::Type::kNumber);
    }
    const JsonValue* ops = entry.Find("ops_per_sec");
    if (ops != nullptr && ops->is(JsonValue::Type::kNumber) && ops->number <= 0) {
      Report(where, "ops_per_sec must be positive");
    }
  }
}

void CheckBenchReport(const JsonValue& root, const std::string& path) {
  if (!root.is(JsonValue::Type::kObject)) {
    Report(path, "top level is not an object");
    return;
  }
  Require(root, path, "bench", JsonValue::Type::kString);
  Require(root, path, "smoke", JsonValue::Type::kBool);
  const JsonValue* version = Require(root, path, "schema_version", JsonValue::Type::kNumber);
  if (version != nullptr && version->number != 2.0) {
    Report(path, "unsupported schema_version (expected 2)");
  }
  const JsonValue* unit = Require(root, path, "latency_unit", JsonValue::Type::kString);
  if (unit != nullptr && unit->string != "ms") {
    Report(path, "latency_unit must be \"ms\"");
  }
  const JsonValue* curves = Require(root, path, "curves", JsonValue::Type::kArray);
  if (curves != nullptr) {
    CheckCurves(*curves, path);
  }
  // "micro" joined the schema with the simulator-core benchmarks; reports
  // written before then simply lack the key, so it is optional.
  const JsonValue* micro = root.Find("micro");
  if (micro != nullptr) {
    if (!micro->is(JsonValue::Type::kArray)) {
      Report(path, "field 'micro' has the wrong type");
      micro = nullptr;
    } else {
      CheckMicro(*micro, path);
    }
  }
  const JsonValue* experiments = Require(root, path, "experiments", JsonValue::Type::kArray);
  if (experiments == nullptr) {
    return;
  }
  if (experiments->array.empty() && (curves == nullptr || curves->array.empty()) &&
      (micro == nullptr || micro->array.empty())) {
    Report(path, "experiments, curves, and micro are all empty");
  }
  for (size_t i = 0; i < experiments->array.size(); ++i) {
    const JsonValue& exp = experiments->array[i];
    const std::string where = path + " experiments[" + std::to_string(i) + "]";
    if (!exp.is(JsonValue::Type::kObject)) {
      Report(where, "entry is not an object");
      continue;
    }
    Require(exp, where, "name", JsonValue::Type::kString);
    Require(exp, where, "requests", JsonValue::Type::kNumber);
    const JsonValue* latency = Require(exp, where, "latency_ms", JsonValue::Type::kObject);
    if (latency != nullptr) {
      CheckSummary(*latency, where + ".latency_ms");
    }
    const JsonValue* regions = Require(exp, where, "per_region_ms", JsonValue::Type::kObject);
    if (regions != nullptr) {
      for (const auto& [region, summary] : regions->object) {
        if (!summary.is(JsonValue::Type::kObject)) {
          Report(where, "per_region_ms." + region + " is not an object");
          continue;
        }
        CheckSummary(summary, where + ".per_region_ms." + region);
      }
    }
    const JsonValue* protocol = Require(exp, where, "protocol", JsonValue::Type::kObject);
    if (protocol != nullptr) {
      for (const char* field : {"validation_success_rate", "validation_ok_pct",
                                "backup_execs_per_req", "snapshot_reruns_per_req",
                                "reexecutions", "primary_reruns", "lock_waits",
                                "speculations", "wan_bytes", "lvi_requests"}) {
        Require(*protocol, where + ".protocol", field, JsonValue::Type::kNumber);
      }
      const JsonValue* ok_pct = protocol->Find("validation_ok_pct");
      if (ok_pct != nullptr && ok_pct->is(JsonValue::Type::kNumber) &&
          (ok_pct->number < 0.0 || ok_pct->number > 100.0)) {
        Report(where + ".protocol", "validation_ok_pct outside [0, 100]");
      }
      // The two answers to a failed validation: a backup at the primary, a
      // rerun at the PoP.
      for (const char* field : {"backup_execs_per_req", "snapshot_reruns_per_req"}) {
        const JsonValue* per_req = protocol->Find(field);
        if (per_req != nullptr && per_req->is(JsonValue::Type::kNumber) && per_req->number < 0.0) {
          Report(where + ".protocol", std::string(field) + " is negative");
        }
      }
    }
    // Optional (Radical runs): each region's share of failed validations.
    if (const JsonValue* fail_pct = exp.Find("per_region_validation_fail_pct")) {
      if (!fail_pct->is(JsonValue::Type::kObject)) {
        Report(where, "per_region_validation_fail_pct is not an object");
      } else {
        for (const auto& [region, pct] : fail_pct->object) {
          if (!pct.is(JsonValue::Type::kNumber) || pct.number < 0.0 || pct.number > 100.0) {
            Report(where, "per_region_validation_fail_pct." + region + " outside [0, 100]");
          }
        }
      }
    }
    const JsonValue* simulator = Require(exp, where, "simulator", JsonValue::Type::kObject);
    if (simulator != nullptr) {
      for (const char* field : {"sim_seconds", "wall_seconds", "requests_per_wall_second"}) {
        Require(*simulator, where + ".simulator", field, JsonValue::Type::kNumber);
      }
    }
  }
}

void CheckChromeTrace(const JsonValue& root, const std::string& path) {
  if (!root.is(JsonValue::Type::kObject)) {
    Report(path, "top level is not an object");
    return;
  }
  const JsonValue* events = Require(root, path, "traceEvents", JsonValue::Type::kArray);
  if (events == nullptr) {
    return;
  }
  if (events->array.empty()) {
    Report(path, "traceEvents array is empty");
  }
  size_t complete_events = 0;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    const std::string where = path + " traceEvents[" + std::to_string(i) + "]";
    if (!event.is(JsonValue::Type::kObject)) {
      Report(where, "entry is not an object");
      continue;
    }
    const JsonValue* ph = Require(event, where, "ph", JsonValue::Type::kString);
    Require(event, where, "pid", JsonValue::Type::kNumber);
    if (ph == nullptr) {
      continue;
    }
    if (ph->string == "M") {
      continue;  // Metadata (process_name) events carry name/args only.
    }
    if (ph->string != "X") {
      Report(where, "unexpected event phase '" + ph->string + "'");
      continue;
    }
    ++complete_events;
    Require(event, where, "name", JsonValue::Type::kString);
    Require(event, where, "tid", JsonValue::Type::kNumber);
    const JsonValue* ts = Require(event, where, "ts", JsonValue::Type::kNumber);
    const JsonValue* dur = Require(event, where, "dur", JsonValue::Type::kNumber);
    if (ts != nullptr && ts->number < 0) {
      Report(where, "negative ts");
    }
    if (dur != nullptr && dur->number < 0) {
      Report(where, "negative dur");
    }
  }
  if (complete_events == 0) {
    Report(path, "no complete (\"ph\":\"X\") events");
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    out->append(buffer, n);
  }
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool trace_mode = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_mode = true;
    } else {
      path = argv[i];
    }
  }
  if (path.empty()) {
    path = "BENCH_radical.json";
  }

  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "bench_json_check: cannot read %s\n", path.c_str());
    return 1;
  }
  Parser parser(text);
  JsonValue root;
  if (!parser.Parse(&root)) {
    std::fprintf(stderr, "bench_json_check: %s: parse error: %s\n", path.c_str(),
                 parser.error().c_str());
    return 1;
  }
  if (trace_mode) {
    CheckChromeTrace(root, path);
  } else {
    CheckBenchReport(root, path);
  }
  if (g_errors > 0) {
    return 1;
  }
  std::printf("%s: OK (%s schema)\n", path.c_str(), trace_mode ? "trace-event" : "BENCH report");
  return 0;
}
