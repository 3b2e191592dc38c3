#include "src/radical/trace.h"

#include <string>

namespace radical {

const char* AttemptPathName(AttemptPath path) {
  switch (path) {
    case AttemptPath::kLvi:
      return "lvi";
    case AttemptPath::kDirect:
      return "direct";
  }
  return "?";
}

namespace {

void AddClientSpan(obs::SpanCollector* spans, const RequestTrace& trace, const char* name,
                   SimTime start, SimTime end,
                   std::vector<std::pair<std::string, std::string>> args = {}) {
  if (end < start) {
    return;  // Phase never happened on this path.
  }
  spans->Add(obs::Span{name, "runtime", obs::SpanTrack::kClient, trace.exec_id, start,
                       end - start, std::move(args)});
}

}  // namespace

void AppendSpans(const RequestTrace& trace, obs::SpanCollector* spans) {
  if (spans == nullptr) {
    return;
  }
  // The whole request, annotated with its outcome.
  AddClientSpan(spans, trace, "request", trace.invoked, trace.replied,
                {{"function", trace.function},
                 {"region", RegionName(trace.region)},
                 {"speculated", trace.speculated ? "true" : "false"},
                 {"validated", trace.validated ? "true" : "false"},
                 {"direct", trace.direct ? "true" : "false"},
                 {"fallback_direct", trace.fallback_direct ? "true" : "false"},
                 {"retries", std::to_string(trace.retries)}});
  // The §5.5 components, laid end to end under the request span.
  AddClientSpan(spans, trace, "instantiation", trace.invoked, trace.FrwStartAnchor());
  if (trace.lvi_sent != 0) {
    AddClientSpan(spans, trace, "frw", trace.FrwStartAnchor(), trace.lvi_sent);
  }
  AddClientSpan(spans, trace, "overlap_window", trace.DepartAnchor(), trace.ResponseAnchor());
  if (trace.speculated && trace.spec_finished != 0) {
    AddClientSpan(spans, trace, "speculation", trace.lvi_sent, trace.spec_finished);
  }
  if (trace.preview_delivered != 0) {
    // Preview phase: from the tentative answer until the final resolves.
    AddClientSpan(spans, trace, "preview_window", trace.preview_delivered, trace.replied,
                  {{"confirmed", trace.validated && !trace.direct ? "true" : "false"}});
  }
  if (trace.LviStall() > 0) {
    AddClientSpan(spans, trace, "lvi_stall", trace.spec_finished, trace.response_received);
  }
  AddClientSpan(spans, trace, "completion", trace.ResponseAnchor(), trace.replied);
  if (trace.rerun) {
    AddClientSpan(spans, trace, "rerun", trace.response_received, trace.replied);
  }
  // One span per transmission, retries included.
  for (const RequestAttempt& attempt : trace.attempts) {
    const SimTime end = attempt.resolved != 0 ? attempt.resolved : attempt.sent;
    AddClientSpan(spans, trace,
                  (std::string(AttemptPathName(attempt.path)) + ".attempt#" +
                   std::to_string(attempt.number))
                      .c_str(),
                  attempt.sent, end,
                  {{"outcome", attempt.outcome.empty() ? "open" : attempt.outcome}});
  }
}

std::vector<const RequestTrace*> TraceCollector::ForFunction(const std::string& function) const {
  std::vector<const RequestTrace*> out;
  for (const RequestTrace& trace : traces_) {
    if (trace.function == function) {
      out.push_back(&trace);
    }
  }
  return out;
}

double TraceCollector::MeanMs(const std::string& function,
                              SimDuration (RequestTrace::*component)() const) const {
  double sum = 0.0;
  size_t n = 0;
  for (const RequestTrace& trace : traces_) {
    if (trace.function == function) {
      sum += ToMillis((trace.*component)());
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double TraceCollector::LviBoundFraction(const std::string& function) const {
  size_t bound = 0;
  size_t n = 0;
  for (const RequestTrace& trace : traces_) {
    if (trace.function != function || !trace.speculated || !trace.validated) {
      continue;
    }
    ++n;
    if (trace.LviStall() > 0) {
      ++bound;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(bound) / static_cast<double>(n);
}

}  // namespace radical
