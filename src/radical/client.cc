#include "src/radical/client.h"

#include "src/radical/runtime.h"

namespace radical {

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case RequestStatus::kPreview:
      return "preview";
    case RequestStatus::kAborted:
      return "aborted";
  }
  return "unknown";
}

void Client::Submit(Request request, OutcomeFn done) {
  Submit(std::move(request), RequestOptions(), std::move(done));
}

void Client::Submit(Request request, RequestOptions options, OutcomeFn done) {
  runtime_->Submit(std::move(request), std::move(options), std::move(done));
}

}  // namespace radical
