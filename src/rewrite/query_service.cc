#include "rewrite/query_service.h"

namespace vegaplus {
namespace rewrite {

Result<QueryResponse> QueryTicket::Await() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return response_;
}

Result<QueryResponse> QueryTicket::Await(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, timeout, [this] { return done_; })) {
    // Timed out: the request stays in flight (no cancellation), so a later
    // Await can still observe the result once it lands.
    return Status::DeadlineExceeded("Await timed out; request still in flight");
  }
  return response_;
}

bool QueryTicket::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_ || delivery_decided_) return false;
  cancel_requested_ = true;
  if (cancel_token_) cancel_token_->Cancel();
  if (!executing_) {
    // Never started: resolve right away so Await() does not block on a
    // request no worker will ever pick up after the service drops it.
    done_ = true;
    response_ = Status::Cancelled("query superseded before execution");
    cv_.notify_all();
  }
  return true;
}

bool QueryTicket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

bool QueryTicket::cancel_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancel_requested_;
}

QueryTicketPtr QueryTicket::Ready(Result<QueryResponse> response, uint64_t generation) {
  auto ticket = std::make_shared<QueryTicket>(generation);
  ticket->done_ = true;
  ticket->response_ = std::move(response);
  return ticket;
}

void QueryTicket::LinkCancel(std::shared_ptr<common::CancelToken> token) {
  std::lock_guard<std::mutex> lock(mu_);
  if (token && cancel_requested_) token->Cancel();
  cancel_token_ = std::move(token);
}

bool QueryTicket::BeginExecution() {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_ || cancel_requested_) return false;
  executing_ = true;
  return true;
}

bool QueryTicket::CommitDelivery() {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_ || delivery_decided_) return false;
  delivery_decided_ = true;
  deliver_response_ = !cancel_requested_;
  return deliver_response_;
}

void QueryTicket::Deliver(Result<QueryResponse> response) {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_) return;
  done_ = true;
  // Without a prior CommitDelivery (convenience paths), decide here.
  if (!delivery_decided_) deliver_response_ = !cancel_requested_;
  response_ = deliver_response_
                  ? std::move(response)
                  : Result<QueryResponse>(Status::Cancelled("query superseded"));
  cv_.notify_all();
}

}  // namespace rewrite
}  // namespace vegaplus
