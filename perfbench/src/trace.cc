#include "trace.h"

#include <algorithm>
#include <fstream>

#include "expr/sql_translator.h"
#include "json/json_value.h"
#include "json/json_writer.h"

namespace perfbench {

namespace vp = vegaplus;

namespace {

// The middleware keys its caches, single-flight and before_dbms_execute by
// (canonical statement, bound parameters). This mirrors that key so a hook
// call can be attributed to the request that caused it.
std::string CacheKeyOf(const vp::sql::PreparedStatement& stmt,
                       const std::vector<vp::rewrite::QueryParam>& params) {
  std::string key = stmt.canonical_sql;
  for (const std::string& name : stmt.params) {
    key += '\x1f';
    key += name;
    key += '=';
    auto found = std::find_if(params.begin(), params.end(),
                              [&](const vp::rewrite::QueryParam& p) { return p.name == name; });
    if (found == params.end()) {
      key += "<unbound>";
    } else if (found->value.is_array()) {
      key += '[';
      for (size_t i = 0; i < found->value.array().size(); ++i) {
        if (i > 0) key += ',';
        key += vp::expr::SqlLiteral(found->value.array()[i]);
      }
      key += ']';
    } else {
      key += vp::expr::SqlLiteral(found->value.scalar());
    }
  }
  return key;
}

}  // namespace

int64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path, Clock::time_point origin) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    vp::json::Value v = vp::json::Value::MakeObject();
    v.Set("name", s.name);
    v.Set("id", s.id);
    v.Set("parent", s.parent);
    v.Set("request", s.request);
    v.Set("start_ms", Ms(s.start - origin));
    v.Set("end_ms", Ms(s.end - origin));
    out << vp::json::Write(v) << '\n';
  }
  out.flush();
  return out.good();
}

double CoveredMs(std::vector<Interval> intervals, Clock::time_point lo, Clock::time_point hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  bool open = false;
  Interval run;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (open && iv.first <= run.second) {
      run.second = std::max(run.second, iv.second);
      continue;
    }
    if (open) covered += Ms(run.second - run.first);
    run = iv;
    open = true;
  }
  if (open) covered += Ms(run.second - run.first);
  return covered;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    SelfTime& t = out[s.name];
    const double total = Ms(s.end - s.start);
    auto it = children.find(s.id);
    const double covered = it == children.end() ? 0 : CoveredMs(it->second, s.start, s.end);
    ++t.count;
    t.total_ms += total;
    t.self_ms += total - covered;
  }
  return out;
}

std::function<void(const std::string&)> DbmsStartLog::Hook() {
  return [this](const std::string& key) { OnDbmsExecute(key); };
}

void DbmsStartLog::Expect(const std::shared_ptr<RequestRecord>& record) {
  std::lock_guard<std::mutex> lock(mu_);
  open_[record->key].push_back(record);
}

void DbmsStartLog::Forget(const RequestRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(record.key);
  if (it == open_.end()) return;
  auto& queue = it->second;
  queue.erase(std::remove_if(queue.begin(), queue.end(),
                             [&](const std::shared_ptr<RequestRecord>& r) {
                               return r.get() == &record;
                             }),
              queue.end());
  if (queue.empty()) open_.erase(it);
}

size_t DbmsStartLog::unmatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unmatched_;
}

void DbmsStartLog::OnDbmsExecute(const std::string& key) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(key);
  if (it == open_.end()) {
    ++unmatched_;
    return;
  }
  RequestRecord& record = *it->second.front();
  record.dbms_start = now;
  record.reached_dbms = true;
  it->second.pop_front();
  if (it->second.empty()) open_.erase(it);
}

TracingService::TracingService(vp::rewrite::QueryService* inner, DbmsStartLog* dbms_log,
                               Tracer* tracer)
    : inner_(inner), dbms_log_(dbms_log), tracer_(tracer) {}

TracingService::~TracingService() { Drain(); }

vp::Result<vp::rewrite::PreparedHandle> TracingService::Prepare(
    const std::string& sql_template) {
  Span span{"runtime.prepare", Clock::now(), {}, tracer_->NewId(), parent_, parent_};
  vp::Result<vp::rewrite::PreparedHandle> handle = inner_->Prepare(sql_template);
  span.end = Clock::now();
  tracer_->Add(std::move(span));
  if (!handle.ok()) return handle;
  Statement& statement = statements_[*handle];
  if (statement.parsed == nullptr) {
    statement.sql_template = sql_template;
    auto parsed = vp::sql::PrepareStatement(sql_template);
    if (parsed.ok()) statement.parsed = *parsed;
  }
  return handle;
}

vp::rewrite::QueryTicketPtr TracingService::Submit(const vp::rewrite::QueryRequest& request) {
  auto record = std::make_shared<RequestRecord>();
  record->id = tracer_->NewId();
  record->parent = parent_;
  record->params = request.params;
  auto statement = statements_.find(request.handle);
  if (statement != statements_.end()) {
    record->sql_template = statement->second.sql_template;
    if (statement->second.parsed != nullptr) {
      record->key = CacheKeyOf(*statement->second.parsed, request.params);
    }
  }
  records_.push_back(record);
  // Registered before submitting: a worker may reach the engine before
  // Submit returns.
  if (!record->key.empty()) dbms_log_->Expect(record);
  record->submit = Clock::now();
  vp::rewrite::QueryTicketPtr ticket = inner_->Submit(request);

  auto finish = [record, ticket, log = dbms_log_, tracer = tracer_]() {
    const bool ok = ticket->Await().ok();
    record->done = Clock::now();
    // Forget also orders the hook's writes to the record before the reads
    // below: both run under the log's mutex.
    log->Forget(*record);
    record->ok = ok;
    tracer->Add({"runtime.request", record->submit, record->done, record->id, record->parent,
                 record->id});
    if (record->reached_dbms) {
      tracer->Add({"sql.execute", record->dbms_start, record->done, tracer->NewId(), record->id,
                   record->id});
    }
  };
  if (ticket->done()) {
    finish();  // answered inside Submit (client cache)
  } else {
    watchers_.emplace_back(std::move(finish));
  }
  return ticket;
}

void TracingService::Drain() {
  for (std::thread& watcher : watchers_) watcher.join();
  watchers_.clear();
}

}  // namespace perfbench
