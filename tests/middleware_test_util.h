// Shared helper for middleware tests: run one literal SQL string the way a
// client does, through the session API.
#ifndef VEGAPLUS_TESTS_MIDDLEWARE_TEST_UTIL_H_
#define VEGAPLUS_TESTS_MIDDLEWARE_TEST_UTIL_H_

#include <string>

#include "runtime/middleware.h"

namespace vegaplus {
namespace runtime {

/// Prepare `sql` as a parameterless template, Submit it through `service`
/// (the middleware's default session when null), Await the answer, and
/// Release the handle so the statement does not stay pinned.
inline Result<rewrite::QueryResponse> RunSql(Middleware& mw, const std::string& sql,
                                             rewrite::QueryService* service = nullptr) {
  rewrite::QueryService& via = service != nullptr ? *service : mw;
  VP_ASSIGN_OR_RETURN(rewrite::PreparedHandle handle, via.Prepare(sql));
  rewrite::QueryRequest request;
  request.handle = handle;
  Result<rewrite::QueryResponse> response = via.Submit(request)->Await();
  mw.Release(handle);
  return response;
}

}  // namespace runtime
}  // namespace vegaplus

#endif  // VEGAPLUS_TESTS_MIDDLEWARE_TEST_UTIL_H_
