#include "expr/functions.h"

#include <cmath>
#include <unordered_map>

#include "data/csv.h"

namespace vegaplus {
namespace expr {

namespace {

using Args = std::vector<EvalValue>;

data::Value NumOrNull(const EvalValue& v) {
  if (v.is_array() || v.scalar().is_null()) return data::Value::Null();
  return v.scalar();
}

EvalValue Num1(const Args& args, double (*fn)(double)) {
  data::Value v = NumOrNull(args[0]);
  if (v.is_null()) return EvalValue::Null();
  return EvalValue::Number(fn(v.AsDouble()));
}

/// The date an argument names (TsMillis), or nullopt for null and non-dates.
std::optional<int64_t> DateArg(const EvalValue& arg) {
  data::Value v = NumOrNull(arg);
  if (v.is_null()) return std::nullopt;
  return TsMillis(v.AsDouble());
}

// Extract the civil date fields from epoch millis (UTC).
struct Civil {
  int64_t year;
  unsigned month;  // 1-12
  unsigned day;    // 1-31
  int hour, minute, second;
  int64_t days;  // days since epoch
};

Civil ToCivil(int64_t millis) {
  int64_t seconds = millis / 1000;
  if (millis % 1000 < 0) seconds -= 1;
  int64_t days = seconds / 86400;
  int64_t sod = seconds % 86400;
  if (sod < 0) {
    sod += 86400;
    days -= 1;
  }
  int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  Civil c;
  c.year = y + (m <= 2);
  c.month = m;
  c.day = d;
  c.hour = static_cast<int>(sod / 3600);
  c.minute = static_cast<int>((sod % 3600) / 60);
  c.second = static_cast<int>(sod % 60);
  c.days = days;
  return c;
}

int64_t FromCivilDate(int64_t year, unsigned month, unsigned day) {
  int64_t ms;
  // Reuse the CSV date math via formatting would be silly; inline the
  // days-from-civil algorithm.
  int64_t y = year;
  unsigned m = month;
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  const int64_t days = era * 146097LL + static_cast<int64_t>(doe) - 719468LL;
  ms = days * 86400000LL;
  return ms;
}

const std::unordered_map<std::string, FunctionDef>& Registry() {
  static const auto* kRegistry = [] {
    auto* m = new std::unordered_map<std::string, FunctionDef>();
    auto add = [&](FunctionDef def) { (*m)[def.name] = std::move(def); };

    add({"abs", 1, 1, [](const Args& a) { return Num1(a, [](double x) { return std::fabs(x); }); }, "ABS", true});
    add({"ceil", 1, 1, [](const Args& a) { return Num1(a, [](double x) { return std::ceil(x); }); }, "CEIL", true});
    add({"floor", 1, 1, [](const Args& a) { return Num1(a, [](double x) { return std::floor(x); }); }, "FLOOR", true});
    add({"round", 1, 1, [](const Args& a) { return Num1(a, [](double x) { return std::round(x); }); }, "ROUND", true});
    add({"sqrt", 1, 1, [](const Args& a) { return Num1(a, [](double x) { return std::sqrt(x); }); }, "SQRT", true});
    add({"exp", 1, 1, [](const Args& a) { return Num1(a, [](double x) { return std::exp(x); }); }, "EXP", true});
    add({"log", 1, 1, [](const Args& a) { return Num1(a, [](double x) { return std::log(x); }); }, "LN", true});
    add({"pow", 2, 2,
         [](const Args& a) {
           data::Value x = NumOrNull(a[0]), y = NumOrNull(a[1]);
           if (x.is_null() || y.is_null()) return EvalValue::Null();
           return EvalValue::Number(std::pow(x.AsDouble(), y.AsDouble()));
         },
         "POW", true});
    add({"min", 1, -1,
         [](const Args& a) {
           double best = std::numeric_limits<double>::infinity();
           for (const auto& v : a) {
             data::Value s = NumOrNull(v);
             if (s.is_null()) return EvalValue::Null();
             best = std::min(best, s.AsDouble());
           }
           return EvalValue::Number(best);
         },
         "LEAST", true});
    add({"max", 1, -1,
         [](const Args& a) {
           double best = -std::numeric_limits<double>::infinity();
           for (const auto& v : a) {
             data::Value s = NumOrNull(v);
             if (s.is_null()) return EvalValue::Null();
             best = std::max(best, s.AsDouble());
           }
           return EvalValue::Number(best);
         },
         "GREATEST", true});
    add({"clamp", 3, 3,
         [](const Args& a) {
           data::Value x = NumOrNull(a[0]), lo = NumOrNull(a[1]), hi = NumOrNull(a[2]);
           if (x.is_null() || lo.is_null() || hi.is_null()) return EvalValue::Null();
           return EvalValue::Number(
               std::min(std::max(x.AsDouble(), lo.AsDouble()), hi.AsDouble()));
         },
         "", true});  // bespoke emitter (LEAST/GREATEST nesting)
    add({"length", 1, 1,
         [](const Args& a) {
           if (a[0].is_array()) return EvalValue::Number(static_cast<double>(a[0].array().size()));
           if (a[0].scalar().is_string()) {
             return EvalValue::Number(static_cast<double>(a[0].scalar().AsString().size()));
           }
           return EvalValue::Null();
         },
         "LENGTH", true});
    add({"lower", 1, 1,
         [](const Args& a) {
           if (a[0].is_array() || !a[0].scalar().is_string()) return EvalValue::Null();
           std::string s = a[0].scalar().AsString();
           for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
           return EvalValue::String(std::move(s));
         },
         "LOWER", true});
    add({"upper", 1, 1,
         [](const Args& a) {
           if (a[0].is_array() || !a[0].scalar().is_string()) return EvalValue::Null();
           std::string s = a[0].scalar().AsString();
           for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
           return EvalValue::String(std::move(s));
         },
         "UPPER", true});
    add({"isValid", 1, 1,
         [](const Args& a) {
           return EvalValue::Bool(a[0].is_array() || !a[0].scalar().is_null());
         },
         "", true});  // bespoke: (x IS NOT NULL)
    add({"toNumber", 1, 1,
         [](const Args& a) {
           data::Value v = a[0].is_array() ? data::Value::Null() : a[0].scalar();
           if (v.is_null()) return EvalValue::Null();
           if (v.is_string()) {
             double d;
             char* end = nullptr;
             d = std::strtod(v.AsString().c_str(), &end);
             if (end != v.AsString().c_str() + v.AsString().size()) return EvalValue::Null();
             return EvalValue::Number(d);
           }
           return EvalValue::Number(v.AsDouble());
         },
         "", false});
    add({"toString", 1, 1,
         [](const Args& a) { return EvalValue::String(a[0].ToString()); }, "", false});
    add({"if", 3, 3,
         [](const Args& a) { return a[0].Truthy() ? a[1] : a[2]; }, "", true});  // CASE WHEN
    add({"inrange", 2, 2,
         [](const Args& a) {
           data::Value x = NumOrNull(a[0]);
           if (x.is_null() || !a[1].is_array() || a[1].array().size() < 2) {
             return EvalValue::Bool(false);
           }
           double lo = a[1].array()[0].AsDouble();
           double hi = a[1].array()[1].AsDouble();
           if (lo > hi) std::swap(lo, hi);
           double v = x.AsDouble();
           return EvalValue::Bool(v >= lo && v <= hi);
         },
         "", true});  // bespoke: BETWEEN
    add({"span", 1, 1,
         [](const Args& a) {
           if (!a[0].is_array() || a[0].array().size() < 2) return EvalValue::Number(0);
           return EvalValue::Number(a[0].array().back().AsDouble() -
                                    a[0].array().front().AsDouble());
         },
         "", false});
    add({"indexof", 2, 2,
         [](const Args& a) {
           if (a[0].is_array()) {
             const auto& arr = a[0].array();
             const data::Value needle = a[1].is_array() ? data::Value::Null() : a[1].scalar();
             for (size_t i = 0; i < arr.size(); ++i) {
               if (arr[i] == needle) return EvalValue::Number(static_cast<double>(i));
             }
             return EvalValue::Number(-1);
           }
           if (a[0].scalar().is_string() && !a[1].is_array() && a[1].scalar().is_string()) {
             size_t pos = a[0].scalar().AsString().find(a[1].scalar().AsString());
             return EvalValue::Number(pos == std::string::npos ? -1 : static_cast<double>(pos));
           }
           return EvalValue::Number(-1);
         },
         "", false});

    auto add_date = [&](const std::string& name, int64_t (*fn)(int64_t),
                        const std::string& sql) {
      add({name, 1, 1,
           [fn](const Args& a) {
             const std::optional<int64_t> ms = DateArg(a[0]);
             if (!ms) return EvalValue::Null();
             return EvalValue::Number(static_cast<double>(fn(*ms)));
           },
           sql, true});
    };
    add_date("year", TsYear, "YEAR");
    add_date("month", TsMonth, "MONTH");
    add_date("date", TsDayOfMonth, "DAY");
    add_date("day", TsDayOfWeek, "DAYOFWEEK");
    add_date("hours", TsHour, "HOUR");
    add_date("minutes", TsMinute, "MINUTE");
    add_date("seconds", TsSecond, "SECOND");
    add({"time", 1, 1,
         [](const Args& a) {
           data::Value v = NumOrNull(a[0]);
           if (v.is_null()) return EvalValue::Null();
           return EvalValue::Number(v.AsDouble());
         },
         "", false});

    // Date bucketing used by the SQL dialect (DATE_TRUNC / DATE_UNIT_END) and
    // the timeunit transform. Not part of the Vega surface language, but
    // registering them here keeps client and server semantics identical.
    add({"date_trunc", 2, 2,
         [](const Args& a) {
           if (a[0].is_array() || !a[0].scalar().is_string()) return EvalValue::Null();
           const std::optional<int64_t> ms = DateArg(a[1]);
           if (!ms) return EvalValue::Null();
           return EvalValue(data::Value::Timestamp(
               TsTruncate(*ms, a[0].scalar().AsString())));
         },
         "DATE_TRUNC", true});
    add({"date_unit_end", 2, 2,
         [](const Args& a) {
           if (a[0].is_array() || !a[0].scalar().is_string()) return EvalValue::Null();
           const std::optional<int64_t> ms = DateArg(a[1]);
           if (!ms) return EvalValue::Null();
           const std::string& unit = a[0].scalar().AsString();
           int64_t start = TsTruncate(*ms, unit);
           return EvalValue(data::Value::Timestamp(start + TsUnitWidth(start, unit)));
         },
         "DATE_UNIT_END", true});

    // Known-but-untranslatable functions (exercise the fallback path).
    add({"format", 2, 2,
         [](const Args& a) { return EvalValue::String(a[0].ToString()); }, "", false});
    add({"timeFormat", 2, 2,
         [](const Args& a) {
           const std::optional<int64_t> ms = DateArg(a[0]);
           if (!ms) return EvalValue::Null();
           return EvalValue::String(data::FormatTimestamp(*ms));
         },
         "", false});
    return m;
  }();
  return *kRegistry;
}

}  // namespace

const FunctionDef* FindFunction(const std::string& name) {
  const auto& reg = Registry();
  auto it = reg.find(name);
  return it == reg.end() ? nullptr : &it->second;
}

std::vector<std::string> FunctionNames() {
  std::vector<std::string> names;
  for (const auto& [name, def] : Registry()) names.push_back(name);
  return names;
}

std::optional<int64_t> TsMillis(double millis) {
  // 8.64e15 ms is 1e8 days either side of the epoch (ECMA-262 TimeClip).
  constexpr double kMaxDateMillis = 8.64e15;
  if (!(std::fabs(millis) <= kMaxDateMillis)) return std::nullopt;  // NaN too
  return static_cast<int64_t>(millis);
}

int64_t TsYear(int64_t millis) { return ToCivil(millis).year; }
int64_t TsMonth(int64_t millis) { return ToCivil(millis).month; }
int64_t TsDayOfMonth(int64_t millis) { return ToCivil(millis).day; }
int64_t TsDayOfWeek(int64_t millis) {
  // 1970-01-01 was a Thursday (4).
  int64_t days = ToCivil(millis).days;
  int64_t dow = (days + 4) % 7;
  if (dow < 0) dow += 7;
  return dow;
}
int64_t TsHour(int64_t millis) { return ToCivil(millis).hour; }
int64_t TsMinute(int64_t millis) { return ToCivil(millis).minute; }
int64_t TsSecond(int64_t millis) { return ToCivil(millis).second; }

int64_t TsTruncate(int64_t millis, const std::string& unit) {
  Civil c = ToCivil(millis);
  if (unit == "year") return FromCivilDate(c.year, 1, 1);
  if (unit == "month") return FromCivilDate(c.year, c.month, 1);
  if (unit == "week") {
    int64_t dow = TsDayOfWeek(millis);
    return (c.days - dow) * 86400000LL;
  }
  if (unit == "date" || unit == "day") return c.days * 86400000LL;
  if (unit == "hours") return c.days * 86400000LL + c.hour * 3600000LL;
  if (unit == "minutes") {
    return c.days * 86400000LL + c.hour * 3600000LL + c.minute * 60000LL;
  }
  if (unit == "seconds") {
    return c.days * 86400000LL + c.hour * 3600000LL + c.minute * 60000LL + c.second * 1000LL;
  }
  return millis;
}

int64_t TsUnitWidth(int64_t truncated, const std::string& unit) {
  if (unit == "year") {
    Civil c = ToCivil(truncated);
    return FromCivilDate(c.year + 1, 1, 1) - truncated;
  }
  if (unit == "month") {
    Civil c = ToCivil(truncated);
    unsigned m = c.month + 1;
    int64_t y = c.year;
    if (m > 12) {
      m = 1;
      ++y;
    }
    return FromCivilDate(y, m, 1) - truncated;
  }
  if (unit == "week") return 7LL * 86400000LL;
  if (unit == "date" || unit == "day") return 86400000LL;
  if (unit == "hours") return 3600000LL;
  if (unit == "minutes") return 60000LL;
  if (unit == "seconds") return 1000LL;
  return 1;
}

}  // namespace expr
}  // namespace vegaplus
