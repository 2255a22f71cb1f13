#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "data/ipc.h"

namespace vegaplus {
namespace data {
namespace {

TablePtr SampleTable() {
  Schema schema({{"i", DataType::kInt64},
                 {"f", DataType::kFloat64},
                 {"s", DataType::kString},
                 {"b", DataType::kBool},
                 {"t", DataType::kTimestamp}});
  return MakeTable(schema, {
      {Value::Int(1), Value::Double(1.5), Value::String("a"), Value::Bool(true), Value::Timestamp(1000)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value::Int(-3), Value::Double(-2.25), Value::String("x,y\"z"), Value::Bool(false), Value::Timestamp(-5000)},
  });
}

TEST(BinaryIpcTest, RoundTripAllTypes) {
  TablePtr t = SampleTable();
  std::string buf = SerializeBinary(*t);
  auto r = DeserializeBinary(buf);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(t->Equals(**r));
}

TEST(BinaryIpcTest, EmptyTable) {
  TablePtr t = EmptyTable(Schema({{"a", DataType::kInt64}}));
  auto r = DeserializeBinary(SerializeBinary(*t));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 0u);
  EXPECT_EQ((*r)->num_columns(), 1u);
}

TEST(BinaryIpcTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeBinary("XXXXjunk").ok());
  EXPECT_FALSE(DeserializeBinary("").ok());
}

TEST(BinaryIpcTest, RejectsTruncation) {
  std::string buf = SerializeBinary(*SampleTable());
  for (size_t cut : {size_t{4}, size_t{10}, buf.size() / 2}) {
    EXPECT_FALSE(DeserializeBinary(buf.substr(0, cut)).ok()) << "cut=" << cut;
  }
}

/// Fixed-width columns with nulls at irregular rows (and a whole null byte
/// of the bitmap), edge values in the valid cells, and NaN/±Inf/-0.0.
TablePtr NullableFixedWidthTable(size_t rows) {
  Column f(DataType::kFloat64), i(DataType::kInt64), t(DataType::kTimestamp),
      b(DataType::kBool);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::nan(""), -0.0, inf, -inf, 2.5};
  for (size_t r = 0; r < rows; ++r) {
    if (r % 3 == 1 || (r >= 8 && r < 16)) {
      f.AppendNull();
      i.AppendNull();
      t.AppendNull();
      b.AppendNull();
      continue;
    }
    f.AppendDouble(specials[r % 5] * static_cast<double>(r));
    i.AppendInt(r % 2 == 0 ? INT64_MIN + static_cast<int64_t>(r)
                           : INT64_MAX - static_cast<int64_t>(r));
    t.AppendInt(-86400000LL + static_cast<int64_t>(r) * 1000);
    b.AppendBool(r % 4 == 0);
  }
  std::vector<Column> cols = {f, i, t, b};
  return std::make_shared<Table>(Schema({{"f", DataType::kFloat64},
                                         {"i", DataType::kInt64},
                                         {"t", DataType::kTimestamp},
                                         {"b", DataType::kBool}}),
                                 std::move(cols));
}

// The bulk decode keeps every cell bit for bit, nulls where they were, and
// zeros under them, as AppendNull stores them.
TEST(BinaryIpcTest, BulkDecodeRoundTripsNullsInFixedWidthColumns) {
  TablePtr t = NullableFixedWidthTable(1000);
  auto r = DeserializeBinary(SerializeBinary(*t));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(t->Equals(**r));
  for (size_t c = 0; c < t->num_columns(); ++c) {
    const Column& want = t->column(c);
    const Column& got = (*r)->column(c);
    ASSERT_EQ(got.null_count(), want.null_count()) << c;
    ASSERT_EQ(std::memcmp(got.validity_data(), want.validity_data(), want.length()), 0);
    const void* want_cells = want.type() == DataType::kFloat64
                                 ? static_cast<const void*>(want.doubles_data())
                                 : static_cast<const void*>(want.ints_data());
    const void* got_cells = got.type() == DataType::kFloat64
                                ? static_cast<const void*>(got.doubles_data())
                                : static_cast<const void*>(got.ints_data());
    EXPECT_EQ(std::memcmp(got_cells, want_cells, want.length() * 8), 0) << c;
  }
}

// Every proper prefix of a payload fails to decode, and so does a row count
// that the validity bitmaps cannot hold or a bool payload shorter than it.
TEST(BinaryIpcTest, BulkDecodeRejectsTruncationAndOversizedCounts) {
  const std::string buf = SerializeBinary(*NullableFixedWidthTable(37));
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ASSERT_FALSE(DeserializeBinary(buf.substr(0, cut)).ok()) << "cut=" << cut;
  }
  for (uint64_t rows : {uint64_t{38}, uint64_t{1} << 61, ~uint64_t{0}}) {
    std::string bad = buf;
    std::memcpy(&bad[8], &rows, 8);  // after the magic and the column count
    EXPECT_FALSE(DeserializeBinary(bad).ok()) << "rows=" << rows;
  }
  // One bool column of 24 rows whose value bits claim one byte of three.
  Column b(DataType::kBool);
  for (int r = 0; r < 24; ++r) b.AppendBool(true);
  std::vector<Column> cols = {b};
  std::string bools =
      SerializeBinary(Table(Schema({{"b", DataType::kBool}}), std::move(cols)));
  const uint32_t short_len = 1;
  std::memcpy(&bools[bools.size() - 7], &short_len, 4);
  bools.resize(bools.size() - 2);
  EXPECT_FALSE(DeserializeBinary(bools).ok());
}

TEST(BinaryIpcTest, RejectsUnknownColumnType) {
  // One 5-row float64 column named "f": its type byte follows the magic, the
  // column and row counts, and the length-prefixed name.
  Column f(DataType::kFloat64);
  for (int r = 0; r < 5; ++r) f.AppendDouble(r);
  std::vector<Column> cols = {f};
  std::string buf =
      SerializeBinary(Table(Schema({{"f", DataType::kFloat64}}), std::move(cols)));
  const size_t type_pos = 4 + 4 + 8 + 4 + 1;
  ASSERT_EQ(buf[type_pos], static_cast<char>(DataType::kFloat64));
  for (int type : {6, 9, 255}) {
    buf[type_pos] = static_cast<char>(type);
    EXPECT_FALSE(DeserializeBinary(buf).ok()) << "type byte " << type;
  }
}

TEST(JsonIpcTest, RoundTripSkipsNullCells) {
  TablePtr t = SampleTable();
  std::string text = SerializeJsonRows(*t);
  auto r = DeserializeJsonRows(text);
  ASSERT_TRUE(r.ok()) << r.status();
  const Table& back = **r;
  EXPECT_EQ(back.num_rows(), t->num_rows());
  // Timestamps degrade to numbers over JSON; values must still agree.
  EXPECT_EQ(back.ValueAt(0, "i"), Value::Int(1));
  EXPECT_EQ(back.ValueAt(0, "s"), Value::String("a"));
  EXPECT_TRUE(back.ValueAt(1, "i").is_null());
  EXPECT_DOUBLE_EQ(back.ValueAt(2, "t").AsDouble(), -5000.0);
}

TEST(JsonIpcTest, BinaryIsSmallerOnWideNumericTables) {
  // The premise of the paper's Arrow encoding choice: binary beats JSON.
  Schema schema({{"a", DataType::kFloat64}, {"b", DataType::kFloat64}});
  TableBuilder builder(schema);
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    builder.AppendRow({Value::Double(rng.NextDouble() * 12345.6789),
                       Value::Double(rng.NextDouble())});
  }
  TablePtr t = builder.Build();
  EXPECT_LT(SerializeBinary(*t).size(), SerializeJsonRows(*t).size());
}

TEST(JsonIpcTest, TableToJsonShape) {
  json::Value rows = TableToJson(*SampleTable());
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble("f"), 1.5);
  EXPECT_FALSE(rows[1].Has("f"));  // null cell omitted
}

TEST(JsonIpcTest, IntegerColumnsStayIntegral) {
  Schema schema({{"n", DataType::kInt64}});
  TablePtr t = MakeTable(schema, {{Value::Int(5)}, {Value::Int(9)}});
  auto r = DeserializeJsonRows(SerializeJsonRows(*t));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->schema().field(0).type, DataType::kInt64);
}

}  // namespace
}  // namespace data
}  // namespace vegaplus
