#include "db/table.h"

#include <algorithm>

#include "common/codec.h"
#include "common/types.h"

namespace lht::db {

using common::checkInvariant;

Normalizer::Normalizer(double lo, double hi) : lo_(lo), hi_(hi) {
  checkInvariant(hi > lo, "Normalizer: empty domain");
}

double Normalizer::toKey(double raw) const {
  checkInvariant(raw >= lo_ && raw <= hi_, "Normalizer: value outside domain");
  return (raw - lo_) / (hi_ - lo_);
}

double Normalizer::fromKey(double key) const { return lo_ + key * (hi_ - lo_); }

Table::Table(dht::Dht& dht, Options options)
    : columns_(std::move(options.indexedColumns)) {
  checkInvariant(!columns_.empty(), "Table: need at least one indexed column");
  adapters_.reserve(columns_.size());
  for (const auto& col : columns_) {
    checkInvariant(indexes_.count(col) == 0, "Table: duplicate column");
    // Per-column key namespace: every index's bucket keys would otherwise
    // collide in the shared DHT ("#..." for each column), so each index
    // sees the DHT through a column-prefixed key space.
    adapters_.push_back(std::make_unique<NamespacedDht>(dht, col + "/"));
    indexes_.emplace(col, std::make_unique<core::LhtIndex>(*adapters_.back(),
                                                           options.index));
  }
}

// --- row codec ---------------------------------------------------------------

std::string Table::encodeRow(const Row& row) {
  common::Encoder enc;
  enc.putU32(static_cast<common::u32>(row.values.size()));
  for (const auto& [col, v] : row.values) {
    enc.putString(col);
    enc.putDouble(v);
  }
  enc.putString(row.payload);
  return std::move(enc).take();
}

Row Table::decodeRow(std::string_view bytes) {
  common::Decoder dec(bytes);
  auto n = dec.getU32();
  checkInvariant(n.has_value(), "Table: corrupt row");
  Row row;
  for (common::u32 i = 0; i < *n; ++i) {
    auto col = dec.getString();
    auto v = dec.getDouble();
    checkInvariant(col && v, "Table: corrupt row value");
    row.values.emplace(std::move(*col), *v);
  }
  auto payload = dec.getString();
  checkInvariant(payload.has_value(), "Table: corrupt row payload");
  row.payload = std::move(*payload);
  return row;
}

// --- operations ----------------------------------------------------------

core::LhtIndex& Table::mutableIndexOf(const std::string& column) {
  auto it = indexes_.find(column);
  checkInvariant(it != indexes_.end(), "Table: unknown column");
  return *it->second;
}

const core::LhtIndex& Table::indexOf(const std::string& column) const {
  auto it = indexes_.find(column);
  checkInvariant(it != indexes_.end(), "Table: unknown column");
  return *it->second;
}

void Table::insert(const Row& row) {
  const std::string bytes = encodeRow(row);
  for (const auto& col : columns_) {
    auto it = row.values.find(col);
    checkInvariant(it != row.values.end(), "Table::insert: missing column value");
    mutableIndexOf(col).insert({it->second, bytes});
  }
  rowCount_ += 1;
}

size_t Table::eraseWhere(const std::string& column, double value) {
  // Fetch the victims first so the other indexes can be cleaned too.
  auto victims = selectEquals(column, value);
  for (const auto& row : victims) {
    for (const auto& col : columns_) {
      mutableIndexOf(col).erase(row.values.at(col));
    }
  }
  rowCount_ -= victims.size();
  return victims.size();
}

std::vector<Row> Table::selectEquals(const std::string& column, double value) {
  std::vector<Row> out;
  auto lk = mutableIndexOf(column).lookup(value);
  if (!lk.bucket) return out;
  for (const auto& r : lk.bucket->records) {
    if (r.key == value) out.push_back(decodeRow(r.payload));
  }
  return out;
}

Table::SelectResult Table::selectRange(const std::string& column, double lo,
                                       double hi) {
  SelectResult out;
  auto rr = mutableIndexOf(column).rangeQuery(lo, hi);
  out.stats = rr.stats;
  out.rows.reserve(rr.records.size());
  for (const auto& r : rr.records) out.rows.push_back(decodeRow(r.payload));
  return out;
}

std::optional<Row> Table::selectMin(const std::string& column) {
  auto res = mutableIndexOf(column).minRecord();
  if (!res.record) return std::nullopt;
  return decodeRow(res.record->payload);
}

std::optional<Row> Table::selectMax(const std::string& column) {
  auto res = mutableIndexOf(column).maxRecord();
  if (!res.record) return std::nullopt;
  return decodeRow(res.record->payload);
}

size_t Table::countRange(const std::string& column, double lo, double hi) {
  return mutableIndexOf(column).rangeQuery(lo, hi).records.size();
}

}  // namespace lht::db
