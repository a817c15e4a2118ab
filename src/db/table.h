// A minimal P2P table layer over LHT (paper Sec. 3.1: "in a P2P database,
// a tuple can be seen as a record, and any candidate key could be its data
// key"). A Table owns one LHT secondary index per indexed numeric column;
// rows are serialized tuples stored as index payloads, so every indexed
// column supports point, range, min/max and top-k selections directly, and
// the maintenance economics of the paper apply per index.
//
// All column values must be normalized into [0, 1] by the caller (the
// paper's key-space assumption); Table::normalizer helps with that.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dht/dht.h"
#include "index/ordered_index.h"
#include "lht/lht_index.h"

namespace lht::db {

/// A Table column's view of the shared DHT: prefixes the key of every call
/// that takes one with "<column>/", so the indexes of several columns
/// share one DHT without key collisions. Everything else forwards.
class NamespacedDht final : public dht::ForwardingDht {
 public:
  NamespacedDht(dht::Dht& inner, std::string prefix)
      : ForwardingDht(inner), prefix_(std::move(prefix)) {}

  void storeDirect(const dht::Key& key, dht::Value value) override {
    inner_.storeDirect(prefix_ + key, std::move(value));
  }

 private:
  void onCall(Call& call, const Forward& forward) override {
    call.key = prefix_ + call.key;
    forward();
  }
  void onRound(Round& round, const Issue& issue) override {
    for (dht::Key& key : round.keys) key = prefix_ + key;
    issue(round.all());
  }

  std::string prefix_;
};

/// One tuple: named numeric attributes plus an opaque payload.
struct Row {
  std::map<std::string, double> values;
  std::string payload;

  friend bool operator==(const Row&, const Row&) = default;
};

/// Maps a raw attribute domain [lo, hi] linearly onto [0, 1].
class Normalizer {
 public:
  Normalizer(double lo, double hi);
  [[nodiscard]] double toKey(double raw) const;
  [[nodiscard]] double fromKey(double key) const;

 private:
  double lo_, hi_;
};

class Table {
 public:
  struct Options {
    std::vector<std::string> indexedColumns;  ///< one LHT per entry
    core::LhtIndex::Options index;            ///< shared index tuning
  };

  /// All secondary indexes live in the caller's DHT.
  Table(dht::Dht& dht, Options options);

  /// Inserts a row; it must provide a value for every indexed column.
  /// Cost: one LHT insert per indexed column.
  void insert(const Row& row);

  /// Deletes all rows whose `column` equals `value` exactly (removes them
  /// from every index). Returns how many rows were deleted.
  size_t eraseWhere(const std::string& column, double value);

  /// SELECT * WHERE column == value.
  std::vector<Row> selectEquals(const std::string& column, double value);

  /// SELECT * WHERE lo <= column < hi, plus the query's cost.
  struct SelectResult {
    std::vector<Row> rows;
    cost::OpStats stats;
  };
  SelectResult selectRange(const std::string& column, double lo, double hi);

  /// SELECT MIN(column) / MAX(column): one DHT-lookup (Theorem 3).
  std::optional<Row> selectMin(const std::string& column);
  std::optional<Row> selectMax(const std::string& column);

  /// SELECT COUNT(*) WHERE lo <= column < hi.
  size_t countRange(const std::string& column, double lo, double hi);

  [[nodiscard]] size_t rowCount() const { return rowCount_; }
  [[nodiscard]] const std::vector<std::string>& indexedColumns() const {
    return columns_;
  }
  /// The underlying index of a column (for meters / diagnostics).
  [[nodiscard]] const core::LhtIndex& indexOf(const std::string& column) const;

 private:
  core::LhtIndex& mutableIndexOf(const std::string& column);
  static std::string encodeRow(const Row& row);
  static Row decodeRow(std::string_view bytes);

  std::vector<std::string> columns_;
  // One key-namespacing DHT adapter per column (indexes share the caller's
  // DHT without key collisions); adapters must outlive their indexes.
  std::vector<std::unique_ptr<NamespacedDht>> adapters_;
  std::map<std::string, std::unique_ptr<core::LhtIndex>> indexes_;
  size_t rowCount_ = 0;
};

}  // namespace lht::db
