// Materialized synthetic relations.
#ifndef LECOPT_STORAGE_TABLE_DATA_H_
#define LECOPT_STORAGE_TABLE_DATA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/page.h"
#include "util/rng.h"

namespace lec {

/// A relation stored as a sequence of pages ("on disk"). All operator I/O
/// against it is charged through the BufferPool. Append fills every page
/// but the last, so tuple i in storage order lives on page
/// i / kTuplesPerPage.
class TableData {
 public:
  TableData() = default;

  size_t num_pages() const { return pages_.size(); }
  size_t num_tuples() const;
  const Page& page(size_t i) const { return pages_[i]; }

  /// Appends `t`, opening a new page when the last is full.
  void Append(const Tuple& t);

  /// Flattens to a tuple vector (test helper).
  std::vector<Tuple> AllTuples() const;

  /// Streams every tuple in storage order without materializing a copy —
  /// the statistics ingest path (src/stats/) sketches millions of rows and
  /// must not pay an AllTuples allocation per pass.
  template <class Fn>
  void ForEachTuple(Fn&& fn) const {
    for (const Page& p : pages_) {
      for (const Tuple& t : p.tuples()) fn(t);
    }
  }

 private:
  std::vector<Page> pages_;
};

/// Generates `num_pages` full pages whose column c is uniform in
/// [0, key_range[c]) (key_range value 0 means the column is the row id —
/// unique keys). Payload is the global row number.
TableData GenerateTable(size_t num_pages, int64_t key_range0,
                        int64_t key_range1, Rng* rng);

/// Key range giving a target page-domain join selectivity for uniform keys:
/// matches = rows_a·rows_b/K and result pages = selectivity·|A|·|B| combine
/// to K = kTuplesPerPage / selectivity.
int64_t KeyRangeForSelectivity(double selectivity);

}  // namespace lec

#endif  // LECOPT_STORAGE_TABLE_DATA_H_
