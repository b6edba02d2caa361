#include "storage/table_data.h"

#include <cmath>
#include <stdexcept>

#include "util/hash.h"

namespace lec {

size_t TableData::num_tuples() const {
  size_t n = 0;
  for (const Page& p : pages_) n += p.size();
  return n;
}

void TableData::Append(const Tuple& t) {
  if (pages_.empty() || pages_.back().Full()) {
    // One allocation per page instead of the vector's 1, 2, 4, ... 64.
    pages_.emplace_back().mutable_tuples().reserve(kTuplesPerPage);
  }
  pages_.back().Append(t);
}

std::vector<Tuple> TableData::AllTuples() const {
  std::vector<Tuple> out;
  out.reserve(num_tuples());
  for (const Page& p : pages_) {
    for (const Tuple& t : p.tuples()) out.push_back(t);
  }
  return out;
}

TableData GenerateTable(size_t num_pages, int64_t key_range0,
                        int64_t key_range1, Rng* rng) {
  TableData out;
  int64_t row = 0;
  for (size_t p = 0; p < num_pages; ++p) {
    for (size_t i = 0; i < kTuplesPerPage; ++i, ++row) {
      Tuple t;
      t.cols[0] = key_range0 > 0 ? rng->UniformInt(0, key_range0 - 1) : row;
      t.cols[1] = key_range1 > 0 ? rng->UniformInt(0, key_range1 - 1) : row;
      // Mixed through a bijection so payloads are uniform 64-bit values:
      // CombineTuples' additive lineage fingerprint needs a hashed domain,
      // and distinct-count sketches are unaffected (one payload per row).
      t.payload = static_cast<int64_t>(SplitMix64(static_cast<uint64_t>(row)));
      out.Append(t);
    }
  }
  return out;
}

int64_t KeyRangeForSelectivity(double selectivity) {
  if (selectivity <= 0 || selectivity > 1) {
    throw std::invalid_argument("selectivity in (0, 1]");
  }
  double k = static_cast<double>(kTuplesPerPage) / selectivity;
  return static_cast<int64_t>(std::llround(std::max(k, 1.0)));
}

}  // namespace lec
