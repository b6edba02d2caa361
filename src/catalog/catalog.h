// Catalog of base relations and their statistics.
//
// The paper's category-1 parameters ("properties of the data — cardinalities
// of tables, distributions of values") live here. A table's size may itself
// be uncertain (e.g. after an initial selection whose selectivity is only
// estimated), in which case the catalog records a full distribution over its
// page count; Algorithm D consumes those distributions.
#ifndef LECOPT_CATALOG_CATALOG_H_
#define LECOPT_CATALOG_CATALOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/distribution.h"

namespace lec {

/// Identifies a table within a Catalog.
using TableId = int;

/// A base relation's statistics.
struct Table {
  std::string name;
  /// Point estimate of size in pages (the traditional optimizer input).
  double pages = 0;
  /// Rows per page, used by the storage engine when materializing synthetic
  /// data for this table.
  double rows_per_page = 64;
  /// Optional distribution over `pages` (after any initial selection). When
  /// absent, the size is treated as known exactly (point mass at `pages`).
  std::optional<Distribution> pages_dist;

  /// The size distribution: `pages_dist` if present, else a point mass.
  Distribution SizeDistribution() const {
    return pages_dist ? *pages_dist : Distribution::PointMass(pages);
  }

  /// SizeDistribution() without the copy: `pages_dist` in place, or the
  /// point mass built in `*storage` when it is absent.
  const Distribution& SizeDistributionRef(
      std::optional<Distribution>* storage) const {
    if (pages_dist) return *pages_dist;
    return storage->emplace(Distribution::PointMass(pages));
  }

  /// SizeDistribution().Mean() and .ContentHash(), read in place.
  double SizeMean() const {
    std::optional<Distribution> storage;
    return SizeDistributionRef(&storage).Mean();
  }
  uint64_t SizeContentHash() const {
    std::optional<Distribution> storage;
    return SizeDistributionRef(&storage).ContentHash();
  }
};

/// An append-only collection of tables.
class Catalog {
 public:
  /// Registers a table and returns its id. Page count must be positive.
  TableId AddTable(Table table);

  /// Convenience: registers a table with an exactly known size.
  TableId AddTable(const std::string& name, double pages);

  const Table& table(TableId id) const { return tables_.at(id); }
  size_t size() const { return tables_.size(); }

  /// Looks a table up by name; throws std::out_of_range if absent.
  TableId FindByName(const std::string& name) const;

  /// Replaces a table's size statistics in place — the seam the measured
  /// statistics pipeline (src/stats/) uses to install sketch-derived
  /// distributions, and to re-install them after data drift. Name and
  /// rows_per_page are unchanged. Page count must be positive and any
  /// distribution strictly positive, as in AddTable.
  void UpdateTableStats(TableId id, double pages,
                        std::optional<Distribution> pages_dist);

 private:
  std::vector<Table> tables_;
};

}  // namespace lec

#endif  // LECOPT_CATALOG_CATALOG_H_
