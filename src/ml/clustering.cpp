#include "ml/clustering.hpp"

#include <limits>
#include <stdexcept>

#include "mapreduce/thread_pool.hpp"

namespace vhadoop::ml {

int nearest_center(const Vec& point, const std::vector<Vec>& centers) {
  if (centers.empty()) throw std::invalid_argument("nearest_center: no centers");
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const double d = squared_euclidean(point, centers[c]);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

CenterMatrix::CenterMatrix(const std::vector<Vec>& centers)
    : rows_(centers.size()), cols_(centers.empty() ? 0 : centers[0].size()) {
  data_.reserve(rows_ * cols_);
  for (const Vec& c : centers) {
    if (c.size() != cols_) throw std::invalid_argument("CenterMatrix: ragged centers");
    data_.insert(data_.end(), c.begin(), c.end());
  }
}

int nearest_center(std::span<const double> point, const CenterMatrix& centers) {
  if (centers.rows() == 0) throw std::invalid_argument("nearest_center: no centers");
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers.rows(); ++c) {
    const double d = squared_euclidean(point, centers.row(c));
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

std::vector<int> assign_nearest(const Dataset& data, const std::vector<Vec>& centers,
                                mapreduce::WorkerPool& pool) {
  const CenterMatrix flat(centers);
  std::vector<int> assignments(data.size());
  pool.parallel_for(data.size(), [&](std::size_t i) {
    assignments[i] = nearest_center(data.points[i], flat);
  });
  return assignments;
}

double total_cost(const Dataset& data, const std::vector<Vec>& centers) {
  double cost = 0.0;
  for (const Vec& p : data.points) {
    cost += squared_euclidean(p, centers[static_cast<std::size_t>(nearest_center(p, centers))]);
  }
  return cost;
}

}  // namespace vhadoop::ml
