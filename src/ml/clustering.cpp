#include "ml/clustering.hpp"

#include <cstring>
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

std::string encode_weighted_sum(double weight, std::span<const double> sum) {
  std::string out((sum.size() + 1) * sizeof(double), '\0');
  std::memcpy(out.data(), &weight, sizeof(double));
  if (!sum.empty()) {
    std::memcpy(out.data() + sizeof(double), sum.data(), sum.size() * sizeof(double));
  }
  return out;
}

std::pair<double, Vec> decode_weighted_sum(std::string_view payload) {
  Vec v = mapreduce::decode_vec(payload);
  const double weight = v.empty() ? 0.0 : v[0];
  Vec sum(v.begin() + (v.empty() ? 0 : 1), v.end());
  return {weight, std::move(sum)};
}

namespace {

class WeightedMeanReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    double weight = 0.0;
    sum_.clear();
    for (auto v : values) {
      const auto payload = mapreduce::decode_vec_view(v, scratch_);
      if (payload.empty()) continue;
      weight += payload[0];
      add_in_place(sum_, payload.subspan(1));
    }
    if (weight > 0.0) scale_in_place(sum_, 1.0 / weight);
    ctx.emit(key, encode_weighted_sum(weight, sum_));
  }

 private:
  Vec sum_;
  std::vector<double> scratch_;
};

}  // namespace

std::unique_ptr<mapreduce::Reducer> make_weighted_mean_reducer() {
  return std::make_unique<WeightedMeanReducer>();
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
