#include <gtest/gtest.h>

#include <set>

#include "mapreduce/thread_pool.hpp"
#include "ml/canopy.hpp"
#include "ml/dirichlet.hpp"
#include "ml/fuzzy_kmeans.hpp"
#include "ml/kmeans.hpp"
#include "ml/meanshift.hpp"
#include "ml/minhash.hpp"
#include "sim/rng.hpp"

namespace vhadoop::ml {
namespace {

Dataset tight_blobs() {
  // Three well-separated tight blobs: every sane clustering must find them.
  Dataset data;
  sim::Rng rng(1);
  const Vec centers[] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 40; ++i) {
      data.points.push_back(
          {centers[c][0] + rng.normal(0, 0.3), centers[c][1] + rng.normal(0, 0.3)});
      data.labels.push_back(c);
    }
  }
  return data;
}

/// Fraction of pairs (same-label vs same-cluster) that agree — Rand index.
double rand_index(const std::vector<int>& labels, const std::vector<int>& assign) {
  std::size_t agree = 0, total = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = i + 1; j < labels.size(); ++j) {
      const bool same_label = labels[i] == labels[j];
      const bool same_cluster = assign[i] == assign[j];
      agree += (same_label == same_cluster);
      ++total;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

// --- Canopy -------------------------------------------------------------------

TEST(Canopy, KernelCoversEveryPoint) {
  auto data = tight_blobs();
  auto centers = canopy_centers(data.points, 3.0, 1.5);
  EXPECT_GE(centers.size(), 3u);
  for (const Vec& p : data.points) {
    double best = 1e18;
    for (const Vec& c : centers) best = std::min(best, euclidean(p, c));
    EXPECT_LE(best, 3.0) << "point not covered by any canopy (T1)";
  }
  // No two canopy centers within T2 of each other.
  for (std::size_t i = 0; i < centers.size(); ++i) {
    for (std::size_t j = i + 1; j < centers.size(); ++j) {
      EXPECT_GT(euclidean(centers[i], centers[j]), 1.5);
    }
  }
}

TEST(Canopy, T1SmallerThanT2Throws) {
  auto data = tight_blobs();
  EXPECT_THROW(canopy_centers(data.points, 1.0, 2.0), std::invalid_argument);
}

TEST(Canopy, MapReduceFindsThreeBlobs) {
  auto data = tight_blobs();
  auto run = canopy_cluster(data, {.t1 = 4.0, .t2 = 2.0, .base = {.num_splits = 4}});
  EXPECT_EQ(run.centers.size(), 3u);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
  EXPECT_EQ(run.jobs.size(), 1u);
  EXPECT_EQ(run.iterations, 1);
}

TEST(Canopy, SplitCountDoesNotChangeCoverage) {
  auto data = tight_blobs();
  for (int splits : {1, 2, 8}) {
    auto run = canopy_cluster(data, {.t1 = 4.0, .t2 = 2.0, .base = {.num_splits = splits}});
    EXPECT_EQ(run.centers.size(), 3u) << "splits=" << splits;
  }
}

// --- k-means -------------------------------------------------------------------

TEST(KMeans, RecoversBlobs) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 20}});
  EXPECT_EQ(run.centers.size(), 3u);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
  // Each blob center recovered to within noise.
  for (const Vec& expected : {Vec{0, 0}, Vec{10, 0}, Vec{0, 10}}) {
    double best = 1e18;
    for (const Vec& c : run.centers) best = std::min(best, euclidean(c, expected));
    EXPECT_LT(best, 0.5);
  }
}

TEST(KMeans, ObjectiveNonIncreasingAcrossIterations) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 4, .base = {.num_splits = 3, .max_iterations = 15}});
  double prev = 1e300;
  for (const auto& centers : run.iteration_centers) {
    const double cost = total_cost(data, centers);
    EXPECT_LE(cost, prev * (1.0 + 1e-9));
    prev = cost;
  }
}

TEST(KMeans, ConvergesAndStops) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 2, .max_iterations = 50}});
  EXPECT_LT(run.iterations, 50);  // stopped on delta, not the cap
}

TEST(KMeans, SeededCentersComeFromData) {
  auto data = tight_blobs();
  auto seeds = seed_centers(data, 5, 7);
  EXPECT_EQ(seeds.size(), 5u);
  std::set<std::pair<double, double>> unique;
  for (const Vec& s : seeds) {
    EXPECT_NE(std::find(data.points.begin(), data.points.end(), s), data.points.end());
    unique.insert({s[0], s[1]});
  }
  EXPECT_EQ(unique.size(), 5u);  // distinct
  EXPECT_THROW(seed_centers(data, 0), std::invalid_argument);
  EXPECT_THROW(seed_centers(data, 10000), std::invalid_argument);
}

TEST(KMeans, SplitAndThreadInvariant) {
  auto data = tight_blobs();
  auto initial = seed_centers(data, 3, 11);
  auto a = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 1, .threads = 1}}, initial);
  auto b = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 6, .threads = 4}}, initial);
  ASSERT_EQ(a.centers.size(), b.centers.size());
  for (std::size_t c = 0; c < a.centers.size(); ++c) {
    EXPECT_LT(euclidean(a.centers[c], b.centers[c]), 1e-9)
        << "MapReduce decomposition changed the result";
  }
}

// --- fuzzy k-means ---------------------------------------------------------------

TEST(FuzzyKMeans, MembershipsSumToOne) {
  auto data = tight_blobs();
  auto centers = seed_centers(data, 3, 13);
  for (const Vec& p : data.points) {
    const Vec u = memberships(p, centers, 2.0);
    double sum = 0.0;
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0 + 1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(FuzzyKMeans, PointOnCenterGetsFullMembership) {
  std::vector<Vec> centers{{0.0, 0.0}, {5.0, 5.0}};
  const Vec u = memberships(centers[1], centers, 2.0);
  EXPECT_DOUBLE_EQ(u[1], 1.0);
  EXPECT_DOUBLE_EQ(u[0], 0.0);
}

TEST(FuzzyKMeans, InvalidFuzzinessThrows) {
  std::vector<Vec> centers{{0.0, 0.0}};
  EXPECT_THROW(memberships(Vec{1.0, 1.0}, centers, 1.0), std::invalid_argument);
}

TEST(FuzzyKMeans, RecoversBlobsSoftly) {
  auto data = tight_blobs();
  auto run = fuzzy_kmeans_cluster(
      data, {.k = 3, .m = 2.0, .base = {.num_splits = 4, .max_iterations = 25}});
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
  for (const Vec& expected : {Vec{0, 0}, Vec{10, 0}, Vec{0, 10}}) {
    double best = 1e18;
    for (const Vec& c : run.centers) best = std::min(best, euclidean(c, expected));
    EXPECT_LT(best, 0.6);
  }
}

TEST(FuzzyKMeans, HigherFuzzinessSoftensMemberships) {
  auto data = tight_blobs();
  auto centers = seed_centers(data, 3, 17);
  const Vec& p = data.points[0];
  const Vec crisp = memberships(p, centers, 1.5);
  const Vec soft = memberships(p, centers, 4.0);
  const double max_crisp = *std::max_element(crisp.begin(), crisp.end());
  const double max_soft = *std::max_element(soft.begin(), soft.end());
  EXPECT_GT(max_crisp, max_soft);
}

// --- mean shift -------------------------------------------------------------------

TEST(MeanShift, CollapsesBlobsToThreeCanopies) {
  auto data = tight_blobs();
  auto run = meanshift_cluster(
      data, {.t1 = 3.0, .t2 = 1.0, .base = {.num_splits = 4, .max_iterations = 20}});
  EXPECT_EQ(run.centers.size(), 3u);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
}

TEST(MeanShift, CanopyCountMonotonicallyShrinks) {
  auto data = tight_blobs();
  auto run = meanshift_cluster(
      data, {.t1 = 3.0, .t2 = 1.0, .base = {.num_splits = 2, .max_iterations = 20}});
  std::size_t prev = data.size();
  for (const auto& centers : run.iteration_centers) {
    EXPECT_LE(centers.size(), prev);
    prev = centers.size();
  }
}

TEST(MeanShift, NoPriorKRequired) {
  // Five blobs: mean shift should find five without being told.
  Dataset data;
  sim::Rng rng(3);
  for (int c = 0; c < 5; ++c) {
    for (int i = 0; i < 25; ++i) {
      data.points.push_back({c * 8.0 + rng.normal(0, 0.25), rng.normal(0, 0.25)});
      data.labels.push_back(c);
    }
  }
  auto run = meanshift_cluster(
      data, {.t1 = 3.0, .t2 = 1.2, .base = {.num_splits = 3, .max_iterations = 25}});
  EXPECT_EQ(run.centers.size(), 5u);
}

// --- dirichlet ---------------------------------------------------------------------

TEST(Dirichlet, CountsConserved) {
  auto data = tight_blobs();
  auto run = dirichlet_cluster(
      data, {.k = 8, .alpha = 1.0, .base = {.num_splits = 4, .max_iterations = 8}});
  double total = 0.0;
  for (const auto& m : run.models) total += m.count;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(data.size()));
  // Mixture is a distribution.
  double mix = 0.0;
  for (const auto& m : run.models) mix += m.mixture;
  EXPECT_NEAR(mix, 1.0, 1e-9);
}

TEST(Dirichlet, FindsTheBlobStructure) {
  auto data = tight_blobs();
  auto run = dirichlet_cluster(
      data, {.k = 10, .alpha = 1.0, .base = {.num_splits = 4, .max_iterations = 12}});
  // Occupied models must be near the true blob centers; dominant models
  // should cover all three blobs.
  int near_blobs = 0;
  for (const auto& m : run.models) {
    if (m.count < 15) continue;
    for (const Vec& expected : {Vec{0, 0}, Vec{10, 0}, Vec{0, 10}}) {
      if (euclidean(m.mean, expected) < 1.5) {
        ++near_blobs;
        break;
      }
    }
  }
  EXPECT_GE(near_blobs, 3);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.9);
}

TEST(Dirichlet, DeterministicAcrossRuns) {
  auto data = tight_blobs();
  DirichletConfig cfg{.k = 6, .alpha = 1.0, .base = {.num_splits = 3, .max_iterations = 5}};
  auto a = dirichlet_cluster(data, cfg);
  auto b = dirichlet_cluster(data, cfg);
  EXPECT_EQ(a.assignments, b.assignments);
}

// --- minhash -----------------------------------------------------------------------

TEST(MinHash, IdenticalPointsAlwaysCollide) {
  Dataset data;
  for (int i = 0; i < 10; ++i) data.points.push_back({1.0, 2.0, 3.0});
  data.labels.assign(10, 0);
  auto run = minhash_cluster(data, {.num_hash_functions = 6, .keygroups = 2,
                                    .min_cluster_size = 2, .bucket_width = 1.0,
                                    .base = {.num_splits = 3}});
  ASSERT_FALSE(run.clusters.empty());
  // Some cluster must contain all ten points.
  bool found_all = false;
  for (const auto& [key, members] : run.clusters) {
    if (members.size() == 10) found_all = true;
  }
  EXPECT_TRUE(found_all);
}

TEST(MinHash, FarPointsRarelyCollide) {
  Dataset data;
  sim::Rng rng(5);
  for (int i = 0; i < 30; ++i) data.points.push_back({rng.normal(0, 0.1), rng.normal(0, 0.1)});
  for (int i = 0; i < 30; ++i)
    data.points.push_back({1000.0 + rng.normal(0, 0.1), 1000.0 + rng.normal(0, 0.1)});
  data.labels.assign(60, 0);
  auto run = minhash_cluster(data, {.num_hash_functions = 8, .keygroups = 2,
                                    .min_cluster_size = 2, .bucket_width = 0.5,
                                    .base = {.num_splits = 2}});
  for (const auto& [key, members] : run.clusters) {
    // No cluster mixes the two distant populations.
    bool lo = false, hi = false;
    for (std::int64_t id : members) {
      (id < 30 ? lo : hi) = true;
    }
    EXPECT_FALSE(lo && hi) << "cluster " << key << " spans distant blobs";
  }
}

TEST(MinHash, MinClusterSizeFiltersSingletons) {
  Dataset data;
  sim::Rng rng(6);
  // Scatter: every point in its own region.
  for (int i = 0; i < 20; ++i) data.points.push_back({i * 100.0, i * -50.0});
  data.labels.assign(20, 0);
  auto run = minhash_cluster(data, {.num_hash_functions = 6, .keygroups = 2,
                                    .min_cluster_size = 2, .bucket_width = 1.0,
                                    .base = {.num_splits = 2}});
  for (const auto& [key, members] : run.clusters) {
    EXPECT_GE(members.size(), 2u);
  }
}

TEST(MinHash, FeatureSetDiscretization) {
  auto s1 = feature_set({1.01, 2.49}, 1.0);
  auto s2 = feature_set({1.49, 2.01}, 1.0);  // same buckets
  EXPECT_EQ(s1, s2);
  auto s3 = feature_set({1.01, 3.01}, 1.0);
  EXPECT_NE(s1, s3);
}

// --- parallel assignment pass ---------------------------------------------------

TEST(AssignNearest, IndependentOfThreadCount) {
  auto data = tight_blobs();
  const auto centers = seed_centers(data, 3, 77);
  mapreduce::WorkerPool serial_pool(1);
  const auto serial = assign_nearest(data, centers, serial_pool);
  for (unsigned threads : {2u, 3u, 8u}) {
    mapreduce::WorkerPool pool(threads);
    EXPECT_EQ(assign_nearest(data, centers, pool), serial) << threads << " threads";
  }
  // And the flat-matrix scan agrees with the Vec-of-Vec overload.
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(serial[i], nearest_center(data.points[i], centers)) << i;
  }
}

TEST(KMeans, AssignmentsIndependentOfThreadCount) {
  auto data = tight_blobs();
  const auto init = seed_centers(data, 3, 42);
  const auto one = kmeans_cluster(
      data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 5, .threads = 1}}, init);
  const auto many = kmeans_cluster(
      data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 5, .threads = 8}}, init);
  EXPECT_EQ(one.assignments, many.assignments);
  EXPECT_EQ(one.centers, many.centers);
}

TEST(FuzzyKMeans, AssignmentsIndependentOfThreadCount) {
  auto data = tight_blobs();
  const auto init = seed_centers(data, 3, 42);
  const auto one = fuzzy_kmeans_cluster(
      data, {.k = 3, .m = 2.0, .base = {.num_splits = 4, .max_iterations = 5, .threads = 1}},
      init);
  const auto many = fuzzy_kmeans_cluster(
      data, {.k = 3, .m = 2.0, .base = {.num_splits = 4, .max_iterations = 5, .threads = 8}},
      init);
  EXPECT_EQ(one.assignments, many.assignments);
  EXPECT_EQ(one.centers, many.centers);
}

// --- shared ClusteringRun contract ----------------------------------------------

TEST(ClusteringRun, JobsCarryProfilesForSimulation) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 6}});
  ASSERT_FALSE(run.jobs.empty());
  for (const auto& job : run.jobs) {
    EXPECT_EQ(job.map_profiles.size(), 4u);
    std::int64_t records = 0;
    for (const auto& p : job.map_profiles) records += p.input_records;
    EXPECT_EQ(records, static_cast<std::int64_t>(data.size()));
    for (const auto& p : job.map_profiles) EXPECT_GT(p.cpu_seconds, 0.0);
  }
}

}  // namespace
}  // namespace vhadoop::ml
