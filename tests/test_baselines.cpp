// The ten Fig. 9 baseline classifiers, validated on synthetic Gaussian
// blobs: every implementation must fit an easy separable problem well and
// expose sane failure behavior.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "ml/adaboost.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gaussian_process.hpp"
#include "ml/knn.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/qda.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm_linear.hpp"
#include "ml/svm_rbf.hpp"

namespace m2ai::ml {
namespace {

// Three Gaussian blobs in 4 dimensions.
Dataset make_blobs(int per_class, double spread, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data;
  const double centers[3][4] = {
      {0, 0, 0, 0}, {4, 4, 0, 0}, {0, 4, 4, 4}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_class; ++i) {
      std::vector<float> x(4);
      for (int j = 0; j < 4; ++j) {
        x[static_cast<std::size_t>(j)] =
            static_cast<float>(centers[c][j] + rng.normal(0.0, spread));
      }
      data.add(std::move(x), c);
    }
  }
  return data;
}

// A ring-vs-center problem no linear model can solve.
Dataset make_rings(int per_class, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data;
  for (int i = 0; i < per_class; ++i) {
    // Inner blob.
    data.add({static_cast<float>(rng.normal(0.0, 0.3)),
              static_cast<float>(rng.normal(0.0, 0.3))},
             0);
    // Outer ring.
    const double ang = rng.uniform(0.0, 2.0 * M_PI);
    const double r = 2.0 + rng.normal(0.0, 0.2);
    data.add({static_cast<float>(r * std::cos(ang)),
              static_cast<float>(r * std::sin(ang))},
             1);
  }
  return data;
}

struct Factory {
  const char* name;
  std::unique_ptr<Classifier> (*make)();
};

// Print the classifier name, not the struct bytes: the bytes hold pointers
// that move with address-space randomisation, and ctest names each case by
// this printed value.
void PrintTo(const Factory& factory, std::ostream* os) { *os << factory.name; }

std::unique_ptr<Classifier> mk_knn() { return std::make_unique<KnnClassifier>(5); }
std::unique_ptr<Classifier> mk_lsvm() { return std::make_unique<LinearSvm>(); }
std::unique_ptr<Classifier> mk_rsvm() { return std::make_unique<RbfSvm>(); }
std::unique_ptr<Classifier> mk_gp() {
  return std::make_unique<GaussianProcessClassifier>();
}
std::unique_ptr<Classifier> mk_tree() { return std::make_unique<DecisionTree>(); }
std::unique_ptr<Classifier> mk_forest() { return std::make_unique<RandomForest>(); }
std::unique_ptr<Classifier> mk_ada() { return std::make_unique<AdaBoost>(); }
std::unique_ptr<Classifier> mk_nb() { return std::make_unique<GaussianNaiveBayes>(); }
std::unique_ptr<Classifier> mk_qda() { return std::make_unique<Qda>(); }
std::unique_ptr<Classifier> mk_mlp() { return std::make_unique<MlpClassifier>(); }

class AllBaselines : public ::testing::TestWithParam<Factory> {};

TEST_P(AllBaselines, FitsGaussianBlobs) {
  auto classifier = GetParam().make();
  const Dataset train = make_blobs(60, 0.8, 1);
  const Dataset test = make_blobs(40, 0.8, 2);
  classifier->fit(train);
  EXPECT_GT(classifier->accuracy(test), 0.9) << classifier->name();
}

TEST_P(AllBaselines, PerfectOnWellSeparatedData) {
  auto classifier = GetParam().make();
  const Dataset train = make_blobs(40, 0.2, 3);
  const Dataset test = make_blobs(30, 0.2, 4);
  classifier->fit(train);
  EXPECT_GT(classifier->accuracy(test), 0.97) << classifier->name();
}

TEST_P(AllBaselines, RejectsEmptyTrainSet) {
  auto classifier = GetParam().make();
  EXPECT_THROW(classifier->fit(Dataset{}), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Classifiers, AllBaselines,
    ::testing::Values(Factory{"knn", mk_knn}, Factory{"linear_svm", mk_lsvm},
                      Factory{"rbf_svm", mk_rsvm}, Factory{"gp", mk_gp},
                      Factory{"tree", mk_tree}, Factory{"forest", mk_forest},
                      Factory{"adaboost", mk_ada}, Factory{"naive_bayes", mk_nb},
                      Factory{"qda", mk_qda}, Factory{"mlp", mk_mlp}));

TEST(NonlinearBaselines, SolveRingsWhereLinearFails) {
  const Dataset train = make_rings(150, 5);
  const Dataset test = make_rings(80, 6);

  LinearSvm linear;
  linear.fit(train);
  EXPECT_LT(linear.accuracy(test), 0.75);  // structurally linear: must fail

  RbfSvm rbf;
  rbf.fit(train);
  EXPECT_GT(rbf.accuracy(test), 0.9);

  KnnClassifier knn(5);
  knn.fit(train);
  EXPECT_GT(knn.accuracy(test), 0.9);
}

TEST(MajorityVote, BasicAndTieBreak) {
  EXPECT_EQ(majority_vote({1, 1, 2}, 3), 1);
  EXPECT_EQ(majority_vote({2, 2, 1, 1}, 3), 1);  // tie -> smaller label
  EXPECT_EQ(majority_vote({}, 3), 0);
}

TEST(StandardScaler, ZeroMeanUnitVariance) {
  Dataset data = make_blobs(100, 1.0, 7);
  StandardScaler scaler;
  scaler.fit(data);
  const Dataset scaled = scaler.transform(data);
  for (std::size_t j = 0; j < scaled.dim(); ++j) {
    double mean = 0.0, var = 0.0;
    for (const auto& x : scaled.features) mean += x[j];
    mean /= static_cast<double>(scaled.size());
    for (const auto& x : scaled.features) var += (x[j] - mean) * (x[j] - mean);
    var /= static_cast<double>(scaled.size());
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(StandardScaler, ConstantFeaturePassthrough) {
  Dataset data;
  data.add({1.0f, 5.0f}, 0);
  data.add({2.0f, 5.0f}, 1);
  StandardScaler scaler;
  scaler.fit(data);
  const auto t = scaler.transform(std::vector<float>{1.5f, 5.0f});
  EXPECT_FALSE(std::isnan(t[1]));
  EXPECT_NEAR(t[1], 0.0f, 1e-6);
}

TEST(Dataset, SubsampleAndShuffle) {
  util::Rng rng(8);
  Dataset data = make_blobs(50, 1.0, 9);
  const Dataset sub = data.subsample(30, rng);
  EXPECT_EQ(sub.size(), 30u);
  EXPECT_EQ(sub.num_classes, data.num_classes);
  const Dataset shuf = data.shuffled(rng);
  EXPECT_EQ(shuf.size(), data.size());
}

TEST(Dataset, InconsistentDimensionRejected) {
  Dataset data;
  data.add({1.0f, 2.0f}, 0);
  EXPECT_THROW(data.add({1.0f}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace m2ai::ml
