// m2ai_perfbench — the repository benchmark's binary (see
// perfbench/NOTES.md). Normally started by perfbench/run.py:
//
//   m2ai_perfbench --workload serve_paced|serve_saturate|train_offline
//                  --seed N --seconds S --trace 0|1 [--model FILE]
//                  [--trace-out FILE] [--inject KIND]
//   m2ai_perfbench --make-model FILE
//
// Prints progress to stderr, a few summary lines and, last, one JSON line:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a correctness
// check fails, 2 on a usage or runtime error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "core/experiment.hpp"
#include "fleet.hpp"
#include "kern/backend.hpp"
#include "nn/serialize.hpp"
#include "par/parallel_for.hpp"
#include "serve_bench.hpp"
#include "train_bench.hpp"
#include "traced.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2ai_perfbench --workload W --seed N --seconds S --trace 0|1\n"
               "                      [--model FILE] [--trace-out FILE]\n"
               "                      [--inject flip-label|drop-report|drop-prediction]\n"
               "       m2ai_perfbench --make-model FILE\n");
  return 2;
}

// Trains the served network deterministically (fixed seed, ref backend) and
// writes its checkpoint: the file perfbench/served_model.bin was made so.
int make_model(const std::string& path) {
  m2ai::kern::set_backend(m2ai::kern::BackendKind::kReference);
  m2ai::par::set_num_threads(kTrainThreads);
  m2ai::core::ExperimentConfig config;
  config.pipeline = serve_pipeline_config();
  config.samples_per_class = 24;
  config.train.epochs = 20;
  const m2ai::core::DataSplit split = m2ai::core::generate_dataset(config);
  std::unique_ptr<m2ai::core::M2AINetwork> network;
  const m2ai::core::M2AIResult result = m2ai::core::train_and_evaluate(config, split, &network);
  m2ai::nn::save_params(path, network->params());
  std::printf("served model: test accuracy %.4f, written to %s\n", result.accuracy,
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.model_path = "perfbench/served_model.bin";
  std::string make_model_path;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--model") opt.model_path = value;
    else if (key == "--trace-out") opt.trace_out = value;
    else if (key == "--inject") opt.inject = value;
    else if (key == "--make-model") make_model_path = value;
    else return usage();
  }
  try {
    if (!make_model_path.empty()) return make_model(make_model_path);
    if (opt.seconds <= 0) return usage();
    Result res;
    if (opt.workload == "serve_paced") {
      res = opt.trace ? traced_serve(opt, false) : run_serve_paced(opt);
    } else if (opt.workload == "serve_saturate") {
      res = opt.trace ? traced_serve(opt, true) : run_serve_saturate(opt);
    } else if (opt.workload == "train_offline") {
      res = opt.trace ? traced_train(opt) : run_train_offline(opt);
    } else {
      return usage();
    }
    for (const std::string& f : res.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    std::printf("%s\n", res.to_json().c_str());
    std::fflush(stdout);
    return res.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m2ai_perfbench: %s\n", e.what());
    return 2;
  }
}
