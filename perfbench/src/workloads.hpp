#pragma once

// The four workloads vbench runs (README.md explains why each was chosen
// and which of them BENCHMARK.json lists).
// Each runs its inputs for Options::seconds, checks every operation against
// `expect`, and returns what it measured. With Options::oracle set it instead
// runs the workload once through the library's reference oracle and returns
// the oracle's checks.

#include "report.hpp"

namespace perfbench {

Outcome run_sim_fabric(const Options& opt, Expectation& expect);
Outcome run_tenant_day(const Options& opt, Expectation& expect);
Outcome run_local_wordcount(const Options& opt, Expectation& expect);
Outcome run_ml_clustering(const Options& opt, Expectation& expect);

}  // namespace perfbench
