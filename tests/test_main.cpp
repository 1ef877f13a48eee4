// The test binary's entry point: the SNTRUST_* knobs reach the library the
// way they reach every tool and bench, through one parse and one apply, so
// SNTRUST_THREADS=4 runs the suites on a 4-worker pool.
#include <gtest/gtest.h>

#include "exec/run_config.hpp"

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  sntrust::exec::apply(sntrust::exec::run_config_from_environment());
  return RUN_ALL_TESTS();
}
