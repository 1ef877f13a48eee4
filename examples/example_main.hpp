// What the examples share. Arguments are read whole, with util/parse.hpp's
// parse_count and parse_nonnegative; a malformed one exits 64 after
// printing the usage line. Each main then runs through exec::guarded_main
// (exec/run_config.hpp), which applies the SNTRUST_* knobs and maps
// failures to the exit codes of the command-line tools: 64 for a malformed
// knob, 65 for input the library rejects (an unknown dataset id, a graph
// too small to measure), 75 for an interrupted run, 1 for anything else.
#pragma once

#include <iostream>

#include "exec/run_config.hpp"

namespace sntrust::examples {

inline int usage_error(const char* usage) {
  std::cerr << "usage: " << usage << "\n";
  return 64;  // EX_USAGE
}

}  // namespace sntrust::examples
