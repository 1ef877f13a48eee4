// Entry point the examples share. Arguments are read whole, with
// util/env.hpp's parse_count and parse_nonnegative, and failures map to the
// exit codes of the command-line tools: 64 for a malformed argument (after
// printing the usage line), 65 for input the library rejects (an unknown
// dataset id, a graph too small to measure), 1 for anything else.
#pragma once

#include <exception>
#include <functional>
#include <iostream>
#include <stdexcept>

namespace sntrust::examples {

inline int usage_error(const char* usage) {
  std::cerr << "usage: " << usage << "\n";
  return 64;  // EX_USAGE
}

inline int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 65;  // EX_DATAERR
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace sntrust::examples
