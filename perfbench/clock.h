#pragma once

#include <chrono>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

}  // namespace perfbench
