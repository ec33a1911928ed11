#include "src/common/mathutil.h"

#include <cmath>

#include "src/common/error.h"

namespace bpvec {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  BPVEC_CHECK(a >= 0 && b > 0);
  return (a + b - 1) / b;
}

double geomean(const std::vector<double>& v) {
  BPVEC_CHECK(!v.empty());
  double acc = 0.0;
  for (double x : v) {
    BPVEC_CHECK(x > 0.0);
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(v.size()));
}

}  // namespace bpvec
