// Small integer/real math helpers shared across the library.
#pragma once

#include <cstdint>
#include <vector>

namespace bpvec {

/// ceil(a / b) for positive integers.
std::int64_t ceil_div(std::int64_t a, std::int64_t b);

/// Geometric mean of a nonempty vector of positive values.
double geomean(const std::vector<double>& v);

}  // namespace bpvec
