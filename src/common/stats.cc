#include "common/stats.hh"

namespace sipt
{

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double inv_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        inv_sum += 1.0 / v;
    }
    return static_cast<double>(values.size()) / inv_sum;
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace sipt
