/**
 * @file
 * Plain-text table formatting for figure output. Every figure of
 * sipt-figures prints the rows/series of the table it regenerates
 * through this helper so output stays uniform.
 */

#ifndef SIPT_COMMON_TABLE_HH
#define SIPT_COMMON_TABLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sipt
{

/**
 * A simple column-aligned text table. Cells are strings; numeric
 * convenience setters format with fixed precision.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Begin a new row; subsequent add() calls fill it. */
    void beginRow();

    /** Append a string cell to the current row. */
    void add(const std::string &cell);

    /** Append a numeric cell with @p precision decimal places. */
    void add(double value, int precision = 3);

    /** Append an integer cell. */
    void add(std::uint64_t value);

    /** Number of data rows so far. */
    std::size_t rows() const { return data_.size(); }

    /** Render the aligned table (with a header underline). */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> data_;
};

} // namespace sipt

#endif // SIPT_COMMON_TABLE_HH
