#include <ostream>

#include "bench/figures.hh"
#include "common/logging.hh"
#include "sim/report.hh"

namespace sipt::bench
{

namespace
{

std::vector<std::string>
headers(const std::string &label, const std::vector<Column> &columns)
{
    std::vector<std::string> out{label};
    for (const Column &c : columns)
        out.push_back(c.header);
    return out;
}

} // namespace

FigureTable::FigureTable(std::string title, const std::string &label,
                         std::vector<Column> columns)
    : title_(std::move(title)), columns_(std::move(columns)),
      table_(headers(label, columns_))
{
}

void
FigureTable::addCells(const std::vector<Cell> &cells,
                      const std::string &key)
{
    SIPT_ASSERT(cells.size() == columns_.size(), "figure '", title_,
                "': row has ", cells.size(), " cells for ",
                columns_.size(), " columns");
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const Column &col = columns_[c];
        // Summary rows (empty key) and display-only columns stay
        // out of the JSON; text cells never enter it.
        const bool exported = !key.empty() && !col.key.empty();
        if (const auto *text = std::get_if<std::string>(&cells[c])) {
            table_.add(*text);
        } else if (const auto *n =
                       std::get_if<std::uint64_t>(&cells[c])) {
            table_.add(*n);
            if (exported)
                metrics_.setCounter("apps." + key + "." + col.key, *n);
        } else {
            const double v = std::get<double>(cells[c]);
            table_.add(col.scale * v, col.precision);
            if (exported) {
                metrics_.setValue("apps." + key + "." + col.key, v);
                values_[col.key].push_back(v);
            }
        }
    }
}

void
FigureTable::row(const std::string &label,
                 const std::vector<Cell> &cells, const std::string &key)
{
    table_.beginRow();
    table_.add(label);
    addCells(cells, key.empty() ? label : key);
}

void
FigureTable::summaryRow(const std::string &label,
                        const std::vector<Cell> &cells)
{
    table_.beginRow();
    table_.add(label);
    addCells(cells, "");
}

double
FigureTable::summary(const std::string &key, double value)
{
    metrics_.setValue("summary." + key, value);
    return value;
}

std::uint64_t
FigureTable::summary(const std::string &key, std::uint64_t value)
{
    metrics_.setCounter("summary." + key, value);
    return value;
}

const std::vector<double> &
FigureTable::values(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        panic("figure '", title_, "': no values in column '", key, "'");
    return it->second;
}

void
FigureTable::print(std::ostream &os) const
{
    os << "\n=== " << title_ << " ===\n"
       << "(refs/run = " << measureRefs() << ")\n\n";
    table_.print(os);
    os << notes_.str();
}

void
FigureTable::writeJson(const std::string &dir,
                       const std::string &id) const
{
    sim::writeMetricsJson(dir + "/" + id + ".json", id, measureRefs(),
                          metrics_);
}

} // namespace sipt::bench
