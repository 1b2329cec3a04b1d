/**
 * @file
 * ASCII table and CSV emission for bench/example report output.
 *
 * Every bench binary prints a paper-style table to stdout via
 * TableWriter and mirrors the raw series to a CSV file via CsvWriter
 * so results can be re-plotted.
 */

#ifndef SPLAB_SUPPORT_TABLE_HH
#define SPLAB_SUPPORT_TABLE_HH

#include <string>
#include <vector>

namespace splab
{

/** Column-aligned ASCII table with a header row and separators. */
class TableWriter
{
  public:
    /** @param title caption printed above the table. */
    explicit TableWriter(std::string title) : tableTitle(std::move(title)) {}

    /** Define the header; must be called before any row. */
    void header(std::vector<std::string> cols);

    /** Append a fully-formatted row (cells as strings). */
    void row(std::vector<std::string> cells);

    /** Append a horizontal separator between row groups. */
    void separator();

    /** Render to a string. */
    std::string render() const;

    /** Render to stdout. */
    void print() const;

  private:
    std::string tableTitle;
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> rows; // empty vec = separator
};

/** Comma-separated value writer; quotes cells when needed. */
class CsvWriter
{
  public:
    void header(const std::vector<std::string> &cols);
    void row(const std::vector<std::string> &cells);

    const std::string &content() const { return out; }

    /** @return true when the file was written successfully. */
    bool save(const std::string &path) const;

  private:
    void emit(const std::vector<std::string> &cells);

    std::string out;
};

/// @name Numeric cell formatting helpers
/// @{

/** Fixed-point with @p digits decimals, e.g. 12.35. */
std::string fmt(double v, int digits = 2);

/** Percentage with sign preserved, e.g. "25.16%". */
std::string fmtPct(double fraction, int digits = 2);

/** Large counts with thousands separators, e.g. "6,873,900". */
std::string fmtCount(unsigned long long v);

/** Engineering notation with suffix, e.g. "6.87 B", "10.4 M". */
std::string fmtSi(double v, int digits = 2);

/** Multiplicative factor, e.g. "750.3x". */
std::string fmtX(double v, int digits = 1);

/// @}

} // namespace splab

#endif // SPLAB_SUPPORT_TABLE_HH
