/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench prints the paper-style table to stdout and mirrors the
 * raw series to "<binary>.csv" so results can be re-plotted.  Heavy
 * intermediates are shared across bench binaries through the on-disk
 * artifact cache (see core/artifact_cache.hh).
 */

#ifndef SPLAB_BENCH_BENCH_UTIL_HH
#define SPLAB_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/headlines.hh"
#include "obs/manifest.hh"
#include "obs/trace.hh"
#include "support/env.hh"
#include "support/table.hh"

namespace splab
{
namespace bench
{

/** CSV path next to the running binary: "<argv0>.csv". */
inline std::string
csvPath(const char *argv0)
{
    return std::string(argv0) + ".csv";
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("\n################################################"
                "######################\n");
    std::printf("## %s\n", what.c_str());
    std::printf("## Reproduces: %s\n", paperRef.c_str());
    std::printf("## Scale: 1 model slice = 10,000 instrs "
                "(paper: 30M); SPLAB_SCALE=%.3g\n",
                workloadScale());
    std::printf("##################################################"
                "####################\n\n");
    std::fflush(stdout);
}

/** Save a CSV and tell the user where it went. */
inline void
saveCsv(const CsvWriter &csv, const char *argv0)
{
    std::string path = csvPath(argv0);
    if (csv.save(path))
        std::printf("\n[csv] raw series written to %s\n",
                    path.c_str());
    else
        std::printf("\n[csv] FAILED to write %s\n", path.c_str());
}

/** Basename of the running binary ("fig5_reduction"). */
inline std::string
toolName(const char *argv0)
{
    std::string s(argv0);
    std::size_t slash = s.find_last_of('/');
    return slash == std::string::npos ? s : s.substr(slash + 1);
}

/**
 * Emit the observability artifacts of a finished bench run: the
 * span tree + Chrome trace JSON ("<argv0>.trace.json") when
 * SPLAB_TRACE=1, and the run manifest ("<argv0>.manifest.json")
 * unless SPLAB_MANIFEST=0.  @p manifest should already carry the
 * configuration and output files of the run.
 */
inline void
emitObservability(const char *argv0, obs::RunManifest &manifest)
{
    if (obs::tracingEnabled()) {
        std::fputs("\n", stdout);
        std::fputs(obs::renderSpanTree().c_str(), stdout);
        std::string tracePath = std::string(argv0) + ".trace.json";
        if (obs::writeChromeTrace(tracePath))
            std::printf("[trace] Chrome trace written to %s\n",
                        tracePath.c_str());
    }
    if (obs::manifestEnabled()) {
        std::string maniPath =
            std::string(argv0) + ".manifest.json";
        if (manifest.write(maniPath))
            std::printf("[manifest] run manifest written to %s\n",
                        maniPath.c_str());
        else
            std::printf("[manifest] FAILED to write %s\n",
                        maniPath.c_str());
    }
}

/**
 * One declaration drives every bench output: the paper-style ASCII
 * table, the raw CSV mirror, and the run manifest.
 *
 * Declare the combined row schema once with schema(); each Column
 * may appear in the table only (empty csv header), in the CSV only
 * (empty table header), or in both.  A row() feeds both outputs from
 * one list of Cells — a Cell built from a single string serves both
 * representations, Cell{table, csv} splits them (formatted table
 * text vs raw CSV value).  Benches whose table and CSV rows do not
 * align structurally (e.g. one table row summarising several CSV
 * rows) use the tableOnlyRow()/csvOnlyRow() escape hatches.
 *
 * finish() prints the table, saves the CSV, folds the CSV's content
 * hash into the manifest and emits the trace + manifest artifacts.
 */
class ReportSink
{
  public:
    struct Column
    {
        std::string table; ///< table header; "" = not in the table
        std::string csv;   ///< csv header; "" = not in the CSV
        /** This CSV column holds a wall-clock measurement.  The
         *  manifest then records the CSV by a digest of the
         *  deterministic columns only, keeping the manifest's
         *  outputs section thread-count- and machine-invariant. */
        bool wallClock = false;
    };

    /** One row value; carries the text of each representation. */
    struct Cell
    {
        std::string table;
        std::string csv;

        Cell(const char *both) : table(both), csv(both) {}
        Cell(const std::string &both) : table(both), csv(both) {}
        Cell(std::string tableText, std::string csvText)
            : table(std::move(tableText)), csv(std::move(csvText))
        {}
    };

    ReportSink(const char *argv0, std::string tableTitle)
        : binaryPath(argv0), tbl(std::move(tableTitle)),
          mani(toolName(argv0))
    {
        mani.recordEnv("SPLAB_SCALE");
        mani.recordEnv("SPLAB_CACHE");
        mani.recordEnv("SPLAB_LOG");
        mani.recordEnv("SPLAB_TRACE");
        mani.recordEnv("SPLAB_MANIFEST");
        mani.recordEnv("SPLAB_KMEANS_ACCEL");
    }

    /** Declare the combined column set; call once, before rows. */
    void
    schema(std::vector<Column> columns)
    {
        cols = std::move(columns);
        std::vector<std::string> th, ch;
        for (const Column &c : cols) {
            if (!c.table.empty())
                th.push_back(c.table);
            if (!c.csv.empty()) {
                ch.push_back(c.csv);
                csvWall.push_back(c.wallClock);
                hasWall = hasWall || c.wallClock;
                if (!c.wallClock)
                    foldDet(c.csv);
            }
        }
        tbl.header(std::move(th));
        csvW.header(ch);
    }

    /** Append one row to both the table and the CSV. */
    void
    row(const std::vector<Cell> &cells)
    {
        std::vector<std::string> tr, cr;
        for (std::size_t i = 0; i < cells.size() && i < cols.size();
             ++i) {
            if (!cols[i].table.empty())
                tr.push_back(cells[i].table);
            if (!cols[i].csv.empty())
                cr.push_back(cells[i].csv);
        }
        foldDetRow(cr);
        tbl.row(std::move(tr));
        csvW.row(cr);
    }

    /** Append a row to the ASCII table only. */
    void tableOnlyRow(std::vector<std::string> cells)
    {
        tbl.row(std::move(cells));
    }

    /** Append a row to the CSV only. */
    void csvOnlyRow(const std::vector<std::string> &cells)
    {
        foldDetRow(cells);
        csvW.row(cells);
    }

    /** Horizontal separator in the ASCII table. */
    void separator() { tbl.separator(); }

    /** The run manifest; add config via ExperimentConfig::describe
     *  and extra keys/outputs before finish(). */
    obs::RunManifest &manifest() { return mani; }

    /** Print the ASCII table early (before auxiliary tables or
     *  prose); finish() will not print it again. */
    void
    printTable()
    {
        if (tablePrinted)
            return;
        tablePrinted = true;
        tbl.print();
    }

    /** Print the table, save the CSV, emit trace + manifest. */
    void
    finish()
    {
        printTable();
        std::string path = csvPath(binaryPath.c_str());
        if (csvW.save(path)) {
            std::printf("\n[csv] raw series written to %s\n",
                        path.c_str());
            if (hasWall)
                mani.addOutputDigest(
                    path, obs::fnv1a64(detContent.data(),
                                       detContent.size()));
            else
                mani.addOutput(path);
        } else {
            std::printf("\n[csv] FAILED to write %s\n",
                        path.c_str());
        }
        emitObservability(binaryPath.c_str(), mani);
    }

  private:
    /** Fold one CSV cell into the deterministic-content digest. */
    void
    foldDet(const std::string &cell)
    {
        detContent += cell;
        detContent += '\x1f'; // unit separator: unambiguous joins
    }

    /** Fold a CSV row's deterministic (non-wall-clock) cells. */
    void
    foldDetRow(const std::vector<std::string> &csvCells)
    {
        for (std::size_t i = 0;
             i < csvCells.size() && i < csvWall.size(); ++i)
            if (!csvWall[i])
                foldDet(csvCells[i]);
        detContent += '\n';
    }

    std::string binaryPath;
    std::vector<Column> cols;
    std::vector<bool> csvWall; ///< per-CSV-column wall-clock flag
    bool hasWall = false;
    std::string detContent; ///< deterministic CSV cells, joined
    bool tablePrinted = false;
    TableWriter tbl;
    CsvWriter csvW;
    obs::RunManifest mani;
};

} // namespace bench
} // namespace splab

#endif // SPLAB_BENCH_BENCH_UTIL_HH
