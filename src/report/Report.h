//===- report/Report.h - Centralized structured report manager --*- C++ -*-===//
//
// Every tool's findings flow into one ReportManager, which renders the
// final document in one of three formats (docs/REPORTING.md):
//
//   * text  — the historical human report, byte-identical to what the
//             tools printed before structured reporting existed, so every
//             differential/identity gate keeps holding.
//   * json  — a stable, versioned machine schema (--format=json).
//   * sarif — SARIF 2.1.0 with rule metadata, locations at sanitized
//             event ordinals, and relatedLocations for cycle edges
//             (--format=sarif).
//
// Ingestion resolves symbol ids to names immediately, so a manager can be
// rendered after the symbol table is gone. Renderers are deterministic:
// the same findings produce the same bytes, which is what the golden
// fixtures under tests/data/report assert across {text,.vtrc} x
// {sequential,--parallel} x {plain,--reduce} x resume.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_REPORT_REPORT_H
#define VELO_REPORT_REPORT_H

#include "analysis/Backend.h"
#include "report/Rules.h"
#include "support/Flags.h"

#include <cstdint>
#include <string>
#include <vector>

namespace velo {

/// Output format selector shared by every tool's --format= flag.
enum class ReportFormat { Text, Json, Sarif };

/// Parse "text"/"json"/"sarif". Returns false on anything else.
bool parseReportFormat(const std::string &V, ReportFormat &Out);

/// The --format= row of every tool that renders a report.
Flag formatFlag(ReportFormat &Out);

/// Run-level metadata rendered into the document header.
struct RunInfo {
  std::string Tool;  ///< "velodrome-check", "velodrome-analyze", ...
  std::string Trace; ///< Input path exactly as the text header prints it.
  uint64_t Events = 0; ///< Events delivered to the back-ends (text header).
  /// Events ingested after sanitization but before reduction — the
  /// coordinate space of Warning::Ordinal. Identical across plain and
  /// --reduce runs, which keeps JSON/SARIF byte-stable under reduction
  /// (the text header keeps printing the delivered count above).
  uint64_t SanitizedEvents = 0;
  uint32_t Threads = 0;
  std::string Verdict; ///< Verdict-line text ("" = tool has no verdict).
  int ExitCode = 0;
};

/// One finding, fully resolved (names, rule metadata) at ingestion time.
struct Finding {
  const RuleInfo *Rule = nullptr; ///< Never null after ingestion.
  std::string Backend;  ///< Reporting back-end display name ("Velodrome").
  std::string Analysis; ///< Warning::Analysis.
  std::string Category; ///< Warning::Category.
  std::string Method;   ///< Resolved blamed-method name ("" = none).
  std::string Message;  ///< Human-readable text (one per warning).
  uint32_t Thread = 0;
  uint64_t Ordinal = 0; ///< Sanitized-stream event ordinal (0 = unknown).
  struct Site {
    std::string Method;
    std::string Note;
    uint32_t Thread = 0;
    uint64_t Ordinal = 0;
  };
  std::vector<Site> Related;
};

/// Collects findings and run metadata; renders text, JSON, or SARIF.
class ReportManager {
public:
  RunInfo Run;

  /// Shared MaxWarnings cap, hoisted out of the individual checkers so the
  /// cap counts findings uniformly: true when Emitted findings have
  /// reached Max. Max == 0 means unlimited everywhere.
  static bool capReached(size_t Emitted, size_t Max) {
    return Max != 0 && Emitted >= Max;
  }

  /// Ingest one reporting back-end's warning list as a section. Sections
  /// render in ingestion order; Syms may be null (ids render as numbers).
  void addSection(const std::string &BackendName,
                  const std::vector<Warning> &Warnings,
                  const SymbolTable *Syms);

  /// Ingest a single already-built warning into the most recent section
  /// (or a fresh unnamed section when none exists).
  void addWarning(const std::string &BackendName, const Warning &W,
                  const SymbolTable *Syms);

  /// Stats line for the text renderer ("[graph] ...", "[reduce] ...");
  /// no trailing newline.
  void addStatLine(std::string Line) { StatLines.push_back(std::move(Line)); }

  /// Verbatim text appended after the stats lines and before the verdict
  /// (dot-file note, witness block). The caller includes its newlines.
  void addNote(std::string Text) { Notes.push_back(std::move(Text)); }

  /// The historical human report. With Quiet, the header, sections, and
  /// stats are suppressed; notes and the verdict line still print —
  /// exactly the bytes the tools printed before this class existed.
  std::string renderText(bool Quiet = false) const;

  /// Stable machine schema, schemaVersion 1 (docs/REPORTING.md).
  std::string renderJson() const;

  /// SARIF 2.1.0 document.
  std::string renderSarif() const;

  /// Render in the requested format (text ignores Quiet=false callers).
  std::string render(ReportFormat F, bool Quiet = false) const;

  const std::vector<Finding> &findings() const { return Findings; }

  /// Findings whose rule default severity is "error" or "warning" —
  /// velodrome-analyze's exit-1 condition (docs/INGESTION.md exit table).
  size_t actionableFindings() const;

private:
  struct Section {
    std::string Backend;
    size_t FirstFinding = 0;
    size_t NumFindings = 0;
  };

  void writeFindingJson(class JsonWriter &J, const Finding &F) const;

  std::vector<Section> Sections;
  std::vector<Finding> Findings;
  std::vector<std::string> StatLines;
  std::vector<std::string> Notes;
};

} // namespace velo

#endif // VELO_REPORT_REPORT_H
