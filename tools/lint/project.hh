/**
 * @file
 * Project-level analysis for melody-lint: the repo-wide include
 * graph and its cycle check. Per-file rules see one TU at a time;
 * the driver collects every scanned file's include list (cheap —
 * the lists come out of the per-file pass) and runs this phase once
 * over the whole set.
 */

#ifndef MELODY_LINT_PROJECT_HH
#define MELODY_LINT_PROJECT_HH

#include <string>
#include <vector>

#include "lint.hh"
#include "structure.hh"

namespace melodylint {

/** One scanned file's contribution to the include graph. */
struct ScannedFile
{
    std::string path;  ///< repo-relative
    std::vector<IncludeDecl> includes;
};

/**
 * Resolve an include text written in @p fromPath against the set of
 * scanned files: tries includer-sibling, "src/"-anchored and as-is
 * candidates. Returns the scanned path or "" when the include is
 * outside the scanned set (system or generated header).
 */
std::string resolveInclude(const std::string &fromPath,
                           const std::string &text,
                           const std::vector<std::string> &known);

/**
 * arch-include-cycle — report every include cycle among the scanned
 * files. Cycles are unconditionally errors (no lint:allow): a cycle
 * means the layer order has no topological witness, and the next
 * refactor that reorders definitions deadlocks on it.
 */
std::vector<Diagnostic>
projectIncludeCycles(const std::vector<ScannedFile> &files);

}  // namespace melodylint

#endif  // MELODY_LINT_PROJECT_HH
