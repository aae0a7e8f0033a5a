/**
 * @file
 * Internal rule-engine interface shared by the token-level rules
 * (rules.cc), the flow-aware rules (flow_rules.cc) and the
 * project-level rules (project.cc): path scoping, token helpers,
 * and the suppression-aware diagnostic sink.
 *
 * This header is internal to tools/lint — the public API stays
 * lint.hh.
 */

#ifndef MELODY_LINT_RULES_HH
#define MELODY_LINT_RULES_HH

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hh"
#include "lint.hh"
#include "structure.hh"

namespace melodylint {

// ---------------------------------------------------------------
// Path scoping helpers. Paths are repo-relative ("src/mem/x.cc");
// tests lint fixture content under virtual paths of the same form.
// ---------------------------------------------------------------

bool underDir(const std::string &path, const std::string &prefix);
bool pathHas(const std::string &path, const std::string &frag);
bool isHeaderPath(const std::string &path);

// ---------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------

using Tokens = std::vector<Token>;

bool isIdent(const Tokens &t, std::size_t i, const char *s);
bool isPunct(const Tokens &t, std::size_t i, const char *s);

/** Index of the ')' matching the '(' at @p open (or npos). */
std::size_t matchParen(const Tokens &t, std::size_t open);

/** Skip a template argument list starting at '<'; returns the index
 *  one past the matching '>' (handles '>>'), or @p i if not a '<'. */
std::size_t skipTemplateArgs(const Tokens &t, std::size_t i);

/** Emit unless a lint:allow covers (line, rule); suppressions are
 *  recorded (with their reason) so drift stays auditable. */
class Sink
{
  public:
    Sink(const std::string &path, const LexResult &lexed,
         std::vector<Diagnostic> *out, int *suppressed,
         std::vector<SuppressionNote> *notes = nullptr)
        : path_(path), lexed_(lexed), out_(out),
          suppressed_(suppressed), notes_(notes)
    {}

    void
    emit(int line, const std::string &rule, Severity sev,
         const std::string &msg)
    {
        if (const std::string *reason = lexed_.allowReason(line, rule)) {
            if (suppressed_)
                ++*suppressed_;
            if (notes_)
                notes_->push_back({path_, line, rule, *reason});
            return;
        }
        out_->push_back({path_, line, rule, sev, msg});
    }

  private:
    const std::string &path_;
    const LexResult &lexed_;
    std::vector<Diagnostic> *out_;
    int *suppressed_;
    std::vector<SuppressionNote> *notes_;
};

// ---------------------------------------------------------------
// Flow-aware rule families (flow_rules.cc), built on the
// structural front end.
// ---------------------------------------------------------------

void ruleSigAsyncSafety(const std::string &path, const Tokens &t,
                        const FileStructure &fs, Sink *sink);

// ---------------------------------------------------------------
// Architecture rules (project.cc). Layering is per-file (the layer
// of an include is derivable from its written path); cycles need
// the repo-wide graph and run in the driver's project phase.
// ---------------------------------------------------------------

/** Layer index for a repo path or include text; -1 when unknown. */
int layerOf(const std::string &path);

/** Human-readable name for a layer index ("media", "frontend"...). */
const char *layerName(int layer);

void ruleArchLayering(const std::string &path, const Tokens &t,
                      const FileStructure &fs, Sink *sink);

}  // namespace melodylint

#endif  // MELODY_LINT_RULES_HH
