/**
 * @file
 * Structural front end for melody-lint: the lightweight layer
 * between the raw token stream (lexer.hh) and the flow-aware rules
 * (flow_rules.cc, project.cc).
 *
 * It is still not a parser — no types, no overload resolution — but
 * it recovers exactly the structure the semantic rules need:
 *
 *  - a brace map classifying every `{...}` pair as namespace, class
 *    or block scope (so "local declaration" and "scope exit" are
 *    meaningful);
 *  - function definitions with their body token ranges and simple
 *    names (so a rule can follow a call from a signal-handler
 *    registration into the callee's body within the same
 *    translation unit);
 *  - the quoted-include list with line numbers (the raw material
 *    for the repo-wide include graph and the layering rule).
 *
 * Everything is token-index based: rules walk `tokens[begin..end]`
 * ranges and never re-lex.
 */

#ifndef MELODY_LINT_STRUCTURE_HH
#define MELODY_LINT_STRUCTURE_HH

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hh"

namespace melodylint {

/** What a `{...}` pair encloses. */
enum class BraceKind { kNamespace, kClass, kBlock };

struct BraceInfo
{
    std::size_t close = 0;  ///< token index of the matching '}'
    BraceKind kind = BraceKind::kBlock;
};

/** One function definition found in the TU. */
struct FuncDef
{
    std::string name;       ///< simple name (no qualifiers)
    int line = 0;           ///< line of the name token
    std::size_t bodyBegin;  ///< token index of the body '{'
    std::size_t bodyEnd;    ///< token index of the matching '}'
};

/** One quoted #include "..." directive. */
struct IncludeDecl
{
    std::string path;  ///< as written, quotes stripped
    int line = 0;
};

struct FileStructure
{
    /** Keyed by the token index of each '{'. */
    std::map<std::size_t, BraceInfo> braces;
    std::vector<FuncDef> functions;
    std::vector<IncludeDecl> includes;

    /**
     * Token index of the '}' closing the innermost *block* scope
     * enclosing token @p i, or npos when @p i sits at namespace/
     * class/file scope (i.e. is not function-local).
     */
    std::size_t enclosingBlockEnd(std::size_t i) const;

    /** Indices into functions of every definition named @p name. */
    std::vector<std::size_t>
    functionsNamed(const std::string &name) const;
};

FileStructure analyzeStructure(const std::vector<Token> &tokens);

/**
 * Transitive same-TU call closure: starting from @p roots (token
 * ranges, e.g. a signal handler body), add
 * the body range of every function defined in this TU whose name is
 * called from an already-reached range, until a fixed point.
 * Returns the reached ranges (roots first), and optionally the set
 * of reached function names via @p reachedNames.
 */
std::vector<std::pair<std::size_t, std::size_t>>
callClosure(const FileStructure &fs, const std::vector<Token> &tokens,
            std::vector<std::pair<std::size_t, std::size_t>> roots,
            std::vector<std::string> *reachedNames = nullptr);

}  // namespace melodylint

#endif  // MELODY_LINT_STRUCTURE_HH
