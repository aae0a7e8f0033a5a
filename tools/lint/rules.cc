/**
 * @file
 * melody-lint rule engine: every project contract rule, implemented
 * over the token stream from lexer.cc. See lint.hh for the contract
 * each family enforces and DESIGN.md §8 for the full rule table.
 */

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hh"
#include "lint.hh"
#include "rules.hh"
#include "structure.hh"

namespace melodylint {

// ---------------------------------------------------------------
// Path scoping helpers. Paths are repo-relative ("src/mem/x.cc");
// tests lint fixture content under virtual paths of the same form.
// ---------------------------------------------------------------

bool
underDir(const std::string &path, const std::string &prefix)
{
    return path.rfind(prefix, 0) == 0 ||
           path.find("/" + prefix) != std::string::npos;
}

bool
pathHas(const std::string &path, const std::string &frag)
{
    return path.find(frag) != std::string::npos;
}

bool
isHeaderPath(const std::string &path)
{
    auto ends = [&](const char *suf) {
        const std::string s(suf);
        return path.size() >= s.size() &&
               path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    return ends(".hh") || ends(".h") || ends(".hpp");
}

// ---------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------

bool
isIdent(const Tokens &t, std::size_t i, const char *s)
{
    return i < t.size() && t[i].kind == TokKind::kIdent && t[i].is(s);
}

bool
isPunct(const Tokens &t, std::size_t i, const char *s)
{
    return i < t.size() && t[i].kind == TokKind::kPunct && t[i].is(s);
}

std::size_t
matchParen(const Tokens &t, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kPunct)
            continue;
        if (t[i].is("("))
            ++depth;
        else if (t[i].is(")") && --depth == 0)
            return i;
    }
    return std::string::npos;
}

std::size_t
skipTemplateArgs(const Tokens &t, std::size_t i)
{
    if (!isPunct(t, i, "<"))
        return i;
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kPunct)
            continue;
        if (t[i].is("<")) {
            ++depth;
        } else if (t[i].is(">")) {
            if (--depth == 0)
                return i + 1;
        } else if (t[i].is(">>")) {
            depth -= 2;
            if (depth <= 0)
                return i + 1;
        } else if (t[i].is(";")) {
            return i;  // malformed; bail out
        }
    }
    return i;
}

namespace {

// ---------------------------------------------------------------
// Family 1: determinism.
// ---------------------------------------------------------------

/**
 * det-banned-call — every stochastic or wall-clock source outside
 * the seeded Rng breaks bit-reproducibility across runs and across
 * parallelFor schedules (PAPER.md §4's measurements are only
 * comparable because reruns are bit-identical).
 */
void
ruleDetBannedCall(const std::string &path, const Tokens &t,
                  Sink *sink)
{
    if (pathHas(path, "sim/rng."))
        return;  // the one blessed home for raw entropy

    static const std::set<std::string> kAlwaysBanned = {
        "random_device", "mt19937",   "mt19937_64",
        "minstd_rand",   "minstd_rand0", "default_random_engine",
        "ranlux24",      "ranlux48",  "knuth_b",
        "system_clock",  "high_resolution_clock",
        "gettimeofday",  "srand",     "srandom",
        "drand48",       "rand_r",    "random_shuffle",
    };
    // Banned only as a direct call: short names that legitimately
    // appear as member/variable names elsewhere.
    static const std::set<std::string> kBannedCalls = {
        "rand", "time", "clock", "localtime", "gmtime", "random",
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent)
            continue;
        const std::string &name = t[i].text;
        if (kAlwaysBanned.count(name)) {
            sink->emit(t[i].line, "det-banned-call",
                       Severity::kError,
                       "nondeterministic source '" + name +
                           "'; all randomness and time must come "
                           "from the seeded cxlsim::Rng "
                           "(src/sim/rng.hh)");
            continue;
        }
        if (!kBannedCalls.count(name) || !isPunct(t, i + 1, "("))
            continue;
        // Member access (x.time(), p->clock()) is someone else's
        // API, not libc; `foo::time()` is fine unless foo is std.
        if (i > 0 && (isPunct(t, i - 1, ".") ||
                      isPunct(t, i - 1, "->")))
            continue;
        // A declaration of a member with the same name (`int
        // rand() const;`): preceded by its return type.
        if (i > 0 && t[i - 1].kind == TokKind::kIdent &&
            !t[i - 1].is("return") && !t[i - 1].is("co_return") &&
            !t[i - 1].is("throw") && !t[i - 1].is("else") &&
            !t[i - 1].is("do") && !t[i - 1].is("case"))
            continue;
        if (i > 0 && isPunct(t, i - 1, "::") &&
            !(i > 1 && isIdent(t, i - 2, "std")))
            continue;
        sink->emit(t[i].line, "det-banned-call", Severity::kError,
                   "call to nondeterministic '" + name +
                       "()'; draw from the seeded cxlsim::Rng "
                       "(src/sim/rng.hh) instead");
    }
}

/**
 * det-unordered-iter — iterating a hash container in code that
 * produces figures/statistics makes output depend on hash-table
 * layout (pointer values, libstdc++ version), the classic silent
 * nondeterminism bug. Sort into a vector first (see
 * TieringBackend::runEpoch for the idiom).
 */
void
ruleDetUnorderedIter(const std::string &path, const Tokens &t,
                     Sink *sink)
{
    const bool scoped = underDir(path, "src/stats/") ||
                        underDir(path, "src/spa/") ||
                        underDir(path, "bench/") ||
                        underDir(path, "tools/") ||
                        pathHas(path, "sim/sweep") ||
                        pathHas(path, "sim/run_cache");
    if (!scoped)
        return;

    // Pass 1: names declared with an unordered container type.
    std::set<std::string> unordered;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent)
            continue;
        const std::string &n = t[i].text;
        if (n != "unordered_map" && n != "unordered_set" &&
            n != "unordered_multimap" && n != "unordered_multiset")
            continue;
        std::size_t j = skipTemplateArgs(t, i + 1);
        if (j < t.size() && t[j].kind == TokKind::kIdent)
            unordered.insert(t[j].text);
    }
    if (unordered.empty())
        return;

    // Pass 2: range-for whose range expression names one of them.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!isIdent(t, i, "for") || !isPunct(t, i + 1, "("))
            continue;
        const std::size_t close = matchParen(t, i + 1);
        if (close == std::string::npos)
            continue;
        // Find the top-level ':' of a range-for.
        std::size_t colon = std::string::npos;
        int depth = 0;
        for (std::size_t k = i + 2; k < close; ++k) {
            if (t[k].kind != TokKind::kPunct)
                continue;
            if (t[k].is("(") || t[k].is("[") || t[k].is("{"))
                ++depth;
            else if (t[k].is(")") || t[k].is("]") || t[k].is("}"))
                --depth;
            else if (t[k].is(":") && depth == 0) {
                colon = k;
                break;
            }
            if (t[k].is(";"))
                break;  // classic for loop
        }
        if (colon == std::string::npos)
            continue;
        for (std::size_t k = colon + 1; k < close; ++k) {
            if (t[k].kind == TokKind::kIdent &&
                unordered.count(t[k].text)) {
                sink->emit(t[k].line, "det-unordered-iter",
                           Severity::kError,
                           "iteration over unordered container '" +
                               t[k].text +
                               "' in an output/stats path; order "
                               "depends on hash layout — collect "
                               "and sort deterministically first");
                break;
            }
        }
    }
}

/**
 * det-static-local — a mutable function-local `static` in simulator
 * code is shared state reachable from parallelFor workers: a data
 * race at worst, cross-run coupling at best. Pass state explicitly
 * or make it const/constexpr.
 */
void
ruleDetStaticLocal(const std::string &path, const Tokens &t,
                   Sink *sink)
{
    if (!underDir(path, "src/"))
        return;

    enum class Scope { kNamespace, kClass, kBlock };
    std::vector<Scope> stack;
    enum class Pending { kNone, kNamespace, kClass };
    Pending pending = Pending::kNone;

    for (std::size_t i = 0; i < t.size(); ++i) {
        const Token &tok = t[i];
        if (tok.kind == TokKind::kIdent) {
            if (tok.is("namespace")) {
                pending = Pending::kNamespace;
            } else if (tok.is("class") || tok.is("struct") ||
                       tok.is("union") || tok.is("enum")) {
                pending = Pending::kClass;
            } else if (tok.is("static")) {
                const bool inBlock =
                    !stack.empty() && stack.back() == Scope::kBlock;
                if (!inBlock)
                    continue;
                // `static const`/`static constexpr` locals are
                // immutable after init — allowed.
                bool immutable = false;
                for (std::size_t k = i + 1;
                     k < std::min(i + 4, t.size()); ++k) {
                    if (isIdent(t, k, "const") ||
                        isIdent(t, k, "constexpr"))
                        immutable = true;
                }
                if (!immutable)
                    sink->emit(tok.line, "det-static-local",
                               Severity::kError,
                               "mutable function-local static: "
                               "hidden shared state reachable from "
                               "parallelFor workers; pass state "
                               "explicitly or make it constexpr");
            }
            continue;
        }
        if (tok.kind != TokKind::kPunct)
            continue;
        if (tok.is("{")) {
            Scope s = Scope::kBlock;
            if (pending == Pending::kNamespace)
                s = Scope::kNamespace;
            else if (pending == Pending::kClass)
                s = Scope::kClass;
            stack.push_back(s);
            pending = Pending::kNone;
        } else if (tok.is("}")) {
            if (!stack.empty())
                stack.pop_back();
        } else if (tok.is(";") || tok.is("(") || tok.is(")") ||
                   tok.is(",") || tok.is(">") || tok.is("=")) {
            // Forward declarations, template parameters and
            // elaborated type specifiers never open their brace.
            pending = Pending::kNone;
        }
    }
}

// ---------------------------------------------------------------
// Family 2: error discipline.
// ---------------------------------------------------------------

/**
 * err-fatal-user-input — user-supplied configuration (CLI flags,
 * device profiles) must throw ConfigError so front ends print usage
 * and exit(2); SIM_FATAL aborts the process and is reserved for
 * internal invariants.
 */
void
ruleErrFatalUserInput(const std::string &path, const Tokens &t,
                      Sink *sink)
{
    const bool userInput = pathHas(path, "device_profile") ||
                           pathHas(path, "_cli") ||
                           underDir(path, "tools/");
    if (!userInput)
        return;
    for (const Token &tok : t) {
        if (tok.kind == TokKind::kIdent && tok.is("SIM_FATAL"))
            sink->emit(tok.line, "err-fatal-user-input",
                       Severity::kError,
                       "SIM_FATAL on a user-input path; throw "
                       "cxlsim::ConfigError so the front end can "
                       "print usage and exit cleanly");
    }
}

/**
 * err-stray-stream — the simulator library writes no streams:
 * stdout belongs to figure output (bit-compared across runs) and
 * stderr to the logging helpers. snprintf into buffers is fine.
 */
void
ruleErrStrayStream(const std::string &path, const Tokens &t,
                   Sink *sink)
{
    if (!underDir(path, "src/") || pathHas(path, "sim/logging."))
        return;
    static const std::set<std::string> kBanned = {
        "cout", "cerr", "clog", "printf", "fprintf",
        "puts", "putchar", "vprintf", "vfprintf",
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent ||
            !kBanned.count(t[i].text))
            continue;
        // Member access is someone else's API (writer.puts(...)).
        if (i > 0 && (isPunct(t, i - 1, ".") ||
                      isPunct(t, i - 1, "->")))
            continue;
        sink->emit(t[i].line, "err-stray-stream", Severity::kError,
                   "'" + t[i].text +
                       "' in library code; use SIM_WARN/SIM_PANIC "
                       "or return data to the caller (stdout is "
                       "reserved for figure output)");
    }
}

// ---------------------------------------------------------------
// Family 3: header hygiene.
// ---------------------------------------------------------------

/**
 * hdr-guard / hdr-pragma-once — headers carry a classic include
 * guard whose name matches the ALL_CAPS *_HH convention (stable
 * under file moves in ways #pragma once is not, and greppable).
 */
void
ruleHdrGuard(const std::string &path, const Tokens &t, Sink *sink)
{
    if (!isHeaderPath(path))
        return;

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kDirective)
            continue;
        if (t[i].is("pragma") && isIdent(t, i + 1, "once")) {
            sink->emit(t[i].line, "hdr-pragma-once",
                       Severity::kError,
                       "#pragma once; project convention is a "
                       "classic CXLSIM_*_HH include guard");
            return;
        }
        if (!t[i].is("ifndef")) {
            sink->emit(t[i].line, "hdr-guard", Severity::kError,
                       "first preprocessor directive is not the "
                       "include guard's #ifndef");
            return;
        }
        // #ifndef NAME  /  #define NAME  (same NAME, *_HH shape).
        if (i + 1 >= t.size() ||
            t[i + 1].kind != TokKind::kIdent) {
            sink->emit(t[i].line, "hdr-guard", Severity::kError,
                       "malformed include guard");
            return;
        }
        const std::string &name = t[i + 1].text;
        if (!(i + 3 < t.size() && t[i + 2].is("define") &&
              t[i + 2].kind == TokKind::kDirective &&
              t[i + 3].kind == TokKind::kIdent &&
              t[i + 3].text == name)) {
            sink->emit(t[i].line, "hdr-guard", Severity::kError,
                       "include guard #ifndef '" + name +
                           "' is not followed by a matching "
                           "#define");
            return;
        }
        bool shape = !name.empty() && name.back() != '_' &&
                     (name.size() < 3 ||
                      name.compare(name.size() - 3, 3, "_HH") == 0 ||
                      name.compare(name.size() - 2, 2, "_H") == 0);
        for (char c : name)
            if (!(std::isupper(static_cast<unsigned char>(c)) ||
                  std::isdigit(static_cast<unsigned char>(c)) ||
                  c == '_'))
                shape = false;
        if (!shape)
            sink->emit(t[i].line, "hdr-guard", Severity::kError,
                       "include-guard name '" + name +
                           "' does not follow the ALL_CAPS *_HH "
                           "convention");
        return;
    }
    sink->emit(1, "hdr-guard", Severity::kError,
               "header has no include guard");
}

/**
 * hdr-missing-include — a header that names a std:: type must
 * include that type's header itself; relying on a transitive
 * include breaks the next refactor (include-what-you-use, limited
 * to an unambiguous symbol→header map so it cannot false-positive).
 */
void
ruleHdrMissingInclude(const std::string &path, const Tokens &t,
                      Sink *sink)
{
    if (!isHeaderPath(path) ||
        (!underDir(path, "src/") && !underDir(path, "tools/")))
        return;

    static const std::map<std::string, std::string> kSymbolHeader = {
        {"string", "string"},
        {"string_view", "string_view"},
        {"vector", "vector"},
        {"deque", "deque"},
        {"array", "array"},
        {"map", "map"},
        {"multimap", "map"},
        {"set", "set"},
        {"multiset", "set"},
        {"unordered_map", "unordered_map"},
        {"unordered_multimap", "unordered_map"},
        {"unordered_set", "unordered_set"},
        {"unordered_multiset", "unordered_set"},
        {"optional", "optional"},
        {"function", "functional"},
        {"unique_ptr", "memory"},
        {"shared_ptr", "memory"},
        {"weak_ptr", "memory"},
        {"make_unique", "memory"},
        {"make_shared", "memory"},
        {"uint8_t", "cstdint"},
        {"uint16_t", "cstdint"},
        {"uint32_t", "cstdint"},
        {"uint64_t", "cstdint"},
        {"int8_t", "cstdint"},
        {"int16_t", "cstdint"},
        {"int32_t", "cstdint"},
        {"int64_t", "cstdint"},
        {"size_t", "cstddef"},
        {"atomic", "atomic"},
        {"mutex", "mutex"},
        {"thread", "thread"},
        {"condition_variable", "condition_variable"},
    };

    std::set<std::string> included;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind == TokKind::kDirective && t[i].is("include") &&
            isPunct(t, i + 1, "<") &&
            t.size() > i + 2 && t[i + 2].kind == TokKind::kIdent)
            included.insert(t[i + 2].text);
    }

    std::set<std::string> reported;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!isIdent(t, i, "std") || !isPunct(t, i + 1, "::"))
            continue;
        const auto it = kSymbolHeader.find(t[i + 2].text);
        if (it == kSymbolHeader.end() || included.count(it->second))
            continue;
        if (!reported.insert(it->second).second)
            continue;  // one diagnostic per missing header
        sink->emit(t[i + 2].line, "hdr-missing-include",
                   Severity::kError,
                   "uses std::" + t[i + 2].text +
                       " without including <" + it->second +
                       "> (headers must be self-contained)");
    }
}

}  // namespace

const char *
severityName(Severity s)
{
    return s == Severity::kError ? "error" : "warning";
}

int
Report::errorCount() const
{
    return static_cast<int>(std::count_if(
        diags.begin(), diags.end(), [](const Diagnostic &d) {
            return d.severity == Severity::kError;
        }));
}

int
Report::warningCount() const
{
    return static_cast<int>(diags.size()) - errorCount();
}

std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &content,
           int *suppressedOut,
           std::vector<SuppressionNote> *notesOut,
           std::vector<IncludeDecl> *includesOut)
{
    const LexResult lexed = lex(content);
    std::vector<Diagnostic> diags;
    Sink sink(path, lexed, &diags, suppressedOut, notesOut);

    ruleDetBannedCall(path, lexed.tokens, &sink);
    ruleDetUnorderedIter(path, lexed.tokens, &sink);
    ruleDetStaticLocal(path, lexed.tokens, &sink);
    ruleErrFatalUserInput(path, lexed.tokens, &sink);
    ruleErrStrayStream(path, lexed.tokens, &sink);
    ruleHdrGuard(path, lexed.tokens, &sink);
    ruleHdrMissingInclude(path, lexed.tokens, &sink);

    // Flow- and project-aware rules on the structural front end.
    const FileStructure fs = analyzeStructure(lexed.tokens);
    ruleSigAsyncSafety(path, lexed.tokens, fs, &sink);
    ruleArchLayering(path, lexed.tokens, fs, &sink);
    if (includesOut)
        *includesOut = fs.includes;

    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    if (notesOut)
        std::sort(notesOut->begin(), notesOut->end(),
                  [](const SuppressionNote &a,
                     const SuppressionNote &b) {
                      if (a.line != b.line)
                          return a.line < b.line;
                      return a.rule < b.rule;
                  });
    return diags;
}

}  // namespace melodylint
