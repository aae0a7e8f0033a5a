/**
 * @file
 * Flow-aware melody-lint rules built on the structural front end
 * (structure.hh): signal-handler async-signal-safety. See DESIGN.md
 * §13 for the catalog and the rationale behind each family's scope.
 */

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lexer.hh"
#include "lint.hh"
#include "rules.hh"
#include "structure.hh"

namespace melodylint {
namespace {

/** Keywords and fundamental types that look like calls
 *  (`name (...)`) but are control flow or functional casts. */
const std::set<std::string> kCallLikeKeywords = {
    "if",     "for",      "while",   "switch",   "return",
    "catch",  "sizeof",   "alignof", "decltype", "throw",
    "new",    "delete",   "assert",  "static_assert",
    "defined", "int",     "char",    "bool",     "long",
    "short",  "unsigned", "signed",  "float",    "double",
    "void",   "auto",     "size_t",  "ssize_t",  "uint64_t",
    "uint32_t", "int64_t", "int32_t", "pid_t",
};

/** True when token @p i is a call expression head: `name (` with no
 *  member-access/qualifier right before and not a keyword. */
bool
isPlainCall(const Tokens &t, std::size_t i)
{
    if (t[i].kind != TokKind::kIdent || !isPunct(t, i + 1, "("))
        return false;
    if (kCallLikeKeywords.count(t[i].text))
        return false;
    return true;
}

// ---------------------------------------------------------------
// sig-async-safety
// ---------------------------------------------------------------

/** POSIX async-signal-safe functions this codebase plausibly calls
 *  from a handler (plus the sig* registration family so a handler
 *  may re-arm itself). */
const std::set<std::string> kAsyncSignalSafe = {
    "write",    "read",       "close",       "open",
    "_exit",    "_Exit",      "abort",       "raise",
    "kill",     "signal",     "sigaction",   "sigemptyset",
    "sigfillset", "sigaddset", "sigdelset",  "sigprocmask",
    "fcntl",    "dup",        "dup2",        "pipe",
    "getpid",   "getppid",    "waitpid",     "fsync",
    "fdatasync", "unlink",    "send",        "recv",
};

/** Handler names registered in this TU via sigaction fields or
 *  signal()/ bsd_signal(). */
std::set<std::string>
registeredHandlers(const Tokens &t)
{
    std::set<std::string> names;
    auto record = [&names](const Tokens &tt, std::size_t i) {
        // Skip `&` and `::` decoration around the handler name.
        while (i < tt.size() &&
               (isPunct(tt, i, "&") || isPunct(tt, i, "::")))
            ++i;
        if (i < tt.size() && tt[i].kind == TokKind::kIdent &&
            !tt[i].is("SIG_DFL") && !tt[i].is("SIG_IGN") &&
            !tt[i].is("nullptr"))
            names.insert(tt[i].text);
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent)
            continue;
        // `sa.sa_handler = name;` / `act->sa_sigaction = name;`
        if ((t[i].is("sa_handler") || t[i].is("sa_sigaction")) &&
            isPunct(t, i + 1, "=")) {
            record(t, i + 2);
            continue;
        }
        // `signal(SIG, name)` — second argument.
        if (t[i].is("signal") && isPunct(t, i + 1, "(")) {
            const std::size_t close = matchParen(t, i + 1);
            if (close == std::string::npos)
                continue;
            int depth = 0;
            for (std::size_t k = i + 2; k < close; ++k) {
                if (isPunct(t, k, "(") || isPunct(t, k, "["))
                    ++depth;
                else if (isPunct(t, k, ")") || isPunct(t, k, "]"))
                    --depth;
                else if (isPunct(t, k, ",") && depth == 0) {
                    record(t, k + 1);
                    break;
                }
            }
        }
    }
    return names;
}

/**
 * sig-async-safety — a signal handler interrupts arbitrary code,
 * possibly mid-malloc or mid-printf; anything beyond the POSIX
 * async-signal-safe set (write to a self-pipe, sig_atomic_t flags)
 * can deadlock or corrupt state. The rule follows same-TU calls out
 * of every function registered as a handler in this TU.
 */
void
ruleSigAsyncSafetyImpl(const std::string &path, const Tokens &t,
                       const FileStructure &fs, Sink *sink)
{
    if (!underDir(path, "src/"))
        return;

    const std::set<std::string> handlers = registeredHandlers(t);
    if (handlers.empty())
        return;

    std::vector<std::pair<std::size_t, std::size_t>> roots;
    for (const std::string &h : handlers)
        for (std::size_t fi : fs.functionsNamed(h))
            roots.emplace_back(fs.functions[fi].bodyBegin,
                               fs.functions[fi].bodyEnd);
    if (roots.empty())
        return;  // handler defined in another TU

    std::vector<std::string> reachedFns;
    const auto reached = callClosure(fs, t, roots, &reachedFns);
    const std::set<std::string> sameTu(reachedFns.begin(),
                                       reachedFns.end());

    for (const auto &[begin, end] : reached) {
        for (std::size_t i = begin; i <= end && i < t.size(); ++i) {
            if (!isPlainCall(t, i))
                continue;
            const std::string &name = t[i].text;
            if (kAsyncSignalSafe.count(name) || sameTu.count(name) ||
                handlers.count(name))
                continue;
            if (i > 0 && (isPunct(t, i - 1, ".") ||
                          isPunct(t, i - 1, "->"))) {
                sink->emit(t[i].line, "sig-async-safety",
                           Severity::kError,
                           "member call '" + name +
                               "()' reachable from a signal "
                               "handler; handlers may only touch "
                               "sig_atomic_t flags and the "
                               "async-signal-safe allowlist");
                continue;
            }
            sink->emit(t[i].line, "sig-async-safety",
                       Severity::kError,
                       "call to '" + name +
                           "()' reachable from a signal handler is "
                           "not on the async-signal-safe allowlist "
                           "(write/_exit/sigaction/... only)");
        }
    }
}

}  // namespace

void
ruleSigAsyncSafety(const std::string &path, const Tokens &t,
                   const FileStructure &fs, Sink *sink)
{
    ruleSigAsyncSafetyImpl(path, t, fs, sink);
}

}  // namespace melodylint
