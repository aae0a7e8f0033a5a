/**
 * @file
 * Structural analysis over the melody-lint token stream: brace-kind
 * classification, function-definition recovery, include harvesting
 * and the same-TU call closure. See structure.hh for the contract.
 */

#include "structure.hh"

#include <cstddef>
#include <set>

#include "rules.hh"

namespace melodylint {
namespace {

/** Specifiers that may sit between a declarator's ')' and the body
 *  '{' of a function definition. */
bool
isFuncSpecifier(const Token &tok)
{
    return tok.kind == TokKind::kIdent &&
           (tok.is("const") || tok.is("noexcept") ||
            tok.is("override") || tok.is("final") ||
            tok.is("mutable") || tok.is("try"));
}

}  // namespace

std::size_t
FileStructure::enclosingBlockEnd(std::size_t i) const
{
    std::size_t best = std::string::npos;
    for (const auto &[open, info] : braces) {
        if (open >= i)
            break;  // map is ordered by open index
        if (info.kind != BraceKind::kBlock)
            continue;
        if (info.close > i &&
            (best == std::string::npos || info.close < best))
            best = info.close;
    }
    return best;
}

std::vector<std::size_t>
FileStructure::functionsNamed(const std::string &name) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < functions.size(); ++i)
        if (functions[i].name == name)
            out.push_back(i);
    return out;
}

FileStructure
analyzeStructure(const std::vector<Token> &t)
{
    FileStructure fs;

    // ---- Pass A: classify every brace pair. A '{' opens a
    // namespace or class body when the matching keyword is still
    // "pending" (not cancelled by a ';', '(' ... that means the
    // keyword belonged to a forward declaration, template parameter
    // or elaborated type specifier); everything else is a block.
    // Mirrors the scope tracker the det-static-local rule has used
    // since PR 3, but records the result for all rules to share.
    {
        enum class Pending { kNone, kNamespace, kClass };
        Pending pending = Pending::kNone;
        std::vector<std::size_t> stack;  // open-brace token indices
        for (std::size_t i = 0; i < t.size(); ++i) {
            const Token &tok = t[i];
            if (tok.kind == TokKind::kIdent) {
                if (tok.is("namespace"))
                    pending = Pending::kNamespace;
                else if (tok.is("class") || tok.is("struct") ||
                         tok.is("union") || tok.is("enum"))
                    pending = Pending::kClass;
                continue;
            }
            if (tok.kind != TokKind::kPunct)
                continue;
            if (tok.is("{")) {
                BraceKind k = BraceKind::kBlock;
                if (pending == Pending::kNamespace)
                    k = BraceKind::kNamespace;
                else if (pending == Pending::kClass)
                    k = BraceKind::kClass;
                fs.braces[i] = {0, k};
                stack.push_back(i);
                pending = Pending::kNone;
            } else if (tok.is("}")) {
                if (!stack.empty()) {
                    fs.braces[stack.back()].close = i;
                    stack.pop_back();
                }
            } else if (tok.is(";") || tok.is("(") || tok.is(")") ||
                       tok.is(",") || tok.is(">") || tok.is("=")) {
                pending = Pending::kNone;
            }
        }
        // Unterminated braces close at end-of-file.
        for (std::size_t open : stack)
            fs.braces[open].close = t.empty() ? 0 : t.size() - 1;
    }

    // ---- Pass B: function definitions. Shape: a name token,
    // directly followed by a matched '(...)', then optional
    // specifiers / a member-initializer list / a trailing return
    // type, then a '{' whose parent scope is not a block (function
    // bodies never open inside another statement block — lambdas
    // do, and are deliberately not collected here).
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent || !isPunct(t, i + 1, "("))
            continue;
        // Control-flow keywords look like `name (...)` too.
        if (t[i].is("if") || t[i].is("for") || t[i].is("while") ||
            t[i].is("switch") || t[i].is("return") ||
            t[i].is("catch") || t[i].is("sizeof") ||
            t[i].is("alignof") || t[i].is("decltype") ||
            t[i].is("throw") || t[i].is("new") || t[i].is("delete"))
            continue;
        const std::size_t close = matchParen(t, i + 1);
        if (close == std::string::npos)
            continue;
        // Walk from ')' to the body '{', skipping what a definition
        // header may legally contain.
        std::size_t j = close + 1;
        bool ok = true;
        while (j < t.size() && !isPunct(t, j, "{")) {
            const Token &tok = t[j];
            if (isFuncSpecifier(tok)) {
                ++j;
            } else if (isPunct(t, j, "->")) {
                // Trailing return type: skip to '{' or give up at
                // statement level.
                ++j;
                while (j < t.size() && !isPunct(t, j, "{") &&
                       !isPunct(t, j, ";") && !isPunct(t, j, "}"))
                    j = isPunct(t, j, "<") ? skipTemplateArgs(t, j)
                                           : j + 1;
            } else if (isPunct(t, j, ":")) {
                // Member-initializer list: name(args), name{args}...
                // A '{' right after a name (or a template's '>') is
                // a brace initializer; any other '{' is the body.
                ++j;
                while (j < t.size() && !isPunct(t, j, ";")) {
                    if (isPunct(t, j, "(")) {
                        const std::size_t c = matchParen(t, j);
                        if (c == std::string::npos)
                            break;
                        j = c + 1;
                    } else if (isPunct(t, j, "{")) {
                        if (t[j - 1].kind != TokKind::kIdent &&
                            !isPunct(t, j - 1, ">"))
                            break;  // the function body
                        const auto it = fs.braces.find(j);
                        if (it == fs.braces.end())
                            break;
                        j = it->second.close + 1;
                    } else {
                        ++j;
                    }
                }
            } else if (isPunct(t, j, "=")) {
                ok = false;  // `= default` / `= delete` / init
                break;
            } else {
                ok = false;  // a call expression, declaration, ...
                break;
            }
        }
        if (!ok || j >= t.size() || !isPunct(t, j, "{"))
            continue;
        const auto it = fs.braces.find(j);
        if (it == fs.braces.end() ||
            it->second.kind != BraceKind::kBlock)
            continue;
        // The body brace must not sit inside another block scope
        // (that would make `name(...) {` a call + compound
        // statement, or a lambda body).
        if (fs.enclosingBlockEnd(j) != std::string::npos)
            continue;
        fs.functions.push_back(
            {t[i].text, t[i].line, j, it->second.close});
    }

    // ---- Includes: directive "include" followed by a quoted path
    // (angle includes tokenize as '<' ident '>' and are skipped —
    // system headers are outside the project graph).
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::kDirective || !t[i].is("include"))
            continue;
        if (t[i + 1].kind != TokKind::kString)
            continue;
        const std::string &s = t[i + 1].text;
        if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
            fs.includes.push_back(
                {s.substr(1, s.size() - 2), t[i].line});
    }

    return fs;
}

std::vector<std::pair<std::size_t, std::size_t>>
callClosure(const FileStructure &fs, const std::vector<Token> &t,
            std::vector<std::pair<std::size_t, std::size_t>> roots,
            std::vector<std::string> *reachedNames)
{
    std::vector<std::pair<std::size_t, std::size_t>> reached =
        std::move(roots);
    std::set<std::string> lookedUp;
    std::set<std::string> funcNames;
    std::set<std::size_t> seenBodies;

    for (std::size_t r = 0; r < reached.size(); ++r) {
        const auto [begin, end] = reached[r];
        for (std::size_t i = begin; i <= end && i < t.size(); ++i) {
            if (t[i].kind != TokKind::kIdent ||
                !isPunct(t, i + 1, "("))
                continue;
            if (!lookedUp.insert(t[i].text).second)
                continue;
            for (std::size_t fi : fs.functionsNamed(t[i].text)) {
                const FuncDef &f = fs.functions[fi];
                funcNames.insert(f.name);
                if (!seenBodies.insert(f.bodyBegin).second)
                    continue;
                reached.emplace_back(f.bodyBegin, f.bodyEnd);
            }
        }
    }
    if (reachedNames)
        reachedNames->assign(funcNames.begin(), funcNames.end());
    return reached;
}

}  // namespace melodylint
