/**
 * @file
 * melody-lint result cache: line-based text format, atomic rewrite.
 *
 *   melody-lint-cache <version>
 *   F <path> <hash-hex> <ndiags> <nnotes> <nincludes>
 *   D <line> <E|W> <rule> <message...>
 *   S <line> <rule> <reason...>
 *   I <line> <include-path>
 *
 * Messages and reasons are rest-of-line (they contain spaces but
 * never newlines); paths and rule ids contain neither.
 */

#include "cache.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace melodylint {

const char *const kCacheVersion = "melody-lint-cache 3";

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

LintCache::LintCache(std::string filePath)
    : filePath_(std::move(filePath))
{}

void
LintCache::load()
{
    std::ifstream in(filePath_);
    if (!in)
        return;
    std::string header;
    if (!std::getline(in, header) || header != kCacheVersion)
        return;  // stale or foreign file: start cold

    std::map<std::string, Entry> entries;
    std::string line;
    std::string curPath;
    Entry cur;
    int wantD = 0, wantS = 0, wantI = 0;

    auto flush = [&]() {
        // Only accept fully parsed records.
        if (!curPath.empty() && wantD == 0 && wantS == 0 &&
            wantI == 0)
            entries[curPath] = std::move(cur);
        curPath.clear();
        cur = Entry{};
    };

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ss(line);
        std::string tag;
        ss >> tag;
        if (tag == "F") {
            flush();
            std::string hashHex;
            ss >> curPath >> hashHex >> wantD >> wantS >> wantI;
            if (!ss || wantD < 0 || wantS < 0 || wantI < 0) {
                curPath.clear();
                wantD = wantS = wantI = 0;
                continue;
            }
            cur.hash = std::strtoull(hashHex.c_str(), nullptr, 16);
        } else if (tag == "D" && !curPath.empty() && wantD > 0) {
            --wantD;
            Diagnostic d;
            std::string sev;
            ss >> d.line >> sev >> d.rule;
            std::getline(ss, d.message);
            if (!d.message.empty() && d.message.front() == ' ')
                d.message.erase(0, 1);
            d.path = curPath;
            d.severity = sev == "W" ? Severity::kWarning
                                    : Severity::kError;
            cur.result.diags.push_back(std::move(d));
        } else if (tag == "S" && !curPath.empty() && wantS > 0) {
            --wantS;
            SuppressionNote n;
            ss >> n.line >> n.rule;
            std::getline(ss, n.reason);
            if (!n.reason.empty() && n.reason.front() == ' ')
                n.reason.erase(0, 1);
            n.path = curPath;
            cur.result.notes.push_back(std::move(n));
        } else if (tag == "I" && !curPath.empty() && wantI > 0) {
            --wantI;
            IncludeDecl inc;
            ss >> inc.line >> inc.path;
            cur.result.includes.push_back(std::move(inc));
        } else {
            // Unknown/malformed line: drop the current record.
            curPath.clear();
            wantD = wantS = wantI = 0;
        }
    }
    flush();
    entries_ = std::move(entries);
}

bool
LintCache::lookup(const std::string &path, std::uint64_t hash,
                  FileResult *out) const
{
    std::lock_guard<std::mutex> g(mu_);
    const auto it = entries_.find(path);
    if (it == entries_.end() || it->second.hash != hash)
        return false;
    *out = it->second.result;
    return true;
}

void
LintCache::store(const std::string &path, std::uint64_t hash,
                 const FileResult &result)
{
    std::lock_guard<std::mutex> g(mu_);
    entries_[path] = {hash, result};
}

bool
LintCache::save() const
{
    const std::string tmp = filePath_ + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        out << kCacheVersion << "\n";
        std::lock_guard<std::mutex> g(mu_);
        for (const auto &[path, e] : entries_) {
            char hex[32];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(e.hash));
            out << "F " << path << " " << hex << " "
                << e.result.diags.size() << " "
                << e.result.notes.size() << " "
                << e.result.includes.size() << "\n";
            for (const Diagnostic &d : e.result.diags)
                out << "D " << d.line << " "
                    << (d.severity == Severity::kWarning ? "W"
                                                         : "E")
                    << " " << d.rule << " " << d.message << "\n";
            for (const SuppressionNote &n : e.result.notes)
                out << "S " << n.line << " " << n.rule << " "
                    << n.reason << "\n";
            for (const IncludeDecl &inc : e.result.includes)
                out << "I " << inc.line << " " << inc.path << "\n";
        }
        if (!out)
            return false;
    }
    return std::rename(tmp.c_str(), filePath_.c_str()) == 0;
}

}  // namespace melodylint
