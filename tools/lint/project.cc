/**
 * @file
 * Architecture rules: the layer order from DESIGN.md §13 enforced
 * per include edge (arch-layering, per-file) and include-cycle
 * detection over the repo-wide graph
 * (arch-include-cycle, driver project phase).
 */

#include "project.hh"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rules.hh"

namespace melodylint {
namespace {

/**
 * The measured layer order of the tree (DESIGN.md §13). Lower
 * layers must never include upward; equal-layer includes are fine
 * (sim and stats are mutually entangled foundations by design).
 */
const std::map<std::string, int> kLayerOfDir = {
    {"sim", 0},       {"stats", 0},
    {"dram", 1},      {"link", 1},
    {"cxl", 2},
    {"mem", 3},
    {"cpu", 4},
    {"workloads", 5},
    {"core", 6},
    {"spa", 7},
    {"bench", 8},     {"tools", 8},
    {"examples", 8},  {"tests", 8},
};

const char *const kLayerNames[] = {
    "engine (sim/stats)", "media (dram/link)",
    "cxl",                "mem",  "cpu",
    "workloads",          "core", "spa",
    "frontend (bench/tools)",
};

/** The layer-bearing path component: the one after the last "src"
 *  component, else the first component that names a layered
 *  directory (so absolute and repo-relative paths both work). */
std::string
topDir(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos < path.size()) {
        const std::size_t slash = path.find('/', pos);
        if (slash == std::string::npos)
            break;  // final component is the filename, not a dir
        parts.push_back(path.substr(pos, slash - pos));
        pos = slash + 1;
    }
    for (std::size_t i = parts.size(); i-- > 0;)
        if (parts[i] == "src" && i + 1 < parts.size())
            return parts[i + 1];
    for (const std::string &p : parts)
        if (kLayerOfDir.count(p) && p != "src")
            return p;
    return std::string();
}

/** Lexically normalize "a/b/../c" and "a/./c". */
std::string
normalizePath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        const std::size_t slash = path.find('/', pos);
        const std::string part =
            path.substr(pos, (slash == std::string::npos
                                  ? path.size()
                                  : slash) - pos);
        if (part == "..") {
            if (!parts.empty())
                parts.pop_back();
        } else if (!part.empty() && part != ".") {
            parts.push_back(part);
        }
        if (slash == std::string::npos)
            break;
        pos = slash + 1;
    }
    std::string out = path.rfind('/', 0) == 0 ? "/" : "";
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i ? "/" : "") + parts[i];
    return out;
}

}  // namespace

int
layerOf(const std::string &path)
{
    const std::string dir = topDir(path);
    const auto it = kLayerOfDir.find(dir);
    return it == kLayerOfDir.end() ? -1 : it->second;
}

const char *
layerName(int layer)
{
    if (layer < 0 ||
        layer >= static_cast<int>(std::size(kLayerNames)))
        return "unknown";
    return kLayerNames[layer];
}

/**
 * arch-layering — an include edge from a lower layer into a higher
 * one inverts the dependency order that makes the ROADMAP topology
 * refactor safe: sim must stay ignorant of mem, mem of cpu, and
 * everything of the front ends. The layer of an include is derived
 * from its written path (includes are written src/-relative), so
 * the rule stays per-file.
 */
void
ruleArchLayering(const std::string &path, const Tokens &t,
                 const FileStructure &fs, Sink *sink)
{
    (void)t;
    const int from = layerOf(path);
    if (from < 0)
        return;  // outside the layered tree (fixtures, scripts)
    for (const IncludeDecl &inc : fs.includes) {
        const int to = layerOf(inc.path);
        if (to < 0 || to <= from)
            continue;
        sink->emit(inc.line, "arch-layering", Severity::kError,
                   "layer '" + std::string(layerName(from)) +
                       "' must not include upward into '" +
                       layerName(to) + "' (\"" + inc.path +
                       "\"); invert the dependency or move the "
                       "shared piece down (DESIGN.md §13)");
    }
}

std::string
resolveInclude(const std::string &fromPath, const std::string &text,
               const std::vector<std::string> &known)
{
    auto has = [&known](const std::string &p) {
        return std::binary_search(known.begin(), known.end(), p);
    };
    // Sibling of the includer ("lexer.hh" inside tools/lint/).
    const std::size_t slash = fromPath.rfind('/');
    if (slash != std::string::npos) {
        const std::string sib = normalizePath(
            fromPath.substr(0, slash + 1) + text);
        if (has(sib))
            return sib;
    }
    // src/-anchored ("sim/rng.hh" → "src/sim/rng.hh").
    const std::string anchored = normalizePath("src/" + text);
    if (has(anchored))
        return anchored;
    // As written ("tests/helpers.hh").
    const std::string asIs = normalizePath(text);
    if (has(asIs))
        return asIs;
    return std::string();
}

std::vector<Diagnostic>
projectIncludeCycles(const std::vector<ScannedFile> &files)
{
    // Edge list over scanned paths, deterministic order.
    std::vector<std::string> known;
    known.reserve(files.size());
    for (const ScannedFile &f : files)
        known.push_back(f.path);
    std::sort(known.begin(), known.end());

    struct Edge
    {
        std::string to;
        int line;
    };
    std::map<std::string, std::vector<Edge>> graph;
    for (const ScannedFile &f : files) {
        auto &edges = graph[f.path];
        for (const IncludeDecl &inc : f.includes) {
            const std::string to =
                resolveInclude(f.path, inc.path, known);
            if (!to.empty() && to != f.path)
                edges.push_back({to, inc.line});
        }
        std::sort(edges.begin(), edges.end(),
                  [](const Edge &a, const Edge &b) {
                      return a.to < b.to;
                  });
    }

    // DFS with an explicit path; a back edge into the current path
    // is a cycle. Each cycle is reported once, keyed by its sorted
    // member set, anchored at the back edge found first in sorted
    // DFS order (deterministic for any scan order).
    std::vector<Diagnostic> out;
    std::set<std::string> done;       // fully explored
    std::set<std::vector<std::string>> reportedCycles;
    std::vector<std::string> path;    // current DFS chain
    std::set<std::string> onPath;

    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            path.push_back(node);
            onPath.insert(node);
            for (const Edge &e : graph[node]) {
                if (onPath.count(e.to)) {
                    // Cycle: slice of path from e.to to node.
                    auto it = std::find(path.begin(), path.end(),
                                        e.to);
                    std::vector<std::string> cyc(it, path.end());
                    std::vector<std::string> key = cyc;
                    std::sort(key.begin(), key.end());
                    if (reportedCycles.insert(key).second) {
                        std::string chain;
                        for (const std::string &p : cyc)
                            chain += p + " -> ";
                        chain += e.to;
                        out.push_back(
                            {node, e.line, "arch-include-cycle",
                             Severity::kError,
                             "include cycle: " + chain +
                                 "; break it with a forward "
                                 "declaration or by moving the "
                                 "shared type down a layer"});
                    }
                    continue;
                }
                if (!done.count(e.to))
                    dfs(e.to);
            }
            onPath.erase(node);
            path.pop_back();
            done.insert(node);
        };

    for (const std::string &p : known)
        if (!done.count(p))
            dfs(p);

    std::sort(out.begin(), out.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

}  // namespace melodylint
