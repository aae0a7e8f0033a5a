/**
 * @file
 * melody-lint CLI.
 *
 *   melody_lint [--json <path>] [--quiet] <path>...
 *
 * Paths may be files or directories (recursed). Diagnostics print
 * as  path:line: severity: [rule-id] message  — the format editors
 * and CI annotators already parse. Every run lints every file and
 * writes nothing but the optional JSON report. Exit status: 0
 * clean (warnings allowed), 1 rule errors found, 2 usage/IO
 * error.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hh"

int
main(int argc, char **argv)
{
    std::vector<std::string> roots;
    std::string jsonPath;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (++i >= argc) {
                std::cerr << "melody-lint: --json needs a path\n";
                return 2;
            }
            jsonPath = argv[i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: melody_lint [--json <path>] "
                         "[--quiet] <path>...\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "melody-lint: unknown option " << arg
                      << "\n";
            return 2;
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty()) {
        std::cerr << "usage: melody_lint [--json <path>] [--quiet] "
                     "<path>...\n";
        return 2;
    }

    const melodylint::Report report =
        melodylint::lintTree(roots);

    for (const auto &d : report.diags)
        std::cout << d.path << ":" << d.line << ": "
                  << melodylint::severityName(d.severity) << ": ["
                  << d.rule << "] " << d.message << "\n";

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::cerr << "melody-lint: cannot write " << jsonPath
                      << "\n";
            return 2;
        }
        melodylint::writeJsonReport(report, out);
    }

    if (!quiet) {
        char ms[32];
        std::snprintf(ms, sizeof ms, "%.1f", report.elapsedMs);
        std::cerr << "melody-lint: " << report.filesScanned
                  << " files, " << report.errorCount()
                  << " errors, " << report.warningCount()
                  << " warnings, " << report.suppressed
                  << " suppressed, " << ms << " ms\n";
    }

    return report.errorCount() > 0 ? 1 : 0;
}
