/**
 * @file
 * melody-lint rule-engine tests: each rule family has a fixture
 * proving it fires (exact rule id + line) and a clean fixture
 * proving it stays quiet, plus suppression, scoping and lexer
 * robustness coverage. Fixtures live in tests/lint_fixtures/ and
 * are linted under *virtual* paths so the path-scoping logic is
 * exercised without depending on where the checkout lives.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace {

using melodylint::Diagnostic;
using melodylint::lintSource;
using melodylint::lintTree;
using melodylint::SuppressionNote;

std::string
fixture(const std::string &name)
{
    const std::string path =
        std::string(LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** (rule, line) pairs for compact assertions. */
std::vector<std::pair<std::string, int>>
ruleLines(const std::vector<Diagnostic> &diags)
{
    std::vector<std::pair<std::string, int>> out;
    out.reserve(diags.size());
    for (const auto &d : diags)
        out.emplace_back(d.rule, d.line);
    return out;
}

using Expected = std::vector<std::pair<std::string, int>>;

// ---------------------------------------------------------------
// Family 1: determinism.
// ---------------------------------------------------------------

TEST(LintDeterminism, BannedCallFiresWithRuleAndLine)
{
    const auto diags = lintSource("src/cxl/fixture.cc",
                                  fixture("det_banned_call.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-banned-call", 10},
                        {"det-banned-call", 16}}));
}

TEST(LintDeterminism, BannedCallAllowedInsideRng)
{
    // src/sim/rng.cc is the one blessed home for raw entropy.
    const auto diags = lintSource("src/sim/rng.cc",
                                  fixture("det_banned_call.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintDeterminism, UnorderedIterFiresInStatsPath)
{
    const auto diags = lintSource("src/stats/fixture.cc",
                                  fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-unordered-iter", 15}}));
}

TEST(LintDeterminism, UnorderedIterFiresInSweepEnginePaths)
{
    // The sweep engine renders figure bytes, so it is an output
    // path even though it lives under src/sim/.
    const auto sweepDiags = lintSource(
        "src/sim/sweep.cc", fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(sweepDiags),
              (Expected{{"det-unordered-iter", 15}}));
    const auto cacheDiags = lintSource(
        "src/sim/run_cache.cc", fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(cacheDiags),
              (Expected{{"det-unordered-iter", 15}}));
}

TEST(LintDeterminism, UnorderedIterQuietOutsideOutputPaths)
{
    // The same loop in the memory model is order-insensitive
    // simulation state, not figure output.
    const auto diags = lintSource("src/mem/fixture.cc",
                                  fixture("det_unordered_iter.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintDeterminism, StaticLocalFiresOnMutableOnly)
{
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("det_static_local.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-static-local", 8}}));
}

TEST(LintDeterminism, UnorderedIterFiresInFigurePaths)
{
    // Spa breakdowns and the figure builders under bench/ format
    // the printed rows, so both are output paths for this rule.
    const auto spaDiags = lintSource(
        "src/spa/fixture.cc", fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(spaDiags),
              (Expected{{"det-unordered-iter", 15}}));
    const auto benchDiags = lintSource(
        "bench/fixture.cc", fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(benchDiags),
              (Expected{{"det-unordered-iter", 15}}));
}

TEST(LintDeterminism, UnorderedIterFiresInFrontEndPaths)
{
    // The CLI prints tables and figure rows, so tools/ is an output
    // path like the sweep engine.
    const auto diags = lintSource("tools/fixture.cc",
                                  fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-unordered-iter", 15}}));
}

// ---------------------------------------------------------------
// Path scopes, pinned file by file: which real files each
// determinism/flow rule covers (true) and which it leaves alone.
// ---------------------------------------------------------------

struct ScopeCase
{
    const char *path;
    bool scoped;
};

/** Printed as the path, so test listings stay stable. */
void
PrintTo(const ScopeCase &c, std::ostream *os)
{
    *os << c.path << (c.scoped ? " (scoped)" : " (unscoped)");
}

/** Test-name suffix from the path: "src/sim/sweep.cc" ->
 *  "src_sim_sweep_cc". */
std::string
scopeCaseName(const testing::TestParamInfo<ScopeCase> &info)
{
    std::string name = info.param.path;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

class UnorderedIterScope : public testing::TestWithParam<ScopeCase>
{};

TEST_P(UnorderedIterScope, FiresOnlyInOutputPaths)
{
    const auto diags = lintSource(GetParam().path,
                                  fixture("det_unordered_iter.cc"));
    if (GetParam().scoped)
        EXPECT_EQ(ruleLines(diags),
                  (Expected{{"det-unordered-iter", 15}}));
    else
        EXPECT_TRUE(diags.empty());
}

INSTANTIATE_TEST_SUITE_P(
    RealFiles, UnorderedIterScope,
    testing::Values(ScopeCase{"tools/melody_cli.cc", true},
                    ScopeCase{"bench/figures.cc", true},
                    ScopeCase{"bench/perf_microbench.cc", true},
                    ScopeCase{"src/sim/sweep.cc", true},
                    ScopeCase{"src/sim/parallel.cc", false},
                    ScopeCase{"src/sim/interrupt.cc", false},
                    ScopeCase{"src/cpu/multicore.cc", false}),
    scopeCaseName);

// ---------------------------------------------------------------
// Flow family: sig-async-safety.
// ---------------------------------------------------------------

TEST(LintSigSafety, HandlerClosureChecked)
{
    // snprintf in the handler and logLine in the closure fire;
    // ::write, the same-TU helper call, the SIG_IGN registration
    // and the non-handler function stay quiet.
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("sig_async_safety.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"sig-async-safety", 14},
                        {"sig-async-safety", 23}}));
}

TEST(LintSigSafety, AppliesAcrossAllOfSrc)
{
    // Handlers can be registered anywhere under src/.
    const auto diags = lintSource("src/mem/fixture.cc",
                                  fixture("sig_async_safety.cc"));
    EXPECT_EQ(diags.size(), 2u);
}

TEST(LintSigSafety, ClosureEntersEveryDefinitionShape)
{
    // The handler reaches a constructor whose member-initializer
    // list ends in a brace initializer, a function with a trailing
    // return type and an out-of-line const noexcept member; the
    // deleted and defaulted members have no body to follow.
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("sig_async_safety_defs.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"sig-async-safety", 15},
                        {"sig-async-safety", 30},
                        {"sig-async-safety", 36}}));
}

// ---------------------------------------------------------------
// Architecture family: layering and include cycles.
// ---------------------------------------------------------------

TEST(LintArch, LayeringFiresOnUpwardIncludes)
{
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("arch_layering.cc"));
    EXPECT_EQ(ruleLines(diags), (Expected{{"arch-layering", 10},
                                          {"arch-layering", 11}}));
}

TEST(LintArch, LayeringQuietOnDownwardIncludes)
{
    // From core (near the top) every include in the fixture points
    // downward.
    const auto diags = lintSource("src/core/fixture.cc",
                                  fixture("arch_layering.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintArch, FrontEndIsTheTopLayer)
{
    // bench/ and tools/ sit above spa, the highest src/ layer, and
    // may include anything below them.
    const std::string up = "#include \"bench/figures.hh\"\n"
                           "#include \"tools/lint/lint.hh\"\n";
    const auto diags = lintSource("src/spa/fixture.cc", up);
    ASSERT_EQ(ruleLines(diags), (Expected{{"arch-layering", 1},
                                          {"arch-layering", 2}}));
    for (const auto &d : diags)
        EXPECT_NE(d.message.find("layer 'spa' must not include upward "
                                 "into 'frontend (bench/tools)'"),
                  std::string::npos)
            << d.message;
    EXPECT_TRUE(lintSource("tools/fixture.cc",
                           fixture("arch_layering.cc"))
                    .empty());
}

TEST(LintArch, IncludeCycleDetectedOnceInFixtureTree)
{
    const auto report = lintTree(
        {std::string(LINT_FIXTURE_DIR) + "/cycle_tree"});
    int cycles = 0;
    for (const auto &d : report.diags) {
        if (d.rule != "arch-include-cycle")
            continue;
        ++cycles;
        // The acyclic neighbor includes into the cycle but is not
        // part of it.
        EXPECT_EQ(d.message.find("cyc_ok.hh"), std::string::npos);
        EXPECT_NE(d.message.find("cyc_a.hh"), std::string::npos);
        EXPECT_NE(d.message.find("cyc_b.hh"), std::string::npos);
        EXPECT_NE(d.message.find("cyc_c.hh"), std::string::npos);
    }
    EXPECT_EQ(cycles, 1);
    EXPECT_EQ(report.filesScanned, 4);
}

// ---------------------------------------------------------------
// Error discipline family.
// ---------------------------------------------------------------

TEST(LintError, FatalOnUserInputPathFires)
{
    const auto diags =
        lintSource("src/cxl/device_profile_util.cc",
                   fixture("err_fatal_user_input.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"err-fatal-user-input", 11}}));
}

TEST(LintError, FatalFineOnInternalPaths)
{
    // SIM_FATAL stays legal for internal invariants elsewhere.
    const auto diags = lintSource(
        "src/cpu/core.cc", fixture("err_fatal_user_input.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintError, StrayStreamFiresInLibraryCode)
{
    const auto diags = lintSource("src/spa/fixture.cc",
                                  fixture("err_stray_stream.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"err-stray-stream", 11},
                        {"err-stray-stream", 12}}));
}

TEST(LintError, StrayStreamFineInToolsAndLogging)
{
    EXPECT_TRUE(lintSource("tools/melody_cli.cc",
                           fixture("err_stray_stream.cc"))
                    .empty());
    EXPECT_TRUE(lintSource("src/sim/logging.cc",
                           fixture("err_stray_stream.cc"))
                    .empty());
}

// Both error rules decide by path alone: pin which real files each
// one covers, so a scope edit shows up here.

class FatalUserInputScope : public testing::TestWithParam<ScopeCase>
{};

TEST_P(FatalUserInputScope, FiresOnlyOnUserInputPaths)
{
    const auto diags = lintSource(GetParam().path,
                                  fixture("err_fatal_user_input.cc"));
    if (GetParam().scoped)
        EXPECT_EQ(ruleLines(diags),
                  (Expected{{"err-fatal-user-input", 11}}));
    else
        EXPECT_TRUE(diags.empty());
}

INSTANTIATE_TEST_SUITE_P(
    RealFiles, FatalUserInputScope,
    testing::Values(ScopeCase{"tools/melody_cli.cc", true},
                    ScopeCase{"tools/lint/main.cc", true},
                    ScopeCase{"src/cxl/device_profile.cc", true},
                    ScopeCase{"src/core/platform.cc", false},
                    ScopeCase{"src/cxl/controller.cc", false},
                    ScopeCase{"src/mem/cxl_backend.cc", false},
                    ScopeCase{"src/sim/sweep.cc", false}),
    scopeCaseName);

class StrayStreamScope : public testing::TestWithParam<ScopeCase>
{};

TEST_P(StrayStreamScope, FiresOnlyInLibraryCode)
{
    const auto diags = lintSource(GetParam().path,
                                  fixture("err_stray_stream.cc"));
    if (GetParam().scoped)
        EXPECT_EQ(ruleLines(diags),
                  (Expected{{"err-stray-stream", 11},
                            {"err-stray-stream", 12}}));
    else
        EXPECT_TRUE(diags.empty());
}

INSTANTIATE_TEST_SUITE_P(
    RealFiles, StrayStreamScope,
    testing::Values(ScopeCase{"src/core/platform.cc", true},
                    ScopeCase{"src/cxl/controller.cc", true},
                    ScopeCase{"src/link/link.cc", true},
                    ScopeCase{"src/mem/cxl_backend.cc", true},
                    ScopeCase{"src/sim/logging.cc", false},
                    ScopeCase{"tools/melody_cli.cc", false},
                    ScopeCase{"bench/figures.cc", false}),
    scopeCaseName);

// ---------------------------------------------------------------
// Family 3: header hygiene.
// ---------------------------------------------------------------

TEST(LintHeader, GuardMismatchFires)
{
    const auto diags = lintSource("src/sim/fixture.hh",
                                  fixture("hdr_bad_guard.hh"));
    EXPECT_EQ(ruleLines(diags), (Expected{{"hdr-guard", 3}}));
}

TEST(LintHeader, PragmaOnceFires)
{
    const auto diags = lintSource("src/sim/fixture.hh",
                                  fixture("hdr_pragma_once.hh"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"hdr-pragma-once", 3}}));
}

TEST(LintHeader, MissingIncludeFires)
{
    const auto diags = lintSource("src/sim/fixture.hh",
                                  fixture("hdr_missing_include.hh"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"hdr-missing-include", 13}}));
}

TEST(LintHeader, GuardRulesSkipNonHeaders)
{
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("hdr_pragma_once.hh"));
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------
// Clean fixtures: every family stays quiet on well-behaved code.
// ---------------------------------------------------------------

TEST(LintClean, CleanSourceIsQuietInEveryScope)
{
    const std::string content = fixture("clean.cc");
    for (const char *path :
         {"src/stats/clean.cc", "src/mem/clean.cc",
          "src/cxl/clean.cc", "src/sim/clean.cc",
          "tools/clean.cc"})
        EXPECT_TRUE(lintSource(path, content).empty())
            << "unexpected finding under " << path;
}

TEST(LintClean, CleanHeaderIsQuiet)
{
    EXPECT_TRUE(
        lintSource("src/sim/clean.hh", fixture("clean.hh"))
            .empty());
}

// ---------------------------------------------------------------
// Suppression syntax.
// ---------------------------------------------------------------

TEST(LintSuppression, AllowCoversSameLineAndLineAbove)
{
    int suppressed = 0;
    const auto diags = lintSource(
        "src/cxl/fixture.cc", fixture("suppressed.cc"),
        &suppressed);
    // Only the wrong-rule allow leaves its violation live.
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-banned-call", 24}}));
    EXPECT_EQ(suppressed, 2);
}

TEST(LintSuppression, ReasonSyntaxIsRecordedPerRule)
{
    // src/mem/ is in scope for both rules.
    const std::string path = "src/mem/fixture.cc";
    int suppressed = 0;
    std::vector<SuppressionNote> notes;
    const auto diags = lintSource(path, fixture("flow_suppressed.cc"),
                                  &suppressed, &notes);
    EXPECT_TRUE(diags.empty());
    EXPECT_EQ(suppressed, 2);
    std::vector<std::string> rules;
    for (const auto &n : notes) {
        EXPECT_EQ(n.path, path);
        EXPECT_FALSE(n.reason.empty())
            << n.rule << " note lost its reason";
        rules.push_back(n.rule);
        if (n.rule == "det-banned-call") {
            EXPECT_EQ(n.reason,
                      "warm-up probe, value never reaches output");
        }
    }
    EXPECT_EQ(rules, (std::vector<std::string>{"det-banned-call",
                                               "sig-async-safety"}));
}

TEST(LintSuppression, ReasonlessAllowStillWorks)
{
    // The pre-reason syntax stays valid: reason is optional.
    int suppressed = 0;
    std::vector<SuppressionNote> notes;
    lintSource("src/cxl/fixture.cc", fixture("suppressed.cc"),
               &suppressed, &notes);
    EXPECT_EQ(suppressed, 2);
    ASSERT_EQ(notes.size(), 2u);
    EXPECT_TRUE(notes[0].reason.empty());
}

// ---------------------------------------------------------------
// Lexer robustness: tokens inside comments and strings are inert.
// ---------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsNeverMatch)
{
    const std::string content =
        "// rand() in a comment\n"
        "/* std::mt19937 in a block\n   comment */\n"
        "const char *s = \"rand() time() SIM_FATAL\";\n"
        "const char *r = R\"(rand() mt19937)\";\n";
    EXPECT_TRUE(lintSource("src/cxl/strings.cc", content).empty());
}

TEST(LintLexer, LineNumbersSurviveMultilineConstructs)
{
    const std::string content =
        "/* one\n   two\n   three */\n"
        "int f() { return rand(); }\n";  // line 4
    const auto diags = lintSource("src/cxl/lines.cc", content);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "det-banned-call");
    EXPECT_EQ(diags[0].line, 4);
}

// ---------------------------------------------------------------
// JSON report shape.
// ---------------------------------------------------------------

TEST(LintReport, JsonHasStableKeysAndCounts)
{
    melodylint::Report report;
    report.filesScanned = 2;
    report.suppressed = 1;
    report.elapsedMs = 12.5;
    report.diags.push_back({"src/a.cc", 7, "det-banned-call",
                            melodylint::Severity::kError,
                            "msg with \"quotes\""});
    report.suppressions.push_back({"src/b.cc", 9, "sig-async-safety",
                                   "probe result unused on purpose"});
    std::ostringstream os;
    melodylint::writeJsonReport(report, os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"filesScanned\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"warnings\": 0"), std::string::npos);
    EXPECT_NE(j.find("\"suppressed\": 1"), std::string::npos);
    EXPECT_EQ(j.find("cacheHits"), std::string::npos);
    EXPECT_NE(j.find("\"elapsedMs\": 12.5"), std::string::npos);
    EXPECT_NE(j.find("\"rule\": \"det-banned-call\""),
              std::string::npos);
    EXPECT_NE(j.find("\\\"quotes\\\""), std::string::npos);
    // Suppression reasons are first-class report content.
    EXPECT_NE(j.find("\"suppressions\": ["), std::string::npos);
    EXPECT_NE(j.find("\"reason\": \"probe result unused on "
                     "purpose\""),
              std::string::npos);
}

}  // namespace
