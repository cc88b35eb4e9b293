// Self-test for tools/lint/galign_lint (DESIGN.md §10).
//
// Each lint rule is proven *live* by running the real binary over a known-bad
// fixture tree (asserting the exact rule-id, file, and line) and proven
// *quiet* over the matching known-good tree. The final test runs the lint
// over the actual repository — the zero-violation gate scripts/check.sh
// relies on, kept inside the test suite so plain ctest enforces it too.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun RunLint(const std::string& args) {
  const std::string cmd =
      std::string(GALIGN_LINT_BIN) + " " + args + " 2>/dev/null";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string Fixture(const std::string& rel) {
  return std::string("--root ") + GALIGN_LINT_FIXTURES + "/" + rel;
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(LintUncheckedStatus, BadFixtureFiresPerDiscardedCall) {
  LintRun run = RunLint(Fixture("unchecked_status/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("use.cc:6: unchecked-status:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("use.cc:7: unchecked-status:"), std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "unchecked-status"), 2)
      << run.output;
}

TEST(LintUncheckedStatus, ConsumedResultsStayQuiet) {
  LintRun run = RunLint(Fixture("unchecked_status/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "unchecked-status"), 0)
      << run.output;
}

TEST(LintNondeterminism, RawClockAndEntropyFire) {
  LintRun run = RunLint(Fixture("nondeterminism/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("clocky.cc:7: banned-nondeterminism:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("clocky.cc:8: banned-nondeterminism:"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "banned-nondeterminism"), 2)
      << run.output;
}

TEST(LintNondeterminism, WhitelistedHomesAndStringLiteralsStayQuiet) {
  // common/rng.cc is a whitelisted entropy home; strings.cc mentions the
  // banned names only inside string literals and comments.
  LintRun run = RunLint(Fixture("nondeterminism/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "banned-nondeterminism"), 0)
      << run.output;
}

TEST(LintUnbudgetedAlloc, RetiredRawFactoriesFire) {
  LintRun run = RunLint(Fixture("unbudgeted_alloc/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("alloc.cc:6: unbudgeted-alloc:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("alloc.cc:7: unbudgeted-alloc:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("Matrix::TryCreate"), std::string::npos)
      << run.output;
}

TEST(LintUnbudgetedAlloc, TryCreateUnderBudgetStaysQuiet) {
  LintRun run = RunLint(Fixture("unbudgeted_alloc/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintLayering, UpwardAndSidewaysIncludesFire) {
  LintRun run = RunLint(Fixture("layering/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(
      run.output.find("upward.h:4: layering: 'la' may not include 'graph'"),
      std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find("upward.h:5: layering: 'la' may not include 'core'"),
      std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find(
                "sideways.h:3: layering: 'graph' may not include 'align'"),
            std::string::npos)
      << run.output;
  // Nested sub-layer: graph may not reach back up into graph/ann.
  EXPECT_NE(
      run.output.find(
          "backref.h:3: layering: 'graph' may not include 'graph/ann'"),
      std::string::npos)
      << run.output;
  // Same shape one level up: serve may not reach into serve/swap.
  EXPECT_NE(
      run.output.find(
          "backswap.h:3: layering: 'serve' may not include 'serve/swap'"),
      std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, ": layering:"), 5) << run.output;
}

TEST(LintLayering, DownwardIncludesStayQuiet) {
  LintRun run = RunLint(Fixture("layering/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintLayering, PrintDagExposesTheTable) {
  // The allowed-includes DAG is encoded in exactly one table; --print-dag is
  // how scripts and humans read it back. Pin the edges the project
  // guarantees (ISSUE/DESIGN §10): common at the bottom, la below graph,
  // autograd restricted to la+common, graph blind to align/baselines.
  LintRun run = RunLint("--print-dag");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("common: (nothing below it)"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("la: common"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("graph: la common"), std::string::npos)
      << run.output;
  // graph/ann is a distinct layer above graph (longest-prefix matching):
  // it may use graph's kernels, graph may not depend back on it.
  EXPECT_NE(run.output.find("graph/ann: graph la common"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("autograd: la common"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("align: graph graph/ann la common"),
            std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find("baselines: align autograd graph graph/ann la common"),
      std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("core: align autograd graph graph/ann la common"),
            std::string::npos)
      << run.output;
  // serve is the top of the stack: it may read core artifacts and the ANN
  // layer, and nothing below may reach back into it.
  EXPECT_NE(run.output.find(
                "serve: core align autograd graph graph/ann la common"),
            std::string::npos)
      << run.output;
  // ...and serve/swap (the hot-swap watcher) is the layer above serve.
  EXPECT_NE(
      run.output.find(
          "serve/swap: serve core align autograd graph graph/ann la common"),
      std::string::npos)
      << run.output;
}

TEST(LintNakedThrow, LibraryThrowFires) {
  LintRun run = RunLint(Fixture("naked_throw/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("thrower.cc:5: no-naked-throw:"),
            std::string::npos)
      << run.output;
}

TEST(LintNakedThrow, TestCodeIsExempt) {
  LintRun run = RunLint(Fixture("naked_throw/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintAllow, ReasonedAllowSuppresses) {
  LintRun run = RunLint(Fixture("allow/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintAllow, ReasonlessAllowIsItselfAViolation) {
  LintRun run = RunLint(Fixture("allow/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("reasonless.cc:7: bad-allow:"), std::string::npos)
      << run.output;
  // ...and the underlying rule still fires.
  EXPECT_NE(run.output.find("reasonless.cc:7: no-naked-throw:"),
            std::string::npos)
      << run.output;
}

TEST(LintContextDropped, FreshContextAndStrandedParamFire) {
  LintRun run = RunLint(Fixture("context_dropped/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Line 5 passes a freshly-constructed context instead of forwarding the
  // caller's; line 9 declares a named context it never consults.
  EXPECT_NE(run.output.find("pipeline.cc:5: context-dropped:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("pipeline.cc:9: context-dropped:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'Stranded'"), std::string::npos) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "context-dropped"), 2)
      << run.output;
}

TEST(LintContextDropped, ForwardedAndUnnamedContextsStayQuiet) {
  LintRun run = RunLint(Fixture("context_dropped/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "context-dropped"), 0)
      << run.output;
}

TEST(LintContextDropped, ReasonlessAllowIsItselfAViolation) {
  LintRun run = RunLint(Fixture("context_dropped/allow_bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("pipeline.cc:5: bad-allow:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("pipeline.cc:5: context-dropped:"),
            std::string::npos)
      << run.output;
}

TEST(LintFaultAudit, UnarmedPhantomAndNearDuplicateFire) {
  LintRun run = RunLint(Fixture("fault_audit/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // An instrumented-but-never-armed site (the "arming test was removed"
  // scenario the audit exists for)...
  EXPECT_NE(run.output.find("faulty.cc:4: fault-site-audit:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("no test arms"), std::string::npos)
      << run.output;
  // ...a pair of src sites one edit apart...
  EXPECT_NE(run.output.find("one edit apart"), std::string::npos)
      << run.output;
  // ...and a test arming a site that exists nowhere, with a suggestion.
  EXPECT_NE(run.output.find("faulty_test.cc:7: fault-site-audit:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("did you mean"), std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "fault-site-audit"), 3)
      << run.output;
}

TEST(LintFaultAudit, DirectAndTableDrivenArmingBothCount) {
  LintRun run = RunLint(Fixture("fault_audit/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "fault-site-audit"), 0)
      << run.output;
}

TEST(LintFaultAudit, ReasonlessAllowIsItselfAViolation) {
  LintRun run = RunLint(Fixture("fault_audit/allow_bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("faulty.cc:3: bad-allow:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("faulty.cc:3: fault-site-audit:"),
            std::string::npos)
      << run.output;
}

TEST(LintBudgetDiscipline, LeakedReserveAndUncheckedTryCreateFire) {
  LintRun run = RunLint(Fixture("budget_discipline/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // TryReserve with no Release/MemoryScope anywhere in the function...
  EXPECT_NE(run.output.find("budget.cc:4: budget-discipline:"),
            std::string::npos)
      << run.output;
  // ...ValueOrDie without a prior ok() check...
  EXPECT_NE(run.output.find("budget.cc:9: budget-discipline:"),
            std::string::npos)
      << run.output;
  // ...and the in-place TryCreate(...).ValueOrDie() chain.
  EXPECT_NE(run.output.find("budget.cc:11: budget-discipline:"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "budget-discipline"), 3)
      << run.output;
}

TEST(LintBudgetDiscipline, PairedReleaseAndCheckedResultStayQuiet) {
  LintRun run = RunLint(Fixture("budget_discipline/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintBudgetDiscipline, ReasonlessAllowIsItselfAViolation) {
  LintRun run = RunLint(Fixture("budget_discipline/allow_bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("budget.cc:4: bad-allow:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("budget.cc:4: budget-discipline:"),
            std::string::npos)
      << run.output;
}

TEST(LintGuardedBy, UnlockedTouchFires) {
  LintRun run = RunLint(Fixture("guarded_by/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("state.cc:8: guarded-by:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'Peek' touches 'value_'"), std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, ": guarded-by:"), 1) << run.output;
}

TEST(LintGuardedBy, LockSuffixAndRequiresLockStayQuiet) {
  LintRun run = RunLint(Fixture("guarded_by/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintGuardedBy, ReasonlessAllowIsItselfAViolation) {
  LintRun run = RunLint(Fixture("guarded_by/allow_bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("state.cc:8: bad-allow:"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("state.cc:8: guarded-by:"), std::string::npos)
      << run.output;
}

TEST(LintOrphanModule, TestOnlyAndUnincludedHeadersFire) {
  LintRun run = RunLint(Fixture("orphan_module/bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Included by its own .cc and its own test only...
  EXPECT_NE(run.output.find("src/graph/kcore.h:1: orphan-module:"),
            std::string::npos)
      << run.output;
  // ...and included by nothing at all.
  EXPECT_NE(run.output.find("src/manifold/pca.h:1: orphan-module:"),
            std::string::npos)
      << run.output;
  // graph/used.h has a program under tools/ that includes it.
  EXPECT_EQ(CountOccurrences(run.output, "orphan-module"), 2) << run.output;
}

TEST(LintOrphanModule, SrcProgramAndRelativeIncludesKeepModulesLive) {
  // Users: another src file, an examples/ .cpp program, a same-directory
  // include; the fourth header carries a reasoned allow().
  LintRun run = RunLint(Fixture("orphan_module/good"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "orphan-module"), 0) << run.output;
}

TEST(LintBaseline, WriteThenReadSuppressesGrandfatheredViolations) {
  const std::string bl =
      "/tmp/galign_lint_baseline_" + std::to_string(::getpid()) + ".json";
  LintRun wrote = RunLint(Fixture("budget_discipline/bad") +
                          " --write-baseline=" + bl);
  EXPECT_EQ(wrote.exit_code, 0) << wrote.output;
  EXPECT_NE(wrote.output.find("baselined 3 violation(s)"), std::string::npos)
      << wrote.output;
  LintRun masked =
      RunLint(Fixture("budget_discipline/bad") + " --baseline=" + bl);
  EXPECT_EQ(masked.exit_code, 0) << masked.output;
  EXPECT_NE(masked.output.find("galign_lint: clean"), std::string::npos)
      << masked.output;
  // A missing baseline file is a usage error, not a silent pass.
  LintRun missing = RunLint(Fixture("budget_discipline/bad") +
                            " --baseline=/nonexistent/bl.json");
  EXPECT_EQ(missing.exit_code, 2) << missing.output;
  std::remove(bl.c_str());
}

TEST(LintJson, RepositoryTreeEmitsMachineReadableReport) {
  // JSON mode over the real tree: clean, and the fault-site coverage table
  // enumerates the src-instrumented sites with their arming-test counts.
  LintRun run =
      RunLint(std::string("--root ") + GALIGN_REPO_ROOT + " --format=json");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"clean\": true"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"violations\": []"), std::string::npos)
      << run.output;
  EXPECT_GE(CountOccurrences(run.output, "\"arming_tests\": "), 10)
      << "fault-site audit should enumerate the src-instrumented sites: "
      << run.output;
}

TEST(LintGate, FaultSiteAuditCoversEveryRepositorySite) {
  // The audit's own self-test: every site in the JSON table must report at
  // least one arming test file, so removing a site's arming test flips the
  // repository gate to exit 1 (proven live by the fault_audit/bad fixture).
  LintRun run = RunLint(std::string("--root ") + GALIGN_REPO_ROOT +
                        " --format=json");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "\"arming_tests\": 0"), 0)
      << run.output;
}

TEST(LintCli, BadRootExitsTwo) {
  LintRun run = RunLint("--root /nonexistent/galign-lint-test");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(LintGate, RepositoryTreeIsClean) {
  // The acceptance gate: zero violations over the real src/bench/examples/
  // tests/tools tree. A failure here prints the exact file:line: rule-id.
  LintRun run = RunLint(std::string("--root ") + GALIGN_REPO_ROOT);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("galign_lint: clean"), std::string::npos)
      << run.output;
}

}  // namespace
