// Self-tests for rrsim_lint: every rule id fires on a minimal fixture,
// stays silent on the legitimate near-miss, and the allow/bare-allow
// annotation contract behaves as documented.
//
// Fixtures are raw string literals. The linter strips string contents
// before scanning, so when rrsim_lint_repo gates this very file the
// fixtures are invisible — the self-test cannot trip the repo gate.
#include "linter.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "flow.h"
#include "scan.h"

namespace rrsim::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

std::vector<Finding> lint(std::string_view text,
                          Category cat = Category::kSrc) {
  return lint_source("fixture.cpp", text, cat);
}

TEST(LintRules, CleanSourceHasNoFindings) {
  const auto findings = lint(R"fix(
#include <vector>
namespace rrsim {
constexpr int kMax = 8;
void tick(double now) {
  std::vector<int> v;
  v.push_back(static_cast<int>(now));
}
}  // namespace rrsim
)fix");
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected findings";
}

TEST(LintRules, UnorderedContainerFires) {
  const auto findings = lint(R"fix(
void f() {
  std::unordered_map<int, int> m;
  (void)m;
}
)fix");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-container");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].file, "fixture.cpp");
}

TEST(LintRules, UnorderedContainerFiresInEveryCategory) {
  const std::string fixture = R"fix(
void f() { std::unordered_set<int> s; (void)s; }
)fix";
  for (const Category cat :
       {Category::kSrc, Category::kBench, Category::kTests}) {
    const auto findings = lint(fixture, cat);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered-container");
  }
}

TEST(LintRules, WallClockFiresInSrcOnly) {
  const std::string fixture = R"fix(
void f() {
  auto t0 = std::chrono::steady_clock::now();
  (void)t0;
}
)fix";
  const auto src = lint(fixture, Category::kSrc);
  ASSERT_EQ(src.size(), 1u);
  EXPECT_EQ(src[0].rule, "wall-clock");
  EXPECT_TRUE(lint(fixture, Category::kBench).empty());
  EXPECT_TRUE(lint(fixture, Category::kTests).empty());
}

TEST(LintRules, WallClockCatchesBareTimeCall) {
  const auto findings = lint(R"fix(
void f() {
  long t = time(nullptr);
  (void)t;
}
)fix");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
}

TEST(LintRules, WallClockIgnoresMembersAndDeclarations) {
  EXPECT_TRUE(lint(R"fix(
struct Clock { double time(); };
double probe(Clock& c) { return c.time(); }
double when(Clock* c) { return c->time(); }
des::Time time(int ticks);
)fix").empty());
}

TEST(LintRules, AmbientRngFiresEverywhere) {
  const std::string fixture = R"fix(
void f() {
  std::random_device rd;
  srand(42);
  int r = rand();
  (void)rd;
  (void)r;
}
)fix";
  const auto findings = lint(fixture, Category::kTests);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "ambient-rng");  // random_device, line 3
  EXPECT_EQ(findings[1].rule, "ambient-rng");  // srand, line 4
  EXPECT_EQ(findings[2].rule, "ambient-rng");  // rand(), line 5
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[2].line, 5);
}

TEST(LintRules, AmbientRngIgnoresMemberNamedRand) {
  EXPECT_TRUE(lint(R"fix(
double draw(util::Rng& rng) { return rng.rand(); }
)fix").empty());
}

TEST(LintRules, UnseededShuffleFires) {
  const auto findings = lint(R"fix(
void f(std::vector<int>& v) {
  std::shuffle(v.begin(), v.end(), bits);
}
)fix");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unseeded-shuffle");
}

TEST(LintRules, SeededShuffleIsSilent) {
  EXPECT_TRUE(lint(R"fix(
void f(std::vector<int>& v, std::mt19937& gen) {
  std::shuffle(v.begin(), v.end(), gen);
}
void g(std::vector<int>& v, util::Rng& rng) {
  std::shuffle(v.begin(), v.end(), rng.engine());
}
)fix").empty());
}

TEST(LintRules, PointerKeyFires) {
  const auto keyed = lint(R"fix(
void f() { std::map<Widget*, int> by_ptr; (void)by_ptr; }
)fix");
  ASSERT_EQ(keyed.size(), 1u);
  EXPECT_EQ(keyed[0].rule, "pointer-key");

  const auto comparator = lint(R"fix(
using Cmp = std::less<Widget*>;
)fix");
  ASSERT_EQ(comparator.size(), 1u);
  EXPECT_EQ(comparator[0].rule, "pointer-key");
}

TEST(LintRules, PointerValueIsSilent) {
  EXPECT_TRUE(lint(R"fix(
void f() { util::FlatHashMap<std::uint64_t, Widget*> by_id; (void)by_id; }
)fix").empty());
}

TEST(LintRules, MutableGlobalFiresInSrcOnly) {
  const std::string fixture = R"fix(
namespace rrsim {
int counter = 0;
}  // namespace rrsim
)fix";
  const auto src = lint(fixture, Category::kSrc);
  ASSERT_EQ(src.size(), 1u);
  EXPECT_EQ(src[0].rule, "mutable-global");
  EXPECT_EQ(src[0].line, 3);
  EXPECT_TRUE(lint(fixture, Category::kTests).empty());
}

TEST(LintRules, MutableGlobalIgnoresConstantsLocalsAndMembers) {
  EXPECT_TRUE(lint(R"fix(
namespace rrsim {
constexpr int kLimit = 4;
const double kPi = 3.14159;
using Id = std::uint64_t;
extern int declared_elsewhere;
void helper(int x);
class Holder {
  int member_ = 0;
};
void f() {
  int local = 0;
  (void)local;
}
}  // namespace rrsim
)fix").empty());
}

TEST(LintRules, StdFunctionMemberFiresInSrcOnly) {
  const std::string fixture = R"fix(
class Widget {
 public:
  void set_callback(std::function<void()> cb);
 private:
  std::function<void()> cb_;
};
)fix";
  const auto src = lint(fixture, Category::kSrc);
  ASSERT_EQ(src.size(), 1u);  // the member, not the parameter
  EXPECT_EQ(src[0].rule, "std-function-member");
  EXPECT_EQ(src[0].line, 6);
  EXPECT_TRUE(lint(fixture, Category::kTests).empty());
}

TEST(LintRules, WorkerRefCaptureFiresInSrcOnly) {
  const std::string fixture = R"fix(
void f(ThreadPool& pool, std::vector<int>& results) {
  parallel_for_each(pool, 8, [&](int i) { results[i] = i; });
}
)fix";
  const auto src = lint(fixture, Category::kSrc);
  ASSERT_EQ(src.size(), 1u);
  EXPECT_EQ(src[0].rule, "worker-ref-capture");
  EXPECT_EQ(src[0].line, 3);
  EXPECT_TRUE(lint(fixture, Category::kBench).empty());
  EXPECT_TRUE(lint(fixture, Category::kTests).empty());
}

TEST(LintRules, WorkerRefCaptureFiresOnDefaultRefWithExtras) {
  const auto findings = lint(R"fix(
void f(ThreadPool& pool) {
  exec::parallel_for_each(pool, 4, [&, n = 2](int i) { use(i + n); });
}
)fix");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "worker-ref-capture");
}

TEST(LintRules, WorkerExplicitCapturesAreSilent) {
  EXPECT_TRUE(lint(R"fix(
void f(ThreadPool& pool, std::vector<int>& results, int base) {
  parallel_for_each(pool, 8, [&results, base](int i) {
    results[i] = base + i;
  });
  parallel_for_each(pool, 8, [this, base](int i) { work(base + i); });
}
)fix").empty());
}

TEST(LintRules, WorkerRefCaptureAllowAnnotationSuppresses) {
  EXPECT_TRUE(lint(R"fix(
void f(ThreadPool& pool, std::vector<int>& results) {
  // rrsim-lint-allow(worker-ref-capture): per-index writes are disjoint.
  parallel_for_each(pool, 8, [&](int i) { results[i] = i; });
}
)fix").empty());
}

TEST(LintRules, RefCaptureOutsideWorkerCallIsSilent) {
  EXPECT_TRUE(lint(R"fix(
void f(std::vector<int>& v) {
  std::for_each(v.begin(), v.end(), [&](int& x) { x += 1; });
  auto fn = [&] { v.clear(); };
  fn();
}
)fix").empty());
}

TEST(LintRules, StreamMaterializationFiresInCoreAndExecOnly) {
  const std::string fixture = R"fix(
void f(const workload::LublinModel& model, util::Rng& rng) {
  auto s = model.generate_stream(rng, 3600.0);
  (void)s;
}
)fix";
  for (const char* path :
       {"src/core/experiment.cpp", "src/exec/sweep.cpp",
        "src/core/detail/resolver.h"}) {
    const auto findings = lint_source(path, fixture, Category::kSrc);
    ASSERT_EQ(findings.size(), 1u) << path;
    EXPECT_EQ(findings[0].rule, "stream-materialization");
    EXPECT_EQ(findings[0].line, 3);
  }
  // The workload layer defines and may call it freely; so do bench and
  // tests (whatever their path says).
  EXPECT_TRUE(
      lint_source("src/workload/lublin.cpp", fixture, Category::kSrc)
          .empty());
  EXPECT_TRUE(lint_source("bench/core/micro.cpp", fixture, Category::kBench)
                  .empty());
  EXPECT_TRUE(
      lint_source("tests/core/streaming_test.cpp", fixture, Category::kTests)
          .empty());
}

TEST(LintRules, StreamMaterializationIgnoresDeclarationsWithoutCall) {
  // Mentioning the name without a call (docs, aliases) stays silent.
  EXPECT_TRUE(lint_source("src/core/experiment.h", R"fix(
struct Api {
  int generate_stream;
};
)fix", Category::kSrc).empty());
}

TEST(LintRules, FixedTempPathFiresInTestsAndTools) {
  const std::string fixture = R"fix(
void f() {
  const std::string a = ::testing::TempDir() + "/rrsim_ties.swf";
  const auto b = std::filesystem::temp_directory_path() / "trace.swf";
  const std::string c =
      std::filesystem::temp_directory_path().string() + "/x.swf";
  const std::string d = std::string(::testing::TempDir()) + "y.swf";
}
)fix";
  for (const auto& [path, cat] :
       {std::pair<const char*, Category>{"tests/core/x_test.cpp",
                                         Category::kTests},
        {"tools/check/ties_trace.cpp", Category::kSrc}}) {
    const auto findings = lint_source(path, fixture, cat);
    ASSERT_EQ(findings.size(), 4u) << path;
    for (const Finding& f : findings) EXPECT_EQ(f.rule, "fixed-temp-path");
    EXPECT_EQ(findings[0].line, 3);
    EXPECT_EQ(findings[1].line, 4);
    EXPECT_EQ(findings[2].line, 6);
    EXPECT_EQ(findings[3].line, 7);
  }
  // The simulator and the benches are out of scope.
  EXPECT_TRUE(
      lint_source("src/workload/window_spool.cpp", fixture, Category::kSrc)
          .empty());
  EXPECT_TRUE(
      lint_source("bench/micro_check.cpp", fixture, Category::kBench).empty());
}

TEST(LintRules, FixedTempPathIgnoresComputedAndUniqueNames) {
  const auto findings = lint(R"fix(
void f(const std::string& basename) {
  const auto a = std::filesystem::temp_directory_path() / basename;
  const util::TempFile b("rrsim_ties");
  const std::string dir = ::testing::TempDir();
  const char tmpl[] = "/tmp/rrsim-spool-test-XXXXXX";
}
)fix", Category::kTests);
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected findings";
}

TEST(LintRules, FixedTempPathAllowAnnotationSuppresses) {
  EXPECT_TRUE(lint(R"fix(
void f() {
  // rrsim-lint-allow(fixed-temp-path): single-process fixture, never
  // run under ctest.
  const std::string a = ::testing::TempDir() + "/only_me.swf";
}
)fix", Category::kTests).empty());
}

TEST(LintRules, SwfFullTraceLoadFiresInCoreAndExecOnly) {
  const std::string fixture = R"fix(
void f(const std::string& path) {
  auto jobs = workload::read_swf_file(path);
  auto jobs2 = read_swf(path, 16);
  (void)jobs;
  (void)jobs2;
}
)fix";
  for (const char* path :
       {"src/core/experiment_detail.h", "src/exec/replay.cpp"}) {
    const auto findings = lint_source(path, fixture, Category::kSrc);
    ASSERT_EQ(findings.size(), 2u) << path;
    EXPECT_EQ(findings[0].rule, "stream-materialization");
    EXPECT_EQ(findings[0].line, 3);
    EXPECT_EQ(findings[1].rule, "stream-materialization");
    EXPECT_EQ(findings[1].line, 4);
  }
  // The workload layer owns the readers; bench/tests load traces freely.
  EXPECT_TRUE(
      lint_source("src/workload/swf.cpp", fixture, Category::kSrc).empty());
  EXPECT_TRUE(lint_source("tests/core/swf_spool_test.cpp", fixture,
                          Category::kTests)
                  .empty());
}

TEST(LintRules, SwfLoadAllowAnnotationSuppresses) {
  EXPECT_TRUE(lint_source("src/core/experiment_detail.h", R"fix(
void f(const std::string& path) {
  // rrsim-lint-allow(stream-materialization): the one sanctioned
  // full-trace load both replay paths share.
  auto jobs = workload::read_swf_file(path);
  (void)jobs;
}
)fix", Category::kSrc).empty());
}

TEST(LintRules, StreamMaterializationAllowAnnotationSuppresses) {
  EXPECT_TRUE(lint_source("src/core/experiment_detail.h", R"fix(
void f(const workload::LublinModel& model, util::Rng& rng) {
  // rrsim-lint-allow(stream-materialization): the retained path keeps
  // whole streams by contract.
  auto s = model.generate_stream(rng, 3600.0);
  (void)s;
}
)fix", Category::kSrc).empty());
}

// --- the allow annotation contract ---------------------------------------

TEST(LintAllows, JustifiedAllowSuppresses) {
  EXPECT_TRUE(lint(R"fix(
void f() {
  // rrsim-lint-allow(unordered-container): fixture exercises legacy path.
  std::unordered_map<int, int> m;
  (void)m;
}
)fix").empty());
}

TEST(LintAllows, WrappedJustificationStillCoversDeclaration) {
  // Consecutive // lines merge into one block; the declaration directly
  // below the block is covered even though the tag is two lines up.
  EXPECT_TRUE(lint(R"fix(
void f() {
  // rrsim-lint-allow(unordered-container): a justification long enough
  // to wrap onto a second comment line, which must still cover the
  // declaration underneath the whole block.
  std::unordered_map<int, int> m;
  (void)m;
}
)fix").empty());
}

TEST(LintAllows, AllowDoesNotLeakPastTheNextLine) {
  const auto findings = lint(R"fix(
void f() {
  // rrsim-lint-allow(unordered-container): only covers the next line.
  std::unordered_map<int, int> covered;
  std::unordered_map<int, int> not_covered;
  (void)covered;
  (void)not_covered;
}
)fix");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-container");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(LintAllows, MissingJustificationIsBareAllowAndDoesNotSuppress) {
  const auto findings = lint(R"fix(
void f() {
  // rrsim-lint-allow(unordered-container)
  std::unordered_map<int, int> m;
  (void)m;
}
)fix");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "bare-allow");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].rule, "unordered-container");
  EXPECT_EQ(findings[1].line, 4);
}

TEST(LintAllows, UnknownRuleIsBareAllow) {
  const auto findings = lint(R"fix(
// rrsim-lint-allow(no-such-rule): justified but names nothing.
int x = 0;
)fix", Category::kTests);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bare-allow");
  EXPECT_NE(findings[0].message.find("no-such-rule"), std::string::npos);
}

TEST(LintAllows, MultiRuleAllowSuppressesAllNamedRules) {
  EXPECT_TRUE(lint(R"fix(
void f() {
  // rrsim-lint-allow(unordered-container, pointer-key): fixture needs both.
  std::unordered_map<Widget*, int> m;
  (void)m;
}
)fix").empty());
}

// --- stripping, categories, rule table -----------------------------------

TEST(LintInfra, StringAndCommentContentsAreInvisible) {
  EXPECT_TRUE(lint(R"fix(
// std::unordered_map mentioned in a comment is not a finding.
void f() {
  const char* s = "std::unordered_map<int, int>";
  (void)s;
}
)fix").empty());
}

TEST(LintInfra, CategoryForPathMatchesComponents) {
  EXPECT_EQ(category_for_path("src/des/simulation.cpp"), Category::kSrc);
  EXPECT_EQ(category_for_path("bench/micro_kernel.cpp"), Category::kBench);
  EXPECT_EQ(category_for_path("tests/grid/gateway_test.cpp"),
            Category::kTests);
  // Rightmost component wins.
  EXPECT_EQ(category_for_path("src/foo/tests/bar.cpp"), Category::kTests);
  // Whole-component match only; unknown trees get the strictest rules.
  EXPECT_EQ(category_for_path("benches/thing.cpp"), Category::kSrc);
  EXPECT_EQ(category_for_path("misc/thing.cpp"), Category::kSrc);
}

TEST(LintInfra, RuleTableIsConsistent) {
  const auto& rules = rule_table();
  ASSERT_FALSE(rules.empty());
  for (const RuleInfo& r : rules) {
    EXPECT_TRUE(rule_exists(r.id));
  }
  EXPECT_TRUE(rule_exists("unordered-container"));
  EXPECT_TRUE(rule_exists("bare-allow"));
  EXPECT_FALSE(rule_exists("no-such-rule"));
}

TEST(LintInfra, LintFileReportsUnreadablePaths) {
  std::vector<Finding> out;
  EXPECT_FALSE(lint_file("/nonexistent/rrsim/missing.cpp", nullptr, out));
  EXPECT_TRUE(out.empty());
}

// --- flow-aware rules ------------------------------------------------------

TEST(LintFlow, TieSensitiveCompareFiresOnFunctor) {
  const std::string fixture = R"fix(
struct Ev { double time; int nodes; };
struct ByTime {
  bool operator()(const Ev& a, const Ev& b) const { return a.time < b.time; }
};
)fix";
  const auto src = lint(fixture, Category::kSrc);
  ASSERT_EQ(src.size(), 1u);
  EXPECT_EQ(src[0].rule, "tie-sensitive-compare");
  EXPECT_EQ(src[0].line, 4);
  EXPECT_TRUE(lint(fixture, Category::kTests).empty());
}

TEST(LintFlow, TieSensitiveCompareSilentWithDiscriminator) {
  const auto findings = lint(R"fix(
struct Ev { double time; unsigned seq; };
struct ByTime {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};
)fix");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFlow, TieSensitiveCompareFiresOnSortLambdaButNotStableSort) {
  const std::string sort_fixture = R"fix(
#include <algorithm>
void f(std::vector<Ev>& v) {
  std::sort(v.begin(), v.end(),
            [](const Ev& a, const Ev& b) { return a.submit_time < b.submit_time; });
}
)fix";
  const auto findings = lint(sort_fixture);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "tie-sensitive-compare");

  // std::stable_sort is exempt: stability is the discriminator.
  const auto stable = lint(R"fix(
#include <algorithm>
void f(std::vector<Ev>& v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const Ev& a, const Ev& b) { return a.submit_time < b.submit_time; });
}
)fix");
  EXPECT_TRUE(stable.empty());
}

TEST(LintFlow, TieSensitiveCompareAllowSuppresses) {
  const auto findings = lint(R"fix(
struct Ev { double time; };
struct ByTime {
  // rrsim-lint-allow(tie-sensitive-compare): ties are impossible here —
  // the caller dedupes timestamps before sorting.
  bool operator()(const Ev& a, const Ev& b) const { return a.time < b.time; }
};
)fix");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFlow, IterationOrderEscapeFiresOnAppendPostAndFloatSum) {
  const auto findings = lint(R"fix(
void f(std::vector<double>& out) {
  util::FlatHashMap<unsigned, double> credits;
  double sum = 0.0;
  credits.for_each([&](unsigned id, double c) {
    out.push_back(c);
    sum += c;
  });
}
void g(des::Simulation& sim) {
  util::FlatHashMap<unsigned, double> wake;
  wake.for_each([&](unsigned id, double t) {
    sim.schedule_at(t, [] {});
  });
}
)fix");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "iteration-order-escape");
  EXPECT_EQ(findings[1].rule, "iteration-order-escape");
  EXPECT_EQ(findings[2].rule, "iteration-order-escape");
}

TEST(LintFlow, IterationOrderEscapeSilentOnIntegralAccumulation) {
  const auto findings = lint(R"fix(
void f() {
  util::FlatHashMap<unsigned, double> credits;
  std::size_t n = 0;
  double floor = 1e300;
  credits.for_each([&](unsigned id, double c) {
    n += 1;
    if (c < floor) floor = c;
  });
}
)fix");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFlow, IterationOrderEscapeSilentOnOrderedMap) {
  const auto findings = lint(R"fix(
void f(std::vector<double>& out) {
  util::FlatOrderedMap<unsigned, double> credits;
  credits.for_each([&](unsigned id, double c) { out.push_back(c); });
}
)fix");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFlow, UnstableSortFiresOnTimeStructWithoutOperatorLess) {
  const std::string fixture = R"fix(
#include <algorithm>
#include <vector>
struct Arrival { double submit_time; int nodes; };
void f() {
  std::vector<Arrival> pending;
  std::sort(pending.begin(), pending.end());
}
)fix";
  const auto findings = lint(fixture);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unstable-sort");
  EXPECT_EQ(findings[0].line, 7);
}

TEST(LintFlow, UnstableSortSilentWithOperatorLessOrScalarElements) {
  const auto with_less = lint(R"fix(
#include <algorithm>
#include <vector>
struct Arrival {
  double submit_time;
  unsigned seq;
  bool operator<(const Arrival& o) const {
    return submit_time != o.submit_time ? submit_time < o.submit_time
                                        : seq < o.seq;
  }
};
void f() {
  std::vector<Arrival> pending;
  std::sort(pending.begin(), pending.end());
}
)fix");
  EXPECT_TRUE(with_less.empty());

  const auto doubles = lint(R"fix(
#include <algorithm>
#include <vector>
void f() {
  std::vector<double> xs;
  std::sort(xs.begin(), xs.end());
}
)fix");
  EXPECT_TRUE(doubles.empty());
}

TEST(LintFlow, UnstableSortFiresOnUnresolvableNamedComparator) {
  const auto findings = lint(R"fix(
#include <algorithm>
#include <vector>
void f(std::vector<int>& v) {
  std::sort(v.begin(), v.end(), MysteryOrder{});
}
)fix");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unstable-sort");
}

TEST(LintFlow, UnstableSortTrustsAnalyzableComparator) {
  // A visible comparator functor is rule 1's jurisdiction; here it has a
  // seq tie-break, so nothing fires at all.
  const auto findings = lint(R"fix(
#include <algorithm>
#include <vector>
struct Msg { double time; unsigned seq; };
struct MsgOrder {
  bool operator()(const Msg& a, const Msg& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};
void f(std::vector<Msg>& v) {
  std::sort(v.begin(), v.end(), MsgOrder{});
}
)fix");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFlow, CrossHeaderResolutionThroughFileSet) {
  // The element struct lives in an overlay header; the flow pass must
  // resolve it through the include graph to flag the sort.
  FileSet files;
  files.add_memory("rrsim/test/rec.h", R"fix(
#pragma once
namespace rrsim { struct Rec { double finish_time; int nodes; }; }
)fix");
  const auto findings = lint_source("src/x.cpp", R"fix(
#include <algorithm>
#include <vector>
#include "rrsim/test/rec.h"
void f() {
  std::vector<rrsim::Rec> done;
  std::sort(done.begin(), done.end());
}
)fix",
                                    Category::kSrc, files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unstable-sort");
}

TEST(LintFlow, ListAllowRecordsCarryJustifications) {
  AllowSet allows;
  std::vector<Finding> sink;
  strip("fixture.cpp", R"fix(
// rrsim-lint-allow(wall-clock): measures real host
// throughput on purpose.
void f() {}
)fix",
        allows, sink);
  ASSERT_EQ(allows.records.size(), 1u);
  EXPECT_EQ(allows.records[0].rules,
            (std::vector<std::string>{"wall-clock"}));
  EXPECT_EQ(allows.records[0].justification,
            "measures real host throughput on purpose.");
}

TEST(LintInfra, FindingsAreSortedByLine) {
  const auto findings = lint(R"fix(
void f() {
  std::unordered_map<int, int> second;
  (void)second;
}
namespace rrsim {
int global = 0;
}
)fix");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LT(findings[0].line, findings[1].line);
  EXPECT_EQ(rules_of(findings),
            (std::vector<std::string>{"unordered-container",
                                      "mutable-global"}));
}

}  // namespace
}  // namespace rrsim::lint
