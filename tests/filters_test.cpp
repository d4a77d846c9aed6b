// Unit tests for the AD filtering algorithms AD-1 .. AD-6 plus the
// trivial reference filters, exercising each algorithm's pseudo-code
// behaviour from Appendix A, including the worked examples in §3/§4.
#include <gtest/gtest.h>

#include <memory>

#include "core/builtin_conditions.hpp"
#include "core/displayer.hpp"
#include "core/evaluator.hpp"
#include "core/filters.hpp"

namespace rcm {
namespace {

/// Builds a single-variable alert with the given history window seqnos.
Alert alert1(std::initializer_list<SeqNo> window, VarId var = 0,
             const std::string& cond = "c") {
  Alert a;
  a.cond = cond;
  std::vector<Update> w;
  for (SeqNo s : window) w.push_back({var, s, static_cast<double>(s)});
  a.histories.emplace(var, std::move(w));
  return a;
}

/// Builds a two-variable alert (degree 1 per variable) a(ix, jy).
Alert alert2(SeqNo x, SeqNo y, const std::string& cond = "c") {
  Alert a;
  a.cond = cond;
  a.histories.emplace(0, std::vector<Update>{{0, x, 0.0}});
  a.histories.emplace(1, std::vector<Update>{{1, y, 0.0}});
  return a;
}

// ----------------------------------------------------------- trivial ----

TEST(TrivialFilters, PassAllAndDropAll) {
  PassAllFilter pass;
  DropAllFilter drop;
  const Alert a = alert1({1});
  EXPECT_TRUE(pass.offer(a));
  EXPECT_TRUE(pass.offer(a));  // even duplicates
  EXPECT_FALSE(drop.offer(a));
  EXPECT_EQ(pass.name(), "pass");
  EXPECT_EQ(drop.name(), "drop");
}

// -------------------------------------------------------------- AD-1 ----

TEST(Ad1, DiscardsExactDuplicates) {
  Ad1DuplicateFilter f;
  EXPECT_TRUE(f.offer(alert1({2, 3})));
  EXPECT_FALSE(f.offer(alert1({2, 3})));  // identical history set
  EXPECT_TRUE(f.offer(alert1({3, 4})));
}

TEST(Ad1, DifferentHistoriesAreNotDuplicates) {
  // §3: a1 triggered on {2,3}, a2 on {1,3} — "Algorithm AD-1 will not
  // recognize them as duplicates... both will be reported."
  Ad1DuplicateFilter f;
  EXPECT_TRUE(f.offer(alert1({2, 3})));
  EXPECT_TRUE(f.offer(alert1({1, 3})));
}

TEST(Ad1, DifferentConditionNamesAreNotDuplicates) {
  Ad1DuplicateFilter f;
  EXPECT_TRUE(f.offer(alert1({1}, 0, "A")));
  EXPECT_TRUE(f.offer(alert1({1}, 0, "B")));
}

TEST(Ad1, ResetForgets) {
  Ad1DuplicateFilter f;
  EXPECT_TRUE(f.offer(alert1({1})));
  f.reset();
  EXPECT_TRUE(f.offer(alert1({1})));
}

// -------------------------------------------------------------- AD-2 ----

TEST(Ad2, DiscardsOutOfOrderAndDuplicates) {
  Ad2OrderedFilter f{0};
  EXPECT_TRUE(f.offer(alert1({3})));
  EXPECT_FALSE(f.offer(alert1({2})));  // out of order
  EXPECT_FALSE(f.offer(alert1({3})));  // equal seqno
  EXPECT_TRUE(f.offer(alert1({4})));
}

TEST(Ad2, Example2FromPaper) {
  // A1 = <a1(1)>, A2 = <a2(2)>; a2 arrives first, a1 is filtered.
  Ad2OrderedFilter f{0};
  EXPECT_TRUE(f.offer(alert1({2})));
  EXPECT_FALSE(f.offer(alert1({1})));
}

TEST(Ad2, ComparesOnLastHistorySeqno) {
  Ad2OrderedFilter f{0};
  EXPECT_TRUE(f.offer(alert1({1, 3})));
  // a.seqno.x is H[0].seqno = 4 > 3, even though the window starts at 2.
  EXPECT_TRUE(f.offer(alert1({2, 4})));
}

// -------------------------------------------------------------- AD-3 ----

TEST(Ad3, Example3FromPaper) {
  // a1 with H = {1,3} passes and records Received={1,3}, Missed={2};
  // a2 with H = {2,3} then conflicts (2 is in Missed).
  Ad3ConsistentFilter f;
  EXPECT_TRUE(f.offer(alert1({1, 3})));
  EXPECT_FALSE(f.offer(alert1({2, 3})));
}

TEST(Ad3, ReceivedGapConflict) {
  // a1 claims {2} received. a2's window {1,3} implies 2 was missed:
  // 2 is in SpanningSet({1,3}) \ H and already in Received -> conflict.
  Ad3ConsistentFilter f;
  EXPECT_TRUE(f.offer(alert1({2, 3})));
  EXPECT_FALSE(f.offer(alert1({1, 4})));  // wait: spanning {1..4} includes 2,3
}

TEST(Ad3, NonConflictingAlertsAllPass) {
  Ad3ConsistentFilter f;
  EXPECT_TRUE(f.offer(alert1({1, 2})));
  EXPECT_TRUE(f.offer(alert1({2, 3})));
  EXPECT_TRUE(f.offer(alert1({3, 4})));
}

TEST(Ad3, SuppressesExactDuplicates) {
  // Fidelity note in filters.hpp: required for Theorem 8 (AD-1 > AD-3).
  Ad3ConsistentFilter f;
  EXPECT_TRUE(f.offer(alert1({1, 3})));
  EXPECT_FALSE(f.offer(alert1({1, 3})));
}

TEST(Ad3, DegreeOneAlertsNeverConflict) {
  Ad3ConsistentFilter f;
  EXPECT_TRUE(f.offer(alert1({5})));
  EXPECT_TRUE(f.offer(alert1({3})));
  EXPECT_TRUE(f.offer(alert1({9})));
}

TEST(Ad3, ResetClearsLedger) {
  Ad3ConsistentFilter f;
  EXPECT_TRUE(f.offer(alert1({1, 3})));
  f.reset();
  EXPECT_TRUE(f.offer(alert1({2, 3})));
}

// -------------------------------------------------------------- AD-4 ----

TEST(Ad4, DiscardsWhatEitherParentDiscards) {
  Ad4OrderedConsistentFilter f{0};
  EXPECT_TRUE(f.offer(alert1({1, 3})));
  EXPECT_FALSE(f.offer(alert1({2, 3})));  // AD-3 conflict
  EXPECT_FALSE(f.offer(alert1({1, 2})));  // AD-2 out of order (2 < 3)
  EXPECT_TRUE(f.offer(alert1({3, 4})));
}

TEST(Ad4, RejectedAlertMustNotPoisonState) {
  // The accepts/record split: an alert rejected by AD-2 must not update
  // the AD-3 ledger, or later legitimate alerts would be wrongly dropped.
  Ad4OrderedConsistentFilter f{0};
  EXPECT_TRUE(f.offer(alert1({4, 5})));
  // Out of order (3 < 5) AND would imply "2 missed" — rejected by AD-2.
  EXPECT_FALSE(f.offer(alert1({1, 3})));
  // {5,6} consistent with everything recorded ({4,5} only): must pass.
  EXPECT_TRUE(f.offer(alert1({5, 6})));
}

// -------------------------------------------------------------- AD-5 ----

TEST(Ad5, RequiresNonEmptyVariableSet) {
  EXPECT_THROW(Ad5MultiOrderedFilter{std::vector<VarId>{}},
               std::invalid_argument);
}

TEST(Ad5, DiscardsInversionInEitherVariable) {
  Ad5MultiOrderedFilter f{{0, 1}};
  EXPECT_TRUE(f.offer(alert2(2, 2)));
  EXPECT_FALSE(f.offer(alert2(1, 3)));  // x inverted
  EXPECT_FALSE(f.offer(alert2(3, 1)));  // y inverted
  EXPECT_TRUE(f.offer(alert2(3, 2)));   // x advanced, y equal: fine
}

TEST(Ad5, DiscardsExactSeqnoDuplicates) {
  Ad5MultiOrderedFilter f{{0, 1}};
  EXPECT_TRUE(f.offer(alert2(2, 2)));
  EXPECT_FALSE(f.offer(alert2(2, 2)));  // equal in every variable
}

TEST(Ad5, Theorem10AlertsCannotBothPass) {
  // a(2x,1y) then a(1x,2y): the second inverts x. Either order: only one
  // of the two survives, restoring orderedness.
  Ad5MultiOrderedFilter f{{0, 1}};
  EXPECT_TRUE(f.offer(alert2(2, 1)));
  EXPECT_FALSE(f.offer(alert2(1, 2)));
  f.reset();
  EXPECT_TRUE(f.offer(alert2(1, 2)));
  EXPECT_FALSE(f.offer(alert2(2, 1)));
}

TEST(Ad5, ThreeVariables) {
  Ad5MultiOrderedFilter f{{0, 1, 2}};
  Alert a;
  a.cond = "c";
  a.histories.emplace(0, std::vector<Update>{{0, 1, 0.0}});
  a.histories.emplace(1, std::vector<Update>{{1, 1, 0.0}});
  a.histories.emplace(2, std::vector<Update>{{2, 1, 0.0}});
  EXPECT_TRUE(f.offer(a));
  Alert b = a;
  b.histories.at(2)[0].seqno = 2;
  EXPECT_TRUE(f.offer(b));   // advanced in var 2 only
  EXPECT_FALSE(f.offer(a));  // var 2 would invert
}

// -------------------------------------------------------------- AD-6 ----

TEST(Ad6, CombinesOrderAndLedger) {
  Ad6MultiOrderedConsistentFilter f{{0, 1}};
  Alert a;
  a.cond = "c";
  a.histories.emplace(0, std::vector<Update>{{0, 1, 0.0}, {0, 3, 0.0}});
  a.histories.emplace(1, std::vector<Update>{{1, 1, 0.0}, {1, 2, 0.0}});
  EXPECT_TRUE(f.offer(a));  // records x: missed 2

  Alert b;  // claims x-update 2 was received -> ledger conflict
  b.cond = "c";
  b.histories.emplace(0, std::vector<Update>{{0, 2, 0.0}, {0, 4, 0.0}});
  b.histories.emplace(1, std::vector<Update>{{1, 2, 0.0}, {1, 3, 0.0}});
  EXPECT_FALSE(f.offer(b));

  Alert c;  // order inversion in y
  c.cond = "c";
  c.histories.emplace(0, std::vector<Update>{{0, 3, 0.0}, {0, 4, 0.0}});
  c.histories.emplace(1, std::vector<Update>{{1, 0, 0.0}, {1, 1, 0.0}});
  EXPECT_FALSE(f.offer(c));

  Alert d;  // clean: advances both, no conflicts
  d.cond = "c";
  d.histories.emplace(0, std::vector<Update>{{0, 3, 0.0}, {0, 4, 0.0}});
  d.histories.emplace(1, std::vector<Update>{{1, 2, 0.0}, {1, 3, 0.0}});
  EXPECT_TRUE(f.offer(d));
}

TEST(Ad6, SuppressesDuplicates) {
  Ad6MultiOrderedConsistentFilter f{{0, 1}};
  const Alert a = alert2(1, 1);
  EXPECT_TRUE(f.offer(a));
  EXPECT_FALSE(f.offer(a));
}

// ------------------------------------------------------------ factory ----

TEST(FilterFactory, BuildsEveryKind) {
  const std::vector<VarId> one{0};
  const std::vector<VarId> two{0, 1};
  for (FilterKind k : {FilterKind::kPassAll, FilterKind::kDropAll,
                       FilterKind::kAd1, FilterKind::kAd2, FilterKind::kAd3,
                       FilterKind::kAd4}) {
    const FilterPtr f = make_filter(k, one);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->name(), filter_kind_name(k));
  }
  for (FilterKind k : {FilterKind::kAd5, FilterKind::kAd6}) {
    const FilterPtr f = make_filter(k, two);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->name(), filter_kind_name(k));
  }
}

TEST(FilterFactory, Ad2Ad4RequireSingleVariable) {
  const std::vector<VarId> two{0, 1};
  EXPECT_THROW((void)make_filter(FilterKind::kAd2, two), std::invalid_argument);
  EXPECT_THROW((void)make_filter(FilterKind::kAd4, two), std::invalid_argument);
}

TEST(FilterFactory, ParseNames) {
  EXPECT_EQ(parse_filter_kind("AD-1"), FilterKind::kAd1);
  EXPECT_EQ(parse_filter_kind("ad3"), FilterKind::kAd3);
  EXPECT_EQ(parse_filter_kind("AD-6"), FilterKind::kAd6);
  EXPECT_EQ(parse_filter_kind("pass"), FilterKind::kPassAll);
  EXPECT_EQ(parse_filter_kind("DROP"), FilterKind::kDropAll);
  EXPECT_THROW((void)parse_filter_kind("AD-7"), std::invalid_argument);
}

// --------------------------------------------------------- displayer ----

TEST(AlertDisplayer, CollectsArrivedAndDisplayed) {
  AlertDisplayer ad{std::make_unique<Ad1DuplicateFilter>()};
  EXPECT_TRUE(ad.on_alert(alert1({1})));
  EXPECT_FALSE(ad.on_alert(alert1({1})));
  EXPECT_TRUE(ad.on_alert(alert1({2})));
  EXPECT_EQ(ad.arrived().size(), 3u);
  EXPECT_EQ(ad.displayed().size(), 2u);
  EXPECT_EQ(ad.suppressed(), 1u);
}

TEST(AlertDisplayer, SinkReceivesDisplayedAlertsOnly) {
  std::vector<SeqNo> sunk;
  AlertDisplayer ad{std::make_unique<Ad2OrderedFilter>(0),
                    [&](const Alert& a) { sunk.push_back(a.seqno(0)); }};
  (void)ad.on_alert(alert1({2}));
  (void)ad.on_alert(alert1({1}));
  (void)ad.on_alert(alert1({3}));
  EXPECT_EQ(sunk, (std::vector<SeqNo>{2, 3}));
}

TEST(AlertDisplayer, ResetRestoresInitialState) {
  AlertDisplayer ad{std::make_unique<Ad2OrderedFilter>(0)};
  (void)ad.on_alert(alert1({5}));
  ad.reset();
  EXPECT_TRUE(ad.displayed().empty());
  EXPECT_TRUE(ad.on_alert(alert1({1})));  // filter state reset too
}

// ---- decide(): verdicts with reasons (the provenance layer) -------------

TEST(FilterDecide, AgreesWithAcceptsInEveryReachableState) {
  // A stream with duplicates, reversals, and repeats. For every filter
  // kind, decide(a).accept must equal accepts(a) at every step — the
  // invariant the provenance records depend on.
  std::vector<Alert> single;
  for (SeqNo s : {1, 3, 2, 3, 5, 4, 5, 7, 6, 7})
    single.push_back(alert1({s, s + 1}));
  // AD-5/AD-6 read every variable of their set from each alert, so their
  // stream carries both variables in every alert.
  std::vector<Alert> multi;
  for (SeqNo s : {1, 2, 2, 1, 4, 3, 4, 6, 5, 6})
    multi.push_back(alert2(s, s + 1));

  const struct {
    FilterKind kind;
    std::vector<VarId> vars;
    const std::vector<Alert>* stream;
  } cases[] = {
      {FilterKind::kPassAll, {0}, &single},
      {FilterKind::kDropAll, {0}, &single},
      {FilterKind::kAd1, {0}, &single},
      {FilterKind::kAd2, {0}, &single},
      {FilterKind::kAd3, {0}, &single},
      {FilterKind::kAd4, {0}, &single},
      {FilterKind::kAd5, {0, 1}, &multi},
      {FilterKind::kAd6, {0, 1}, &multi},
      {FilterKind::kBrokenAd2, {0}, &single},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(filter_kind_name(c.kind));
    FilterPtr f = make_filter(c.kind, c.vars);
    for (const Alert& a : *c.stream) {
      const FilterDecision d = f->decide(a);
      EXPECT_EQ(d.accept, f->accepts(a));
      ASSERT_NE(d.reason, nullptr);
      EXPECT_FALSE(std::string_view{d.reason}.empty());
      if (d.accept) {
        EXPECT_EQ(std::string_view{d.reason}, "accepted");
      }
      (void)f->offer(a);
    }
  }
}

TEST(FilterDecide, ReasonsNameTheFailedTest) {
  Ad1DuplicateFilter ad1;
  ASSERT_TRUE(ad1.offer(alert1({2, 3})));
  EXPECT_EQ(std::string_view{ad1.decide(alert1({2, 3})).reason},
            "duplicate: identical history set already displayed");

  Ad2OrderedFilter ad2{0};
  ASSERT_TRUE(ad2.offer(alert1({5})));
  EXPECT_EQ(std::string_view{ad2.decide(alert1({4})).reason},
            "out-of-order: seqno not above last displayed");

  DropAllFilter drop;
  const FilterDecision d = drop.decide(alert1({1}));
  EXPECT_FALSE(d.accept);
  EXPECT_EQ(std::string_view{d.reason},
            "drop-all: this filter displays nothing");
}

TEST(FilterDecide, CompositeAd4SurfacesTheSubFilterReason) {
  // AD-4 = AD-2 then AD-3: an out-of-order arrival must carry AD-2's
  // reason, not a generic composite verdict.
  Ad4OrderedConsistentFilter ad4{0};
  ASSERT_TRUE(ad4.offer(alert1({5})));
  const FilterDecision d = ad4.decide(alert1({4}));
  EXPECT_FALSE(d.accept);
  EXPECT_EQ(std::string_view{d.reason},
            "out-of-order: seqno not above last displayed");
}

TEST(FilterDecide, Ad5ReasonsDistinguishInversionFromDuplicate) {
  Ad5MultiOrderedFilter ad5{{0, 1}};
  ASSERT_TRUE(ad5.offer(alert2(2, 2)));
  const FilterDecision inversion = ad5.decide(alert2(1, 3));
  EXPECT_FALSE(inversion.accept);
  EXPECT_EQ(std::string_view{inversion.reason},
            "out-of-order: would invert display order in a variable");
  const FilterDecision duplicate = ad5.decide(alert2(2, 2));
  EXPECT_FALSE(duplicate.accept);
  EXPECT_EQ(std::string_view{duplicate.reason},
            "duplicate: equals the last display in every variable");
}

TEST(RunFilter, ReplaysInterleaving) {
  Ad2OrderedFilter f{0};
  const std::vector<Alert> arrivals = {alert1({2}), alert1({1}), alert1({3})};
  const auto out = run_filter(f, arrivals);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seqno(0), 2);
  EXPECT_EQ(out[1].seqno(0), 3);
}

}  // namespace
}  // namespace rcm
