#include "mta/track_automaton.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "base/rng.h"
#include "base/string_ops.h"
#include "mta/atoms.h"
#include "obs/trace.h"
#include "oracle/language_oracle.h"

namespace strq {
namespace {

const Alphabet kBin = Alphabet::Binary();

TEST(TrackAutomatonTest, FullAndEmptyRelations) {
  Result<TrackAutomaton> full = TrackAutomaton::FullRelation(kBin, {0, 1});
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->IsEmpty());
  EXPECT_FALSE(full->IsFinite());
  Result<bool> in = full->Contains({"01", "1"});
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(*in);

  Result<TrackAutomaton> empty = TrackAutomaton::EmptyRelation(kBin, {0, 1});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->IsEmpty());
  EXPECT_TRUE(empty->IsFinite());
}

TEST(TrackAutomatonTest, TruthRelations) {
  Result<TrackAutomaton> t = TrackAutomaton::Truth(kBin, true);
  Result<TrackAutomaton> f = TrackAutomaton::Truth(kBin, false);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(f.ok());
  Result<bool> tv = t->TruthValue();
  Result<bool> fv = f->TruthValue();
  ASSERT_TRUE(tv.ok());
  ASSERT_TRUE(fv.ok());
  EXPECT_TRUE(*tv);
  EXPECT_FALSE(*fv);
}

TEST(TrackAutomatonTest, VarsMustBeSorted) {
  EXPECT_FALSE(TrackAutomaton::FullRelation(kBin, {1, 0}).ok());
  EXPECT_FALSE(TrackAutomaton::FullRelation(kBin, {0, 0}).ok());
}

TEST(TrackAutomatonTest, FromTuplesMembership) {
  std::vector<std::vector<std::string>> tuples = {
      {"0", "11"}, {"", "1"}, {"01", "01"}};
  Result<TrackAutomaton> rel = TrackAutomaton::FromTuples(kBin, {3, 7},
                                                          tuples);
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->IsFinite());
  for (const auto& t : tuples) {
    Result<bool> in = rel->Contains(t);
    ASSERT_TRUE(in.ok());
    EXPECT_TRUE(*in);
  }
  Result<bool> out = rel->Contains({"0", "1"});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(*out);
}

TEST(TrackAutomatonTest, FromTuplesAllTuplesRoundTrip) {
  std::vector<std::vector<std::string>> tuples = {
      {"0", "11"}, {"", "1"}, {"01", "01"}, {"1", ""}};
  Result<TrackAutomaton> rel =
      TrackAutomaton::FromTuples(kBin, {0, 1}, tuples);
  ASSERT_TRUE(rel.ok());
  Result<std::vector<std::vector<std::string>>> all = rel->AllTuples();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), tuples.size());
  for (const auto& t : tuples) {
    EXPECT_NE(std::find(all->begin(), all->end(), t), all->end());
  }
}

// The unminimized trie over a relation's convolutions: the DFA that
// FromTuples builds before interning.
Dfa ConvolutionTrie(const Alphabet& alphabet, const ConvAlphabet& conv,
                    const std::vector<std::vector<std::string>>& tuples) {
  const int letters = conv.num_letters();
  std::vector<std::vector<int>> next(1, std::vector<int>(letters, -1));
  std::vector<bool> accepting(1, false);
  for (const std::vector<std::string>& tuple : tuples) {
    Result<std::vector<Symbol>> word = conv.ConvolveStrings(alphabet, tuple);
    EXPECT_TRUE(word.ok()) << word.status();
    int q = 0;
    for (Symbol a : *word) {
      if (next[q][a] < 0) {
        next[q][a] = static_cast<int>(next.size());
        next.emplace_back(letters, -1);
        accepting.push_back(false);
      }
      q = next[q][a];
    }
    accepting[q] = true;
  }
  const int sink = static_cast<int>(next.size());
  next.emplace_back(letters, sink);
  accepting.push_back(false);
  for (std::vector<int>& row : next) {
    for (int& t : row) t = t < 0 ? sink : t;
  }
  Result<Dfa> d = Dfa::Create(letters, 0, std::move(next),
                              std::move(accepting));
  EXPECT_TRUE(d.ok()) << d.status();
  return *std::move(d);
}

// FromTuples interns its trie without the Valid(arity) product that Create
// applies. That is sound only because every trie word is already a
// canonical convolution, so the id must equal Create's on the same trie:
// random relations of arity 1-3, the empty relation, a tuple of empty
// strings and repeated tuples.
TEST(TrackAutomatonTest, FromTuplesIdMatchesCreateOnTrie) {
  Rng rng(20261019);
  for (int iter = 0; iter < 90; ++iter) {
    const int arity = 1 + iter % 3;
    std::vector<std::vector<std::string>> tuples;
    if (iter >= 3 && iter < 6) tuples.push_back(std::vector<std::string>(arity));
    for (int i = iter >= 6 ? rng.NextInt(1, 8) : 0; i > 0; --i) {
      std::vector<std::string> t;
      for (int c = 0; c < arity; ++c) t.push_back(rng.NextString("01", 0, 4));
      tuples.push_back(t);
      if (rng.NextBelow(4) == 0) tuples.push_back(t);
    }
    std::vector<VarId> vars;
    for (int c = 0; c < arity; ++c) vars.push_back(2 * c + 1);
    Result<ConvAlphabet> conv = ConvAlphabet::Create(kBin.size(), arity);
    ASSERT_TRUE(conv.ok());
    AutomatonStore store(true);
    Result<TrackAutomaton> built =
        TrackAutomaton::FromTuples(store, kBin, vars, tuples);
    Result<TrackAutomaton> created = TrackAutomaton::Create(
        store, kBin, vars, ConvolutionTrie(kBin, *conv, tuples));
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_TRUE(created.ok()) << created.status();
    EXPECT_EQ(built->dfa_ref().id(), created->dfa_ref().id()) << iter;
    EXPECT_EQ(built->vars(), vars);
    for (const std::vector<std::string>& t : tuples) {
      Result<bool> in = built->Contains(t);
      ASSERT_TRUE(in.ok());
      EXPECT_TRUE(*in) << iter;
    }
  }
}

// The register kernel behind FromTuples against Hopcroft on the same
// unminimized trie: structurally equal (so the canonical id is the same)
// and minimal by the oracle's pair-marking table. Random relations of arity
// 1-3 over two alphabets, including the empty set, {ε}, duplicate words,
// words sharing long suffixes and relations that never use letter 0.
TEST(DfaFromWordsTest, MatchesHopcroftOnConvolutionTries) {
  Rng rng(20261020);
  const Alphabet abc = *Alphabet::Create("abc");
  for (int iter = 0; iter < 120; ++iter) {
    const Alphabet& alphabet = iter % 2 == 0 ? kBin : abc;
    const std::string sigma = iter % 2 == 0 ? "01" : "abc";
    const int arity = 1 + iter % 3;
    const int shape = (iter / 6) % 5;
    std::vector<std::vector<std::string>> tuples;
    if (shape == 1) tuples.push_back(std::vector<std::string>(arity));
    if (shape >= 2) {
      std::vector<std::string> suffixes;
      for (int i = 0; i < 3; ++i) {
        suffixes.push_back(rng.NextString(sigma, 3, 6));
      }
      for (int i = rng.NextInt(1, 12); i > 0; --i) {
        std::vector<std::string> t;
        for (int c = 0; c < arity; ++c) {
          std::string w = rng.NextString(sigma, 0, 3);
          if (shape == 3) w += suffixes[rng.NextBelow(suffixes.size())];
          if (shape == 4) w = std::string(w.size() + 1, sigma.back());
          t.push_back(w);
        }
        tuples.push_back(t);
        if (rng.NextBelow(3) == 0) tuples.push_back(t);
      }
    }
    Result<ConvAlphabet> conv = ConvAlphabet::Create(alphabet.size(), arity);
    ASSERT_TRUE(conv.ok());
    std::vector<std::vector<Symbol>> words;
    for (const std::vector<std::string>& t : tuples) {
      Result<std::vector<Symbol>> w = conv->ConvolveStrings(alphabet, t);
      ASSERT_TRUE(w.ok()) << w.status();
      words.push_back(*w);
    }
    Dfa built = Dfa::MinimalFromWords(conv->num_letters(), words);
    Dfa hopcroft = ConvolutionTrie(alphabet, *conv, tuples).Minimized();
    EXPECT_TRUE(built.StructurallyEqual(hopcroft))
        << "iter " << iter << ": " << built.num_states() << " states vs "
        << hopcroft.num_states();
    EXPECT_TRUE(oracle::IsMinimal(oracle::ToPlain(built))) << "iter " << iter;
    for (const std::vector<Symbol>& w : words) {
      EXPECT_TRUE(built.Accepts(w)) << "iter " << iter;
    }
  }
}

// A work ceiling in the style of DfaMinimizeWorkTest: one FromTuples call
// builds the minimal automaton directly, so it runs no minimization and
// explores no product states.
TEST(TrackAutomatonWorkTest, FromTuplesMinimizesOnceWithoutProduct) {
  Rng rng(300);
  std::vector<std::vector<std::string>> tuples;
  for (int i = 0; i < 300; ++i) {
    tuples.push_back({rng.NextString("01", 0, 10), rng.NextString("01", 0, 10)});
  }
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  AutomatonStore store(true);
  int64_t minimizations = metrics.Get(obs::kDfaMinimizations);
  int64_t explored = metrics.Get(obs::kDfaProductStatesExplored);
  Result<TrackAutomaton> rel =
      TrackAutomaton::FromTuples(store, kBin, {0, 1}, tuples);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(metrics.Get(obs::kDfaMinimizations) - minimizations, 0);
  EXPECT_EQ(metrics.Get(obs::kDfaProductStatesExplored) - explored, 0);
}

TEST(TrackAutomatonTest, AllTuplesRejectsInfinite) {
  Result<TrackAutomaton> full = TrackAutomaton::FullRelation(kBin, {0});
  ASSERT_TRUE(full.ok());
  Result<std::vector<std::vector<std::string>>> all = full->AllTuples();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kUnsafe);
}

// An unlimited budget stays unlimited: the one-past-the-budget probe must
// not wrap to zero and return an empty OK answer.
TEST(TrackAutomatonTest, AllTuplesUnlimitedBudgetReturnsEverything) {
  Result<TrackAutomaton> rel = TrackAutomaton::FromTuples(
      kBin, {0}, {{"0"}, {"11"}, {"010"}});
  ASSERT_TRUE(rel.ok()) << rel.status();
  Result<std::vector<std::vector<std::string>>> all =
      rel->AllTuples(std::numeric_limits<size_t>::max());
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(*all, (std::vector<std::vector<std::string>>{
                      {"0"}, {"11"}, {"010"}}));
}

TEST(TrackAutomatonTest, IntersectAlignsVariables) {
  // prefix(0,1) ∧ prefix(1,2) ⊨ prefix(0,2) (transitivity, checked on
  // tuples).
  Result<TrackAutomaton> p01 = PrefixAtom(kBin, 0, 1);
  Result<TrackAutomaton> p12 = PrefixAtom(kBin, 1, 2);
  ASSERT_TRUE(p01.ok());
  ASSERT_TRUE(p12.ok());
  Result<TrackAutomaton> both = TrackAutomaton::Intersect(*p01, *p12);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->vars(), (std::vector<VarId>{0, 1, 2}));
  std::vector<std::string> strings = AllStringsUpToLength("01", 3);
  for (const std::string& x : strings) {
    for (const std::string& y : strings) {
      for (const std::string& z : strings) {
        Result<bool> in = both->Contains({x, y, z});
        ASSERT_TRUE(in.ok());
        EXPECT_EQ(*in, IsPrefix(x, y) && IsPrefix(y, z))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST(TrackAutomatonTest, UnionAlignsVariables) {
  Result<TrackAutomaton> p01 = PrefixAtom(kBin, 0, 1);
  Result<TrackAutomaton> p10 = PrefixAtom(kBin, 1, 0);
  ASSERT_TRUE(p01.ok());
  ASSERT_TRUE(p10.ok());
  Result<TrackAutomaton> comparable = TrackAutomaton::Union(*p01, *p10);
  ASSERT_TRUE(comparable.ok());
  std::vector<std::string> strings = AllStringsUpToLength("01", 4);
  for (const std::string& x : strings) {
    for (const std::string& y : strings) {
      Result<bool> in = comparable->Contains({x, y});
      ASSERT_TRUE(in.ok());
      EXPECT_EQ(*in, IsPrefix(x, y) || IsPrefix(y, x)) << x << "," << y;
    }
  }
}

TEST(TrackAutomatonTest, ComplementIsRelativeToAllTuples) {
  Result<TrackAutomaton> eq = EqualAtom(kBin, 0, 1);
  ASSERT_TRUE(eq.ok());
  Result<TrackAutomaton> neq = eq->Complemented();
  ASSERT_TRUE(neq.ok());
  std::vector<std::string> strings = AllStringsUpToLength("01", 4);
  for (const std::string& x : strings) {
    for (const std::string& y : strings) {
      Result<bool> in = neq->Contains({x, y});
      ASSERT_TRUE(in.ok());
      EXPECT_EQ(*in, x != y) << x << "," << y;
    }
  }
}

TEST(TrackAutomatonTest, DoubleComplementIsIdentity) {
  Result<TrackAutomaton> p = PrefixAtom(kBin, 0, 1);
  ASSERT_TRUE(p.ok());
  Result<TrackAutomaton> c1 = p->Complemented();
  ASSERT_TRUE(c1.ok());
  Result<TrackAutomaton> c2 = c1->Complemented();
  ASSERT_TRUE(c2.ok());
  std::vector<std::string> strings = AllStringsUpToLength("01", 4);
  for (const std::string& x : strings) {
    for (const std::string& y : strings) {
      Result<bool> a = p->Contains({x, y});
      Result<bool> b = c2->Contains({x, y});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << x << "," << y;
    }
  }
}

TEST(TrackAutomatonTest, ProjectExistential) {
  // ∃y (x ≺ y ∧ L_1(y)): true for every x (extend x with 1).
  Result<TrackAutomaton> sp = StrictPrefixAtom(kBin, 0, 1);
  Result<TrackAutomaton> l1 = LastSymbolAtom(kBin, '1', 1);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(l1.ok());
  Result<TrackAutomaton> conj = TrackAutomaton::Intersect(*sp, *l1);
  ASSERT_TRUE(conj.ok());
  Result<TrackAutomaton> exists = conj->Project(1);
  ASSERT_TRUE(exists.ok());
  EXPECT_EQ(exists->vars(), (std::vector<VarId>{0}));
  for (const std::string& x : AllStringsUpToLength("01", 4)) {
    Result<bool> in = exists->Contains({x});
    ASSERT_TRUE(in.ok());
    EXPECT_TRUE(*in) << x;
  }
}

TEST(TrackAutomatonTest, ProjectToSentence) {
  // ∃x (x = "01"): a true sentence.
  Result<TrackAutomaton> c = ConstAtom(kBin, "01", 0);
  ASSERT_TRUE(c.ok());
  Result<TrackAutomaton> sentence = c->Project(0);
  ASSERT_TRUE(sentence.ok());
  EXPECT_EQ(sentence->arity(), 0);
  Result<bool> v = sentence->TruthValue();
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);

  // ∃x (x = "01" ∧ x = "10"): false.
  Result<TrackAutomaton> c2 = ConstAtom(kBin, "10", 0);
  ASSERT_TRUE(c2.ok());
  Result<TrackAutomaton> conj = TrackAutomaton::Intersect(*c, *c2);
  ASSERT_TRUE(conj.ok());
  Result<TrackAutomaton> s2 = conj->Project(0);
  ASSERT_TRUE(s2.ok());
  Result<bool> v2 = s2->TruthValue();
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(*v2);
}

TEST(TrackAutomatonTest, ProjectLongerTrack) {
  // ∃y (y = x·1): projecting away a track that is longer than the rest.
  Result<TrackAutomaton> app = AppendGraphAtom(kBin, '1', 0, 1);
  ASSERT_TRUE(app.ok());
  Result<TrackAutomaton> exists = app->Project(1);
  ASSERT_TRUE(exists.ok());
  for (const std::string& x : AllStringsUpToLength("01", 4)) {
    Result<bool> in = exists->Contains({x});
    ASSERT_TRUE(in.ok());
    EXPECT_TRUE(*in) << x;  // every x has an extension x·1
  }
}

TEST(TrackAutomatonTest, ProjectMissingVarRejected) {
  Result<TrackAutomaton> p = PrefixAtom(kBin, 0, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->Project(5).ok());
}

TEST(TrackAutomatonTest, RenameSwapsTracks) {
  // prefix(x0, x1) renamed {0->1, 1->0} is prefix(x1, x0): "second is a
  // prefix of first".
  Result<TrackAutomaton> p = PrefixAtom(kBin, 0, 1);
  ASSERT_TRUE(p.ok());
  Result<TrackAutomaton> swapped = p->Renamed({{0, 1}, {1, 0}});
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped->vars(), (std::vector<VarId>{0, 1}));
  std::vector<std::string> strings = AllStringsUpToLength("01", 4);
  for (const std::string& x : strings) {
    for (const std::string& y : strings) {
      Result<bool> in = swapped->Contains({x, y});
      ASSERT_TRUE(in.ok());
      EXPECT_EQ(*in, IsPrefix(y, x)) << x << "," << y;
    }
  }
}

TEST(TrackAutomatonTest, RenameRejectsCollisions) {
  Result<TrackAutomaton> p = PrefixAtom(kBin, 0, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->Renamed({{0, 1}}).ok());  // both tracks named 1
}

TEST(TrackAutomatonTest, CylindrifiedAddsFreeTrack) {
  Result<TrackAutomaton> eq = EqualAtom(kBin, 0, 2);
  ASSERT_TRUE(eq.ok());
  Result<TrackAutomaton> cyl = eq->Cylindrified({0, 1, 2});
  ASSERT_TRUE(cyl.ok());
  std::vector<std::string> strings = AllStringsUpToLength("01", 3);
  for (const std::string& x : strings) {
    for (const std::string& y : strings) {
      for (const std::string& z : strings) {
        Result<bool> in = cyl->Contains({x, y, z});
        ASSERT_TRUE(in.ok());
        EXPECT_EQ(*in, x == z) << x << "," << y << "," << z;
      }
    }
  }
}

TEST(TrackAutomatonTest, CylindrifiedRequiresSuperset) {
  Result<TrackAutomaton> eq = EqualAtom(kBin, 0, 2);
  ASSERT_TRUE(eq.ok());
  EXPECT_FALSE(eq->Cylindrified({0, 1}).ok());
}

TEST(TrackAutomatonTest, CountUpToLength) {
  // Equal pairs with |x| <= 2 over {0,1}: ε, 0, 1, 00, 01, 10, 11 -> 7.
  Result<TrackAutomaton> eq = EqualAtom(kBin, 0, 1);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->CountUpToLength(2), 7u);
}

TEST(TrackAutomatonTest, EnumerateTuplesDecodes) {
  Result<TrackAutomaton> one = OneStepAtom(kBin, 0, 1);
  ASSERT_TRUE(one.ok());
  std::vector<std::vector<std::string>> tuples = one->EnumerateTuples(2, 100);
  // Pairs (x, x·b) with |x·b| <= 2: x ∈ {ε,0,1}, b ∈ {0,1} -> 6 tuples.
  EXPECT_EQ(tuples.size(), 6u);
  for (const auto& t : tuples) {
    ASSERT_EQ(t.size(), 2u);
    EXPECT_TRUE(IsOneStepExtension(t[0], t[1])) << t[0] << "," << t[1];
  }
}

// ValidConvolutions against the word oracle at arities 0..3: every word of
// up to L columns is accepted iff, decoded column by column, it is a
// canonical convolution (pads form a suffix on each track, no all-pad
// column). The pad-mask partition can never be finer than 2^arity classes.
TEST(TrackAutomatonTest, ValidConvolutionsMatchWordOracle) {
  for (int arity = 0; arity <= 3; ++arity) {
    Result<ConvAlphabet> conv = ConvAlphabet::Create(2, arity);
    ASSERT_TRUE(conv.ok());
    Result<Dfa> valid = TrackAutomaton::ValidConvolutions(*conv);
    ASSERT_TRUE(valid.ok());
    EXPECT_LE(valid->num_classes(), 1 << arity);
    oracle::PlainDfa plain = oracle::ToPlain(*valid);
    const int max_len = arity <= 2 ? 4 : 3;
    for (const oracle::Word& w :
         oracle::WordsUpTo(conv->num_letters(), max_len)) {
      std::vector<std::vector<int>> columns;
      for (int letter : w) {
        columns.push_back(conv->Decode(static_cast<Symbol>(letter)));
      }
      ASSERT_EQ(plain.Accepts(w),
                oracle::IsCanonicalConvolution(columns, arity, conv->pad()))
          << "arity " << arity;
    }
  }
}

oracle::Relation ToOracle(const TrackAutomaton& rel) {
  Result<std::vector<std::vector<std::string>>> tuples = rel.AllTuples();
  EXPECT_TRUE(tuples.ok()) << tuples.status();
  return {rel.vars(), {tuples->begin(), tuples->end()}};
}

// The first-order track operations against explicit tuple sets: random
// finite relations are intersected (a natural join, cylindrifying
// internally), projected, renamed by a genuine track permutation, and
// cylindrified by a fresh variable and projected back; each result must
// enumerate exactly the tuples the same operation yields on
// std::set<std::vector<std::string>>. Membership in the cylindrified
// relation is checked directly with the fresh column ranging over Σ^{≤3}, so
// fresh words longer and shorter than the embedded ones are both covered.
TEST(TrackAutomatonTest, FirstOrderOpsMatchTupleOracle) {
  Rng rng(20260808);
  const std::vector<std::string> fresh_values = oracle::StringsUpTo("01", 3);
  for (int iter = 0; iter < 200; ++iter) {
    AutomatonStore store(true);
    const VarId pool[] = {0, 2, 4};
    int arity1 = rng.NextInt(1, 3);
    int arity2 = rng.NextInt(1, 3);
    // Overlapping but not identical variable sets exercise alignment.
    oracle::Relation o1{{pool, pool + arity1}, {}};
    oracle::Relation o2{{pool + (3 - arity2), pool + 3}, {}};
    for (oracle::Relation* o : {&o1, &o2}) {
      for (int i = rng.NextInt(1, 5); i > 0; --i) {
        oracle::Tuple tuple;
        for (size_t t = 0; t < o->vars.size(); ++t) {
          tuple.push_back(rng.NextString("01", 0, 3));
        }
        o->tuples.insert(std::move(tuple));
      }
    }
    auto load = [&](const oracle::Relation& o) {
      Result<TrackAutomaton> r = TrackAutomaton::FromTuples(
          store, kBin, o.vars, {o.tuples.begin(), o.tuples.end()});
      EXPECT_TRUE(r.ok()) << r.status();
      return *std::move(r);
    };
    TrackAutomaton r1 = load(o1);
    TrackAutomaton r2 = load(o2);
    ASSERT_EQ(ToOracle(r1).tuples, o1.tuples) << iter;

    oracle::Relation joined = oracle::Join(o1, o2);
    Result<TrackAutomaton> both = TrackAutomaton::Intersect(r1, r2);
    ASSERT_TRUE(both.ok()) << both.status();
    ASSERT_EQ(both->vars(), joined.vars) << iter;
    ASSERT_EQ(ToOracle(*both).tuples, joined.tuples) << "intersect, " << iter;

    VarId project_var = joined.vars[rng.NextBelow(joined.vars.size())];
    oracle::Relation projected = oracle::Project(joined, project_var);
    Result<TrackAutomaton> proj = both->Project(project_var);
    ASSERT_TRUE(proj.ok()) << proj.status();
    ASSERT_EQ(proj->vars(), projected.vars) << iter;
    ASSERT_EQ(ToOracle(*proj).tuples, projected.tuples) << "project, " << iter;

    // Reverse the remaining variable order: a genuine track permutation
    // (a single remaining variable degenerates to the label-only path).
    std::map<VarId, VarId> renaming;
    for (size_t i = 0; i < projected.vars.size(); ++i) {
      renaming[projected.vars[i]] =
          projected.vars[projected.vars.size() - 1 - i];
    }
    oracle::Relation renamed = oracle::Rename(projected, renaming);
    Result<TrackAutomaton> ren = proj->Renamed(renaming);
    ASSERT_TRUE(ren.ok()) << ren.status();
    ASSERT_EQ(ren->vars(), renamed.vars) << iter;
    ASSERT_EQ(ToOracle(*ren).tuples, renamed.tuples) << "rename, " << iter;

    // A fresh variable below, between or above the joined ones.
    const VarId fresh_pool[] = {1, 3, 9};
    VarId fresh = fresh_pool[rng.NextBelow(3)];
    std::vector<VarId> up = joined.vars;
    up.insert(std::upper_bound(up.begin(), up.end(), fresh), fresh);
    size_t fresh_col = std::find(up.begin(), up.end(), fresh) - up.begin();
    Result<TrackAutomaton> cyl = both->Cylindrified(up);
    ASSERT_TRUE(cyl.ok()) << cyl.status();
    Result<TrackAutomaton> back = cyl->Project(fresh);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_EQ(ToOracle(*back).tuples, joined.tuples) << "round trip, " << iter;
    // Members of the join and near misses (a member with one column
    // changed), each with every fresh value inserted.
    std::vector<oracle::Tuple> probes(joined.tuples.begin(),
                                      joined.tuples.end());
    for (const oracle::Tuple& t : joined.tuples) {
      oracle::Tuple miss = t;
      miss[rng.NextBelow(miss.size())] += "1";
      probes.push_back(std::move(miss));
    }
    for (const oracle::Tuple& t : probes) {
      bool member = joined.tuples.count(t) > 0;
      for (const std::string& v : fresh_values) {
        oracle::Tuple wide = t;
        wide.insert(wide.begin() + fresh_col, v);
        Result<bool> in = cyl->Contains(wide);
        ASSERT_TRUE(in.ok()) << in.status();
        ASSERT_EQ(*in, member) << "cylindrify, " << iter;
      }
    }
  }
}

// PrefixClosure against a std::set prefix closure on Σ^{≤5}: the empty
// relation, {ε}, a chain of nested words, then random relations of short
// words (which share prefixes often over {0,1}). Its canonical id must equal
// that of the composition it replaces, Cylindrified → Intersect(PrefixAtom)
// → Project, and a repeat call is a computed-table hit.
TEST(TrackAutomatonTest, PrefixClosureMatchesTupleOracle) {
  Rng rng(20261019);
  const std::vector<std::string> words = oracle::StringsUpTo("01", 5);
  for (int iter = 0; iter < 120; ++iter) {
    std::set<std::string> rel;
    if (iter == 1) rel = {""};
    if (iter == 2) rel = {"0", "01", "011", "0110"};
    for (int i = iter > 2 ? rng.NextInt(1, 6) : 0; i > 0; --i) {
      rel.insert(rng.NextString("01", 0, 4));
    }
    std::set<std::string> closure;
    std::vector<std::vector<std::string>> tuples;
    for (const std::string& s : rel) {
      tuples.push_back({s});
      for (size_t i = 0; i <= s.size(); ++i) closure.insert(s.substr(0, i));
    }
    AutomatonStore store(true);
    Result<TrackAutomaton> r = TrackAutomaton::FromTuples(store, kBin, {1},
                                                          tuples);
    ASSERT_TRUE(r.ok()) << r.status();
    Result<TrackAutomaton> pre = r->PrefixClosure(0);
    ASSERT_TRUE(pre.ok()) << pre.status();
    ASSERT_EQ(pre->vars(), std::vector<VarId>{0});
    for (const std::string& w : words) {
      Result<bool> in = pre->Contains({w});
      ASSERT_TRUE(in.ok()) << in.status();
      ASSERT_EQ(*in, closure.count(w) > 0) << iter << ": '" << w << "'";
    }

    Result<TrackAutomaton> atom = PrefixAtom(kBin, 0, 1);
    ASSERT_TRUE(atom.ok()) << atom.status();
    Result<TrackAutomaton> le =
        TrackAutomaton::Create(store, kBin, atom->vars(), atom->dfa());
    Result<TrackAutomaton> cyl = r->Cylindrified({0, 1});
    ASSERT_TRUE(le.ok() && cyl.ok());
    Result<TrackAutomaton> both = TrackAutomaton::Intersect(*cyl, *le);
    ASSERT_TRUE(both.ok()) << both.status();
    Result<TrackAutomaton> composed = both->Project(1);
    ASSERT_TRUE(composed.ok()) << composed.status();
    EXPECT_EQ(pre->dfa_ref().id(), composed->dfa_ref().id()) << iter;

    int64_t hits = store.stats().op_hits;
    Result<TrackAutomaton> again = r->PrefixClosure(0);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->dfa_ref().id(), pre->dfa_ref().id());
    EXPECT_EQ(store.stats().op_hits, hits + 1);
  }
  Result<TrackAutomaton> binary = TrackAutomaton::FullRelation(kBin, {0, 1});
  ASSERT_TRUE(binary.ok());
  EXPECT_FALSE(binary->PrefixClosure(0).ok());
}

TEST(TrackAutomatonTest, ValidConvolutionsRejectJunk) {
  Result<ConvAlphabet> conv = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(conv.ok());
  Result<Dfa> valid = TrackAutomaton::ValidConvolutions(*conv);
  ASSERT_TRUE(valid.ok());
  // Canonical word: (0,1)(2,1) — x="0", y="11".
  Symbol c01 = conv->Encode({0, 1});
  Symbol cp1 = conv->Encode({2, 1});
  Symbol cpp = conv->Encode({2, 2});
  Symbol c00 = conv->Encode({0, 0});
  EXPECT_TRUE(valid->Accepts({c01, cp1}));
  EXPECT_TRUE(valid->Accepts({}));
  // Pad then non-pad on track 0: invalid.
  EXPECT_FALSE(valid->Accepts({cp1, c01}));
  // All-pad column: invalid.
  EXPECT_FALSE(valid->Accepts({c00, cpp}));
}

}  // namespace
}  // namespace strq
