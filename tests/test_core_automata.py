"""Unit tests for alphabets, transition systems, DFA algebra, omega
membership, and the emptiness/inclusion engines."""

import functools
import pickle
import random
import re
from dataclasses import replace

import pytest

import omega_fdfa.core_automata as core_automata
from omega_fdfa import (
    Alphabet,
    AlphabetError,
    AutomatonError,
    BUCHI,
    COBUCHI,
    DetOmega,
    DetTS,
    Dfa,
    LIMIT,
    Nba,
    ResourceLimitError,
    UpWord,
    build_canonical_fdfa,
    dfa_lang_equal,
    dfa_minimize,
    dfa_product,
    fdfa_to_nba,
    gen_fig1,
    gen_ln,
    gen_random_dba,
    member_upword_det,
    member_upword_nba,
    nba_dba_included,
    nba_dba_intersection_witness,
    nba_nba_intersection_witness,
    run_word,
)
from omega_fdfa.core_automata import (
    _least_lasso,
    _pair_graph,
    _phase_graph,
    _product,
    coarsest_quotient,
    dba_state_equiv,
    det_to_nba,
    explore,
    shortest_state_words,
    transition_monoid,
)

from helpers import (
    canonical_dfa,
    dfa_isomorphic,
    explored_monoid,
    moore_quotient,
    one_pair_rabin_empty,
    sccs,
)
from oracles import (
    is_lasso_run,
    least_lasso_measure,
    naive_member,
    naive_nba_member,
    words_upto,
)

AB = Alphabet(("a", "b"))


def up(u, v):
    return UpWord(AB.parse_word(u), AB.parse_word(v))


# --------------------------------------------------------------------------
# alphabets and words

def test_alphabet_single_char_round_trip():
    assert AB.parse_word("abba") == (0, 1, 1, 0)
    assert AB.format_word((0, 1, 1, 0)) == "abba"
    assert AB.parse_word("") == ()
    assert AB.format_word(()) == ""


def test_alphabet_multi_char_round_trip():
    alpha = Alphabet(("req", "ack"))
    assert alpha.parse_word("req.ack.req") == (0, 1, 0)
    assert alpha.format_word((0, 1, 0)) == "req.ack.req"


def test_alphabet_rejects_duplicates_and_unknown_letters():
    with pytest.raises(AlphabetError):
        Alphabet(("a", "a"))
    with pytest.raises(AlphabetError):
        AB.parse_word("ac")


@pytest.mark.parametrize("letters", [("a b", "c"), ("a\tb",), ("a#", "b"),
                                     ("", "b"), ("a\nb",)])
def test_alphabet_refuses_letters_the_text_format_cannot_carry(letters):
    # the text format splits a line at whitespace and cuts it at '#', so
    # such a letter would be written into a block that reads back wrong
    bad = next(t for t in letters if t.split() != [t] or "#" in t)
    with pytest.raises(AlphabetError,
                       match=re.escape(f"letter {bad!r} cannot be written")):
        Alphabet(letters)


def test_alphabet_size_is_cached_outside_eq_hash_pickle_and_replace():
    alpha = Alphabet(("req", "ack", "nak"))
    assert alpha.size == 3 and "size" in vars(alpha)
    fresh = Alphabet(("req", "ack", "nak"))
    assert "size" not in vars(fresh)
    assert alpha == fresh and hash(alpha) == hash(fresh)
    assert repr(alpha) == repr(fresh)
    again = pickle.loads(pickle.dumps(alpha))
    assert again == alpha and hash(again) == hash(alpha) and again.size == 3
    shorter = replace(alpha, letters=("req", "ack"))
    assert shorter.size == 2 and shorter != alpha
    assert replace(alpha) == alpha and replace(alpha).size == 3


def test_upword_requires_nonempty_period():
    with pytest.raises(AutomatonError):
        UpWord((), ())


# --------------------------------------------------------------------------
# transition systems and DFAs

def test_run_word_follows_table():
    d = gen_fig1()
    assert run_word(d.ts, 0, ()) == 0
    assert run_word(d.ts, 0, (0,)) == 1
    assert run_word(d.ts, 0, (0, 0)) == 2
    assert run_word(d.ts, 0, (0, 1, 1)) == 3
    assert run_word(d.ts, 0, (1,)) == 4


def test_run_word_rejects_bad_letter():
    d = gen_fig1()
    with pytest.raises(AlphabetError):
        run_word(d.ts, 0, (7,))


def test_explore_numbers_in_discovery_order():
    graph = {"a": ["c", "b", "c"], "b": ["a", "d"], "c": [], "d": ["d"],
             "e": ["a"]}
    calls = []

    def successors(state):
        calls.append(state)
        return graph[state]

    nodes, rows = explore(["a", "b", "a"], successors)
    assert nodes == ["a", "b", "c", "d"]  # duplicate root dropped, e unreached
    assert calls == nodes  # once per state, in id order
    assert rows == [(2, 1, 2), (0, 3), (), (3,)]  # aligned with successors


@pytest.mark.parametrize("as_bytes", [True, False])
def test_transition_monoid_matches_the_generic_explorer(monkeypatch,
                                                        as_bytes):
    # fig1, ln(1..6) and 200 seeded random DBAs with 1-8 states and 1-3
    # letters; the cap refuses the few largest monoids in both explorers
    cap = 20_000
    if not as_bytes:
        monkeypatch.setattr(core_automata, "BYTE_PROFILES", 0)
    dbas = [gen_fig1()] + [gen_ln(n) for n in range(1, 7)] \
        + [gen_random_dba(seed, 1 + seed % 8, 1 + seed // 8 % 3)
           for seed in range(200)]
    refused = 0
    for d in dbas:
        try:
            want = explored_monoid(d.ts, d.acc, cap, as_bytes)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                transition_monoid(d, cap)
            refused += 1
            continue
        got = transition_monoid(d, cap)
        assert {type(p) for p in got[0]} == {bytes if as_bytes else tuple}
        assert got == want, d
    assert 0 < refused < 10


@pytest.mark.parametrize("as_bytes", [True, False])
def test_transition_monoid_on_a_domain_restricts_the_whole_monoid(
        monkeypatch, as_bytes):
    # fig1, ln(1..4) and 60 seeded random DBAs with 1-8 states and 1-3
    # letters, each over three domains: the even and the odd reachable
    # states, the latter in reverse order, and one state
    if not as_bytes:
        monkeypatch.setattr(core_automata, "BYTE_PROFILES", 0)
    dbas = [gen_fig1()] + [gen_ln(n) for n in range(1, 5)] \
        + [gen_random_dba(seed, 1 + seed % 8, 1 + seed // 8 % 3)
           for seed in range(60)]
    for d in dbas:
        try:
            profiles, ts, states = transition_monoid(d, 5_000)
        except ResourceLimitError:
            continue
        for domain in (states[::2], states[1::2][::-1], states[-1:]):
            if not domain:
                continue
            got = transition_monoid(d, 5_000, domain)
            assert got == explored_monoid(d.ts, d.acc, 5_000, as_bytes,
                                          domain), (d, domain)
            local, local_ts, local_states = got
            assert local_states == states
            assert {type(p) for p in local} == {bytes if as_bytes else tuple}
            # restricting each whole profile to the domain's entries maps
            # the whole monoid onto the class-local one, letter by letter
            where = [states.index(s) for s in domain]
            index = {p: i for i, p in enumerate(local)}
            image = [index[type(p)(p[k] for k in where)] for p in profiles]
            assert sorted(set(image)) == list(range(len(local)))
            assert image[0] == 0
            assert all(local_ts.delta[image[i]][a] == image[t]
                       for i, row in enumerate(ts.delta)
                       for a, t in enumerate(row))
            # the cap is inclusive with a domain too
            size = len(local)
            assert transition_monoid(d, size, domain) == got
            if size > 1:
                with pytest.raises(ResourceLimitError,
                                   match=f"^profile DFA exceeded cap of "
                                         f"{size - 1} states$"):
                    transition_monoid(d, size - 1, domain)


def test_transition_monoid_cap_is_inclusive():
    for d in (gen_fig1(), gen_ln(3), gen_random_dba(0, 5, 2)):
        profiles, ts, states = transition_monoid(d, 10_000)
        size = len(profiles)
        assert transition_monoid(d, size) == (profiles, ts, states)
        with pytest.raises(ResourceLimitError,
                           match=f"^profile DFA exceeded cap of "
                                 f"{size - 1} states$"):
            transition_monoid(d, size - 1)


def _dfa_suffix_a():
    # words ending in a
    ts = DetTS(AB, 2, 0, ((1, 0), (1, 0)))
    return Dfa(ts, frozenset([1]))


def _dfa_even_length():
    ts = DetTS(AB, 2, 0, ((1, 1), (0, 0)))
    return Dfa(ts, frozenset([0]))


def test_dfa_product_rules():
    a, b = _dfa_suffix_a(), _dfa_even_length()
    both = dfa_product(a, b, lambda x, y: x and y)
    either = dfa_product(a, b, lambda x, y: x or y)
    for w in words_upto(2, 6):
        assert both.accepts(w) == (a.accepts(w) and b.accepts(w))
        assert either.accepts(w) == (a.accepts(w) or b.accepts(w))


def test_dfa_minimize_preserves_language_and_is_minimal():
    # a 5-state DFA with duplicated states for "ends in a"
    ts = DetTS(AB, 5, 0, ((1, 2), (3, 2), (1, 4), (3, 4), (1, 2)))
    bloated = Dfa(ts, frozenset([1, 3]))
    small = dfa_minimize(bloated)
    assert small.ts.state_count == 2
    assert dfa_lang_equal(small, bloated)
    assert dfa_lang_equal(small, _dfa_suffix_a())
    again = dfa_minimize(small)
    assert again.ts.state_count == small.ts.state_count


def test_dfa_minimize_empty_and_universal():
    empty = dfa_minimize(Dfa(DetTS(AB, 3, 0, ((1, 2), (2, 1), (0, 0))),
                             frozenset()))
    assert empty.ts.state_count == 1 and not empty.finals
    universal = dfa_minimize(Dfa(DetTS(AB, 2, 0, ((1, 1), (0, 0))),
                                 frozenset([0, 1])))
    assert universal.ts.state_count == 1 and len(universal.finals) == 1


def test_canonical_dfa_and_isomorphism():
    a = _dfa_suffix_a()
    # same language, states renumbered
    ts = DetTS(AB, 2, 1, ((0, 1), (0, 1)))
    b = Dfa(ts, frozenset([0]))
    assert dfa_isomorphic(a, b)
    assert canonical_dfa(a).ts.initial == 0
    assert not dfa_isomorphic(a, _dfa_even_length())


def test_dfa_minimize_is_numbered_in_bfs_order():
    # dfa_minimize returns coarsest_quotient's numbering as it is, which must
    # already be canonical_dfa's breadth-first numbering
    rng = random.Random(20)
    for _ in range(500):
        n, k = rng.randint(1, 12), rng.randint(1, 3)
        ts = DetTS(Alphabet(tuple("abc"[:k])), n, rng.randrange(n),
                   tuple(tuple(rng.randrange(n) for _ in range(k))
                         for _ in range(n)))
        small = dfa_minimize(Dfa(ts, frozenset(
            s for s in range(n) if rng.random() < 0.4)))
        assert canonical_dfa(small) == small


def test_coarsest_quotient_matches_round_by_round_refinement():
    # the column-wise rounds return the same reps and the same numbered
    # quotient as the former per-state rounds, with all-equal, all-distinct
    # and random labels on one-state, one-letter and random TSs
    rng = random.Random(21)
    cases = [DetTS(Alphabet(("a",)), 1, 0, ((0,),)),
             DetTS(AB, 1, 0, ((0, 0),)),
             DetTS(Alphabet(("a",)), 6, 2, ((1,), (2,), (3,), (4,), (5,),
                                            (3,)))]
    for _ in range(300):
        n, k = rng.randint(1, 40), rng.randint(1, 3)
        cases.append(DetTS(Alphabet(tuple("abc"[:k])), n, rng.randrange(n),
                           tuple(tuple(rng.randrange(n) for _ in range(k))
                                 for _ in range(n))))
    for ts in cases:
        states = range(ts.state_count)
        for labels in ([0 for _ in states], list(states),
                       [rng.randrange(3) for _ in states]):
            assert coarsest_quotient(ts, labels.__getitem__) == \
                moore_quotient(ts, labels.__getitem__), (ts, labels)


def test_dfa_lang_equal_detects_difference():
    assert dfa_lang_equal(_dfa_suffix_a(), _dfa_suffix_a())
    assert not dfa_lang_equal(_dfa_suffix_a(), _dfa_even_length())


def test_shortest_state_words_fig1():
    d = gen_fig1()
    words = shortest_state_words(d.ts)
    assert words == {0: (), 1: (0,), 2: (0, 0), 3: (0, 1), 4: (1,)}


# --------------------------------------------------------------------------
# omega membership

def test_member_fig1_pinned():
    d = gen_fig1()
    assert member_upword_det(d, up("", "a"))
    assert member_upword_det(d, up("a", "b"))
    assert member_upword_det(d, up("aaa", "a"))
    assert not member_upword_det(d, up("", "ab"))
    assert not member_upword_det(d, up("", "b"))
    assert not member_upword_det(d, up("aa", "b"))


def test_member_cobuchi_polarity():
    d = gen_fig1()
    flipped = DetOmega(d.ts, d.acc, COBUCHI)
    for u in words_upto(2, 3):
        for v in words_upto(2, 3):
            if v:
                w = UpWord(u, v)
                assert member_upword_det(flipped, w) != member_upword_det(d, w)


def test_member_matches_naive_oracle_on_random_dbas():
    # member_upword_det reads the cached mark table; the oracle reads acc
    for seed in range(12):
        for nletters, max_prefix in ((2, 3), (3, 2)):
            d = gen_random_dba(seed, 4, nletters)
            words = [UpWord(u, v) for u in words_upto(nletters, max_prefix)
                     for v in words_upto(nletters, 3) if v]
            for polarity in (BUCHI, COBUCHI):
                dp = replace(d, polarity=polarity)
                assert all(member_upword_det(dp, w) == naive_member(dp, w)
                           for w in words)


def test_member_upword_det_matches_naive_oracle_from_every_state():
    # unreachable states too: each DBA is started at every one of its states
    dbas = [gen_fig1(), gen_ln(2)] + [gen_random_dba(seed, 2 + seed % 4,
                                                     2 + seed % 2)
                                      for seed in range(12)]
    checked = 0
    for d in dbas:
        periods = words_upto(d.ts.alphabet.size, 4)[1:]
        for polarity in (BUCHI, COBUCHI):
            dp = replace(d, polarity=polarity)
            for s in range(d.ts.state_count):
                rooted = replace(dp, ts=replace(dp.ts, initial=s))
                for v in periods:
                    w = UpWord((), v)
                    assert member_upword_det(rooted, w) \
                        == naive_member(rooted, w), (d, s, v)
                    checked += 1
    assert checked > 8_000


def test_nba_membership_rejects_letters_outside_the_alphabet():
    nba = det_to_nba(gen_fig1())
    for letter in (-1, 2):
        with pytest.raises(AlphabetError):
            member_upword_nba(nba, UpWord((0,), (letter,)))


def test_det_membership_rejects_period_letters_outside_the_alphabet():
    # -1 would otherwise read as the last letter, and a.b^omega is in fig1
    d = gen_fig1()
    for letter in (-1, 2, 5):
        with pytest.raises(AlphabetError):
            member_upword_det(d, UpWord((0,), (letter,)))


def test_det_membership_rejects_prefix_letters_outside_the_alphabet():
    d = gen_fig1()
    for letter in (-1, 2, 5):
        with pytest.raises(AlphabetError):
            member_upword_det(d, UpWord((0, letter), (0,)))


def test_nba_membership_agrees_with_det_view():
    for seed in range(8):
        d = gen_random_dba(seed, 3, 2)
        nba = det_to_nba(d)
        for u in words_upto(2, 2):
            for v in words_upto(2, 3):
                if v:
                    w = UpWord(u, v)
                    assert member_upword_nba(nba, w) == member_upword_det(d, w)
    # only Buchi polarity has an NBA view
    with pytest.raises(AutomatonError, match="expects Buchi polarity"):
        det_to_nba(replace(d, polarity=COBUCHI))


# --------------------------------------------------------------------------
# graphs, emptiness, inclusion

def test_sccs_topological_order():
    # 0 -> 1 <-> 2, 3 isolated with self loop
    comps = sccs([[1], [2], [1], [3]])
    assert [0] in comps and sorted(comps[comps.index([0]) + 0]) == [0]
    flat = {frozenset(c) for c in comps}
    assert flat == {frozenset([0]), frozenset([1, 2]), frozenset([3])}
    assert comps.index([0]) < comps.index(sorted([1, 2]))


def test_one_pair_rabin_empty_no_acceptance():
    d = gen_fig1()
    nba = det_to_nba(DetOmega(d.ts, frozenset(), BUCHI))
    assert one_pair_rabin_empty(nba) is None


def test_one_pair_rabin_witness_is_lex_least_shortest():
    d = gen_fig1()
    witness = one_pair_rabin_empty(det_to_nba(d))
    # shortest lasso through an accepting transition: aa into the a-loop
    assert witness == UpWord((0, 0), (0,))
    assert member_upword_det(d, witness)


def test_one_pair_rabin_avoid_set():
    d = gen_fig1()
    nba = det_to_nba(d)
    avoid = frozenset({(2, 0, 2)})  # forbid the a-loop at state 2
    witness = one_pair_rabin_empty(nba, avoid)
    assert witness == UpWord((0, 1), (1,))  # ab into the b-loop


def test_nba_dba_included_positive_and_witness():
    d = gen_fig1()
    assert nba_dba_included(det_to_nba(d), d) is True
    # drop the b-loop acceptance: a.b^omega escapes the smaller language
    smaller = DetOmega(d.ts, frozenset({(2, 0)}), BUCHI)
    w = nba_dba_included(det_to_nba(d), smaller)
    assert w is not True
    assert member_upword_det(d, w) and not member_upword_det(smaller, w)


def test_nba_dba_intersection_witness():
    d = gen_fig1()
    assert nba_dba_intersection_witness(det_to_nba(d), d) is not None
    empty = DetOmega(d.ts, frozenset(), BUCHI)
    assert nba_dba_intersection_witness(det_to_nba(empty), d) is None
    # a^omega only vs a.b^omega only: disjoint
    only_a = DetOmega(d.ts, frozenset({(2, 0)}), BUCHI)
    only_ab = DetOmega(d.ts, frozenset({(3, 1)}), BUCHI)
    assert nba_dba_intersection_witness(det_to_nba(only_a), only_ab) is None
    w = nba_dba_intersection_witness(det_to_nba(only_a), d)
    assert member_upword_det(only_a, w) and member_upword_det(d, w)


def test_nba_nba_intersection_witness():
    d = gen_fig1()
    only_a = det_to_nba(DetOmega(d.ts, frozenset({(2, 0)}), BUCHI))
    only_ab = det_to_nba(DetOmega(d.ts, frozenset({(3, 1)}), BUCHI))
    assert nba_nba_intersection_witness(only_a, only_ab) is None
    w = nba_nba_intersection_witness(only_a, det_to_nba(d))
    assert w is not None
    assert member_upword_nba(only_a, w)


def test_dba_state_equiv_is_an_equivalence():
    for seed in range(6):
        d = gen_random_dba(seed, 4, 2)
        n = d.ts.state_count
        rel = {(p, q) for p in range(n) for q in range(n)
               if dba_state_equiv(d, p, q)}
        for p in range(n):
            assert (p, p) in rel
        for p, q in rel:
            assert (q, p) in rel
        for p, q in rel:
            for r in range(n):
                if (q, r) in rel:
                    assert (p, r) in rel


def test_dba_state_equiv_agrees_with_sampled_residuals():
    d = gen_fig1()
    for p in range(5):
        for q in range(5):
            if dba_state_equiv(d, p, q):
                continue
            rooted_p = DetOmega(DetTS(AB, 5, p, d.ts.delta), d.acc, BUCHI)
            rooted_q = DetOmega(DetTS(AB, 5, q, d.ts.delta), d.acc, BUCHI)
            assert any(
                member_upword_det(rooted_p, UpWord(u, v))
                != member_upword_det(rooted_q, UpWord(u, v))
                for u in words_upto(2, 3) for v in words_upto(2, 3) if v)


def test_nba_text_constraints():
    nba = Nba(AB, 2, frozenset([0]), frozenset({(0, 0, 1), (1, 1, 0)}),
              frozenset({(1, 1, 0)}))
    assert nba.state_count == 2
    with pytest.raises(AutomatonError):
        Nba(AB, 2, frozenset([0]), frozenset({(0, 0, 5)}), frozenset())


def _random_nba(rng, states):
    trans = frozenset((s, a, t) for s in range(states) for a in range(2)
                      for t in range(states) if rng.random() < 0.4)
    acc = frozenset(tr for tr in trans if rng.random() < 0.3)
    initials = frozenset(q for q in range(states) if rng.random() < 0.4)
    return Nba(AB, states, initials or frozenset([0]), trans, acc)


def test_nba_membership_agrees_with_the_naive_oracle():
    # member_upword_nba only asks whether an accepting edge of the word's
    # product lies on a cycle; the step-relation oracle must agree
    rng = random.Random(19)
    words = [UpWord(u, v) for u in words_upto(2, 3)
             for v in words_upto(2, 3) if v]
    for _ in range(60):
        a = _random_nba(rng, rng.randint(1, 6))
        assert all(member_upword_nba(a, w) == naive_nba_member(a, w)
                   for w in words)


def _engine_nbas(rng):
    nbas = [_random_nba(rng, rng.randint(1, 4)) for _ in range(24)]
    nbas += [fdfa_to_nba(build_canonical_fdfa(gen_random_dba(seed, 4, 2),
                                              LIMIT)) for seed in range(8)]
    nbas += [det_to_nba(gen_random_dba(seed, 3, 2)) for seed in range(4)]
    return nbas


def test_nba_engines_agree_with_independent_oracles():
    # A witness must lie in the stated languages, and None (or True for
    # inclusion) means no lasso u . v^omega with |u| <= 3, 1 <= |v| <= 3
    # does.  The engines return the least lasso path of a product, which can
    # be longer than the shortest omega-word, so least-ness is not checked.
    words = [UpWord(u, v) for u in words_upto(2, 3)
             for v in words_upto(2, 3) if v]

    def check(result, *langs):
        if result is None or result is True:
            assert not any(all(lang(w) for lang in langs) for w in words)
        else:
            assert all(lang(result) for lang in langs)

    rng = random.Random(8)
    nbas = _engine_nbas(rng)
    for i, a in enumerate(nbas):
        b = nbas[(i + 7) % len(nbas)]
        d = gen_random_dba(100 + i, rng.randint(1, 4), 2)
        in_a = functools.cache(functools.partial(naive_nba_member, a))
        in_b = functools.cache(functools.partial(naive_nba_member, b))
        in_d = functools.cache(functools.partial(naive_member, d))
        assert all(member_upword_nba(a, w) == in_a(w) for w in words)
        check(one_pair_rabin_empty(a), in_a)
        check(nba_dba_included(a, d), in_a, lambda w: not in_d(w))
        check(nba_dba_intersection_witness(a, d), in_a, in_d)
        check(nba_nba_intersection_witness(a, b), in_a, in_b)


def _targets(a, q, letter):
    return sorted(t for s, x, t in a.trans if (s, x) == (q, letter))


def _tuple_keyed_product(roots, moves):
    """The product numbered by explore over tuple-keyed states, each row
    sorted by (letter, target id): the numbering contract of _product."""
    marks = []

    def successors(p):
        marks.append(moves(p))
        return [t for _, t, _, _ in marks[-1]]

    nodes, rows = explore(roots, successors)
    return [sorted((l, i, x, y) for i, (l, _, x, y) in zip(row, edges))
            for row, edges in zip(rows, marks)], len(set(roots))


def test_integer_coded_products_match_a_tuple_keyed_reference():
    # witnesses depend on state ids and row order, so the integer-coded pair
    # and phase graphs must be the tuple-keyed graphs, row for row
    nbas = _engine_nbas(random.Random(8))
    for i, a in enumerate(nbas):
        b = nbas[(i + 7) % len(nbas)]

        def pair_moves(p):
            qa, qb = p
            return [(l, (ta, tb), (qa, l, ta) in a.acc, (qb, l, tb) in b.acc)
                    for l in range(a.alphabet.size)
                    for ta in _targets(a, qa, l) for tb in _targets(b, qb, l)]

        pairs, nroots = _tuple_keyed_product(
            [(p, q) for p in sorted(a.initials) for q in sorted(b.initials)],
            pair_moves)

        def phase_moves(p):
            q, phase = p
            return [(l, (t, (not y) if phase else x), phase and y, False)
                    for l, t, x, y in pairs[q]]

        phases, nphase_roots = _tuple_keyed_product(
            [(q, False) for q in range(nroots)], phase_moves)
        graph, roots = _pair_graph(a, b)
        assert (graph, roots) == (pairs, range(nroots))
        assert _phase_graph(graph, roots) == (phases, range(nphase_roots))


def test_product_counts_a_duplicated_root_once():
    # 0 -a-> 1 and an accepting b-loop on 1: listed twice, root 0 must not
    # make state 1 a root, whose lasso would skip the stem a
    moves = {0: [(0, 1, False, False)], 1: [(1, 1, True, False)]}
    graph, roots = _product([0, 0], moves.__getitem__)
    assert list(roots) == [0]
    assert _least_lasso(graph, roots) == UpWord((0,), (1,))


def _random_graph(rng, n):
    """n states with random edges, accepting and second marks and
    self-loops, rows sorted by (letter, target), then an accepting cycle
    between two more states that nothing reaches."""
    graph = [sorted((l, t, rng.random() < 0.4, rng.random() < 0.25)
                    for l in range(rng.randint(1, 3)) for t in range(n)
                    if rng.random() < 0.35)
             for _ in range(n)]
    return graph + [[(0, n + 1, True, False)], [(1, n, False, False)]]


def _oracle_checked_lasso(graph, roots):
    """_least_lasso of the graph, once the oracle has confirmed its total
    and stem length and the lasso has been replayed on the graph."""
    lasso = _least_lasso(graph, roots)
    if lasso is None:
        assert least_lasso_measure(graph, roots) is None
    else:
        assert least_lasso_measure(graph, roots) \
            == (len(lasso.prefix) + len(lasso.period), len(lasso.prefix))
        assert is_lasso_run(graph, roots, lasso.prefix, lasso.period)
    return lasso


def test_least_lasso_matches_the_lasso_oracle_on_random_graphs():
    rng = random.Random(23)
    found = empty = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        graph = _random_graph(rng, n)
        roots = rng.choices(range(n), k=rng.randint(1, 3))  # duplicates too
        lasso = _oracle_checked_lasso(graph, roots)
        found += lasso is not None
        empty += lasso is None
    assert found > 100 and empty > 100


def test_least_lasso_loop_search_leaves_the_scc_without_changing_words():
    # the candidate 2 -a-> 1: from 1, state 3 lies outside the unmarked SCC
    # {1, 2, 5} (it reaches 2 only by the second-marked 3 -b-> 2) and is
    # dequeued before 5, so the loop's word from 1 to 2 is ba, not ab
    f = False
    graph = [[(0, 1, f, f)],
             [(0, 3, f, f), (1, 5, f, f)],
             [(0, 1, True, f)],
             [(0, 4, f, f), (1, 2, f, True)],
             [(0, 4, f, f)],
             [(0, 2, f, f)]]
    lasso = _oracle_checked_lasso(graph, [0])
    assert lasso == UpWord((0, 0, 1), (0, 1, 0))


def test_least_lasso_searches_a_later_group_of_equal_bound():
    # loop entry 2 (stem aa, self-loop a) and loop entry 4 (stem b, loop aa)
    # both have total 3; entry 4 comes later in row order and wins on its
    # shorter stem
    f = False
    graph = [[(0, 1, f, f), (1, 3, f, f)],
             [(0, 2, f, f)],
             [(0, 2, True, f)],
             [(0, 4, True, f)],
             [(0, 3, f, f)]]
    lasso = _oracle_checked_lasso(graph, [0])
    assert lasso == UpWord((1,), (0, 0))


def test_least_lasso_loops_begin_with_their_accepting_edge():
    # 0 -a-> 1 -a-> 2 and an accepting 2 -a-> 1: stem a with loop aa is
    # shorter, but takes the accepting edge second
    f = False
    graph = [[(0, 1, f, f)], [(0, 2, f, f)], [(0, 1, True, f)]]
    assert _oracle_checked_lasso(graph, [0]) == UpWord((0, 0), (0, 0))


def test_least_lasso_matches_the_lasso_oracle_on_engine_products():
    nbas = _engine_nbas(random.Random(8))
    for i, a in enumerate(nbas):
        for b in (nbas[(i + 7) % len(nbas)], det_to_nba(gen_fig1()),
                  det_to_nba(gen_random_dba(100 + i, 3, 2))):
            if a.alphabet != b.alphabet:
                continue
            for graph, roots in (_pair_graph(a, b),
                                 _phase_graph(*_pair_graph(a, b))):
                _oracle_checked_lasso(graph, roots)


def test_sorted_product_rows_pin_an_intersection_witness():
    # the least lasso reads each row in (letter, target id) order; in the
    # order moves lists the edges this pair's witness is b (bab)^omega
    rng = random.Random(761)
    a = _random_nba(rng, rng.randint(2, 6))
    b = _random_nba(rng, rng.randint(2, 6))
    assert nba_nba_intersection_witness(a, b) == UpWord((1,), (1, 0, 0))
