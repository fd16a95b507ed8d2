"""Property-based tests over randomly generated automata and words."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from omega_fdfa import (
    Alphabet,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
    LIMIT,
    UpWord,
    accepts_upword,
    build_canonical_fdfa,
    dfa_lang_equal,
    dfa_minimize,
    member_upword_det,
    normalize,
    run_word,
)
from omega_fdfa.core_automata import dba_state_equiv

from helpers import canonical_dfa
from oracles import naive_member, words_upto


@st.composite
def det_ts(draw, max_states=4, max_letters=3):
    nletters = draw(st.integers(1, max_letters))
    n = draw(st.integers(1, max_states))
    alphabet = Alphabet(tuple(chr(ord("a") + i) for i in range(nletters)))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(nletters))
        for _ in range(n))
    return DetTS(alphabet, n, 0, delta)


@st.composite
def dbas(draw, max_states=4, max_letters=2):
    ts = draw(det_ts(max_states, max_letters))
    acc = frozenset(
        (s, a)
        for s in range(ts.state_count) for a in range(ts.alphabet.size)
        if draw(st.booleans()))
    return DetOmega(ts, acc, BUCHI)


@st.composite
def dfas(draw, max_states=5, max_letters=2):
    ts = draw(det_ts(max_states, max_letters))
    finals = frozenset(s for s in range(ts.state_count) if draw(st.booleans()))
    return Dfa(ts, finals)


def word_for(ts, min_size=0, max_size=6):
    return st.lists(st.integers(0, ts.alphabet.size - 1),
                    min_size=min_size, max_size=max_size).map(tuple)


@given(det_ts(), st.data())
def test_run_word_composes(ts, data):
    x = data.draw(word_for(ts))
    y = data.draw(word_for(ts))
    s = data.draw(st.integers(0, ts.state_count - 1))
    assert run_word(ts, s, x + y) == run_word(ts, run_word(ts, s, x), y)


@given(dbas(), st.data())
def test_membership_matches_naive_simulation(d, data):
    u = data.draw(word_for(d.ts))
    v = data.draw(word_for(d.ts, min_size=1))
    w = UpWord(u, v)
    assert member_upword_det(d, w) == naive_member(d, w)


@given(dbas(), st.data())
def test_membership_is_decomposition_invariant(d, data):
    u = data.draw(word_for(d.ts, max_size=4))
    v = data.draw(word_for(d.ts, min_size=1, max_size=4))
    k = data.draw(st.integers(1, 3))
    j = data.draw(st.integers(0, len(v) - 1))
    base = member_upword_det(d, UpWord(u, v))
    assert member_upword_det(d, UpWord(u, v * k)) == base
    rotated = UpWord(u + v[:j], v[j:] + v[:j])
    assert member_upword_det(d, rotated) == base


@given(dfas())
def test_minimize_preserves_language(a):
    small = dfa_minimize(a)
    assert dfa_lang_equal(small, a)
    assert small.ts.state_count <= a.ts.state_count
    assert dfa_minimize(small).ts.state_count == small.ts.state_count


@given(dfas())
def test_minimize_states_are_pairwise_distinguishable(a):
    small = dfa_minimize(a)
    n = small.ts.state_count
    for p in range(n):
        for q in range(p + 1, n):
            rp = Dfa(replace(small.ts, initial=p), small.finals)
            rq = Dfa(replace(small.ts, initial=q), small.finals)
            assert not dfa_lang_equal(rp, rq)


@given(dfas())
def test_canonical_dfa_is_stable(a):
    c = canonical_dfa(a)
    assert canonical_dfa(c) == c
    assert dfa_lang_equal(c, a)


@given(dbas(), st.data())
def test_dba_state_equiv_respects_membership(d, data):
    p = data.draw(st.integers(0, d.ts.state_count - 1))
    q = data.draw(st.integers(0, d.ts.state_count - 1))
    if dba_state_equiv(d, p, q):
        u = data.draw(word_for(d.ts, max_size=3))
        v = data.draw(word_for(d.ts, min_size=1, max_size=3))
        w = UpWord(u, v)
        rooted_p = replace(d, ts=replace(d.ts, initial=p))
        rooted_q = replace(d, ts=replace(d.ts, initial=q))
        assert member_upword_det(rooted_p, w) == member_upword_det(rooted_q, w)


@settings(max_examples=25, deadline=None)
@given(dbas(max_states=3, max_letters=2), st.data())
def test_canonical_fdfa_accepts_exactly_the_language(d, data):
    f = build_canonical_fdfa(d, LIMIT)
    u = data.draw(word_for(d.ts, max_size=4))
    v = data.draw(word_for(d.ts, min_size=1, max_size=4))
    w = UpWord(u, v)
    assert accepts_upword(f, w) == member_upword_det(d, w)
    # acceptance is invariant under re-decomposition of the same word
    assert accepts_upword(f, UpWord(u + v, v)) == member_upword_det(d, w)
    assert accepts_upword(f, UpWord(u, v + v)) == member_upword_det(d, w)


@settings(max_examples=25, deadline=None)
@given(dbas(max_states=3, max_letters=2), st.data())
def test_normalize_denotes_the_same_word(d, data):
    f = build_canonical_fdfa(d, LIMIT)
    u = data.draw(word_for(d.ts, max_size=4))
    v = data.draw(word_for(d.ts, min_size=1, max_size=4))
    w = normalize(f, UpWord(u, v))
    # (prefix, period) extends (u, v^k) for some pumping: same omega-word
    assert w.prefix + w.period == (u + v * 20)[: len(w.prefix + w.period)]
    assert len(w.prefix) >= len(u)
    assert (len(w.prefix) - len(u)) % len(v) == 0
    assert w.period == (v * 20)[: len(w.period)]  # rotation-free pumping
    assert member_upword_det(d, w) == member_upword_det(d, UpWord(u, v))
