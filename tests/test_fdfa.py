"""Tests for FDFA structure, acceptance semantics, normalization, the
saturation check, sink-final analysis, final-set surgery, and leading-DFA
isomorphism."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from omega_fdfa import (
    Alphabet,
    AutomatonError,
    DbaTeacher,
    DetTS,
    Dfa,
    FLAVORS,
    Fdfa,
    LIMIT,
    SinkFinalMissing,
    UpWord,
    accepts_decomposition,
    accepts_upword,
    build_canonical_fdfa,
    complement_finals,
    extract_fb,
    gen_fig1,
    gen_random_dba,
    gen_sigma_star_aa,
    member_upword_det,
    normalize,
    run_word,
    saturation_witness,
    sink_final_state,
    size_report,
)
from omega_fdfa.congruence import PROFILE_CAP
from omega_fdfa.fdfa import accepts_from, leading_isomorphic

from helpers import eq_hypotheses, split_leading_state
from oracles import saturation_pair_upto, words_upto

AB = Alphabet(("a", "b"))


def up(u, v):
    return UpWord(AB.parse_word(u), AB.parse_word(v))


@pytest.fixture
def fig1_limit(fig1):
    return build_canonical_fdfa(fig1, LIMIT)


def test_fdfa_shape_validation():
    leading = DetTS(AB, 2, 0, ((0, 1), (1, 0)))
    p = Dfa(DetTS(AB, 1, 0, ((0, 0),)), frozenset())
    with pytest.raises(AutomatonError):
        Fdfa(leading, (p,))  # one progress DFA missing
    with pytest.raises(AutomatonError):
        Fdfa(leading, (p, p), flavor="bogus")
    other = Dfa(DetTS(Alphabet(("x", "y")), 1, 0, ((0, 0),)), frozenset())
    with pytest.raises(AutomatonError):
        Fdfa(leading, (p, other))


def test_normalize_pins(fig1_limit):
    f = fig1_limit
    assert normalize(f, up("", "ab")) == up("abab", "ab")
    assert normalize(f, up("a", "a")) == up("aa", "a")
    assert normalize(f, up("aa", "b")) == up("aab", "b")


def test_normalize_is_normalized_and_idempotent(fig1_limit):
    f = fig1_limit
    m = f.leading
    for u in words_upto(2, 3):
        for v in words_upto(2, 3):
            if not v:
                continue
            w = normalize(f, UpWord(u, v))
            state = m.initial
            for a in w.prefix:
                state = m.delta[state][a]
            after = state
            for a in w.period:
                after = m.delta[after][a]
            assert after == state
            assert normalize(f, w) == w


def test_accepts_decomposition_vs_upword(fig1_limit):
    f = fig1_limit
    # (a, b) denotes a.b^omega (a member) but is not normalized
    assert not accepts_decomposition(f, up("a", "b"))
    assert accepts_upword(f, up("a", "b"))
    assert accepts_decomposition(f, up("aa", "a"))
    assert not accepts_upword(f, up("aa", "b"))


def test_accepts_upword_matches_reference(fig1, fig1_limit):
    for u in words_upto(2, 3):
        for v in words_upto(2, 3):
            if v:
                w = UpWord(u, v)
                assert accepts_upword(fig1_limit, w) \
                    == member_upword_det(fig1, w)


def _parity_family(k: int) -> Fdfa:
    """The limit FDFA of "the maximal letter occurring infinitely often is
    even" over the letters 1..k, as gen_fig5_fdfa builds it for k = 4: one
    leading state, and a progress DFA that tracks the maximal letter seen."""
    alphabet = Alphabet(tuple(str(a) for a in range(1, k + 1)))
    delta = tuple(tuple(max(m, a) for a in range(k)) for m in range(k))
    progress = Dfa(DetTS(alphabet, k, 0, delta),
                   frozenset(range(1, k, 2)))
    return Fdfa(DetTS(alphabet, 1, 0, (tuple([0] * k),)), (progress,),
                flavor=LIMIT)


def _verdict_families():
    """The four flavors of three DBAs, the learner's hypotheses for fig1 and
    for a target it learns wrongly, and parity families, each with its
    complement."""
    families = [_parity_family(k) for k in (2, 3, 4)]
    for d in (gen_fig1(), gen_sigma_star_aa(), gen_random_dba(4, 4, 3)):
        families += [build_canonical_fdfa(d, flavor) for flavor in FLAVORS]
    for d in (gen_fig1(), gen_random_dba(6, 5, 3)):
        families += eq_hypotheses(DbaTeacher(d))
    for f in families:
        yield f
        yield complement_finals(f)


def test_accepts_from_is_the_normalized_decomposition():
    # the verdict from the leading state that u reaches is the verdict of
    # u . v^omega's normalized decomposition
    checked = 0
    for f in _verdict_families():
        m = f.leading
        words = words_upto(m.alphabet.size, 4)
        for u in words_upto(m.alphabet.size, 3):
            q = run_word(m, m.initial, u)
            for v in words[1:]:
                assert accepts_from(f, q, v) == accepts_decomposition(
                    f, normalize(f, UpWord(u, v))), (f, u, v)
                checked += 1
    assert checked > 100_000


def test_saturation_witness_none_on_canonical(fig1_limit):
    assert saturation_witness(fig1_limit, PROFILE_CAP) is None


def test_saturation_witness_reports_fb_disagreement(saa):
    fb = extract_fb(build_canonical_fdfa(saa, LIMIT))
    pair = saturation_witness(fb, PROFILE_CAP)
    assert pair is not None
    accepted, rejected = pair
    # (eps, aa) is accepted while (eps, a) — the same omega-word — is not
    assert accepted == up("", "aa")
    assert rejected == up("", "a")
    assert accepts_decomposition(fb, accepted)
    assert not accepts_decomposition(fb, rejected)


def _random_fdfa(rng: random.Random) -> Fdfa:
    """1-4 leading states, 1-3 letters, and 1-3 states per progress DFA,
    with uniform transitions and finals."""
    k, n = rng.randint(1, 3), rng.randint(1, 4)
    alphabet = Alphabet(tuple("abc"[:k]))

    def ts(count: int) -> DetTS:
        return DetTS(alphabet, count, 0, tuple([
            tuple([rng.randrange(count) for _ in range(k)])
            for _ in range(count)]))

    progress = []
    for _ in range(n):
        c = rng.randint(1, 3)
        progress.append(Dfa(ts(c), frozenset(
            s for s in range(c) if rng.random() < 0.5)))
    return Fdfa(ts(n), tuple(progress))


def _same_omega_word(a: UpWord, b: UpWord) -> bool:
    """Past both prefixes both words repeat with period |a.v| * |b.v|, so
    they are equal iff they agree up to there and one such period on."""
    n = max(len(a.prefix), len(b.prefix)) + len(a.period) * len(b.period)
    return (a.prefix + a.period * n)[:n] == (b.prefix + b.period * n)[:n]


def test_saturation_witness_agrees_with_a_bounded_scan():
    """On seeded random FDFAs the exact check finds a witness exactly when
    a brute-force scan of the decompositions within bound 4 does.  Each
    witness is two returning decompositions of one omega-word that the
    family judges unlike, with one prefix (P) or prefixes one letter apart
    (R)."""
    rng = random.Random(0)
    kinds = Counter()
    for _ in range(600):
        f = _random_fdfa(rng)
        pair = saturation_witness(f, PROFILE_CAP)
        assert (pair is None) == (saturation_pair_upto(f, 4) is None), f
        if pair is None:
            kinds[None] += 1
            continue
        accepted, rejected = pair
        assert _same_omega_word(accepted, rejected)
        assert normalize(f, accepted) == accepted
        assert normalize(f, rejected) == rejected
        assert accepts_decomposition(f, accepted)
        assert not accepts_decomposition(f, rejected)
        kinds["P" if accepted.prefix == rejected.prefix else "R"] += 1
    assert kinds == {None: 289, "P": 113, "R": 198}


def test_sink_final_state():
    p = Dfa(DetTS(AB, 3, 0, ((1, 2), (1, 1), (2, 2))), frozenset([1]))
    assert sink_final_state(p) == 1
    assert sink_final_state(replace(p, finals=frozenset([0]))) is None
    assert sink_final_state(replace(p, finals=frozenset())) is None


def test_extract_fb(fig1_limit):
    fb = extract_fb(fig1_limit)
    for p, q in zip(fb.progress, fig1_limit.progress):
        assert p.ts == q.ts
        if q.finals:
            assert len(p.finals) == 1
            assert sink_final_state(p) is not None
    # a progress DFA with finals but no sink final state
    leading = DetTS(AB, 1, 0, ((0, 0),))
    toggling = Dfa(DetTS(AB, 2, 0, ((1, 1), (0, 0))), frozenset([1]))
    broken = Fdfa(leading, (toggling,), flavor=LIMIT)
    with pytest.raises(SinkFinalMissing):
        extract_fb(broken)


def test_extract_fb_requires_limit_flavor(fig1):
    from omega_fdfa import RECURRENT
    with pytest.raises(AutomatonError):
        extract_fb(build_canonical_fdfa(fig1, RECURRENT))


def test_complement_finals_is_involutive(fig1_limit):
    assert complement_finals(complement_finals(fig1_limit)) == fig1_limit


def test_complement_finals_complements_acceptance(fig1, fig1_limit):
    comp = complement_finals(fig1_limit)
    for u in words_upto(2, 2):
        for v in words_upto(2, 3):
            if v:
                w = UpWord(u, v)
                assert accepts_upword(comp, w) != member_upword_det(fig1, w)


def test_size_report(fig1_limit):
    report = size_report(fig1_limit)
    assert report.leading == 5
    assert report.progress == (2, 2, 1, 2, 2)
    assert report.total == 14


def test_leading_isomorphic(fig1_limit):
    f, m = fig1_limit, fig1_limit.leading
    n = m.state_count
    reversed_ = Fdfa(DetTS(m.alphabet, n, n - 1 - m.initial, tuple(
        tuple(n - 1 - t for t in m.delta[n - 1 - q]) for q in range(n))),
        f.progress[::-1])
    assert leading_isomorphic(f, reversed_)
    assert leading_isomorphic(f, complement_finals(f))  # progress is ignored
    # leading state 2 is also reached from state 4, so the split adds one
    assert m.delta[0][1] == m.delta[4][0] == 2
    assert not leading_isomorphic(f, split_leading_state(f, 0, 1))
    loop = Dfa(DetTS(AB, 1, 0, ((0, 0),)), frozenset())
    one = Fdfa(DetTS(AB, 1, 0, ((0, 0),)), (loop,))
    two = Fdfa(DetTS(AB, 2, 0, ((1, 1), (0, 0))), (loop, loop))
    # both of two's states map onto one's only state, consistently
    assert not leading_isomorphic(two, one)
    assert not leading_isomorphic(one, two)
    a = Alphabet(("a",))
    one_letter = Fdfa(DetTS(a, 1, 0, ((0,),)),
                      (Dfa(DetTS(a, 1, 0, ((0,),)), frozenset()),))
    assert not leading_isomorphic(one, one_letter)
