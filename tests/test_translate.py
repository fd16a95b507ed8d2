"""Tests for the FDFA-to-NBA/LDBA/DBA translations: exact language equality
against the reference DBA, structural limit-determinism, and size bounds."""

import pytest

from omega_fdfa import (
    AutomatonError,
    DetTS,
    Dfa,
    FLAVORS,
    Fdfa,
    LIMIT,
    RECURRENT,
    SYNTACTIC,
    UpWord,
    build_canonical_fdfa,
    complement_finals,
    extract_fb,
    fdfa_to_dba,
    fdfa_to_ldba,
    fdfa_to_nba,
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
    member_upword_det,
    member_upword_nba,
    nba_dba_included,
    nba_dba_intersection_witness,
    size_report,
)
from omega_fdfa.core_automata import det_to_nba

from helpers import nested_product_nba, one_pair_rabin_empty
from oracles import words_upto

ZOO = [gen_fig1(), gen_sigma_star_aa(), gen_ln(1), gen_ln(2)]


def _assert_nba_equals_dba(nba, d, bound=2):
    assert nba_dba_included(nba, d) is True
    for u in words_upto(d.ts.alphabet.size, bound):
        for v in words_upto(d.ts.alphabet.size, bound):
            if v:
                w = UpWord(u, v)
                assert member_upword_nba(nba, w) == member_upword_det(d, w)


def test_nba_language_equals_reference():
    for d in ZOO:
        for flavor in FLAVORS:
            f = build_canonical_fdfa(d, flavor)
            _assert_nba_equals_dba(fdfa_to_nba(f), d)


def test_nba_complement_disjoint_from_reference():
    for d in ZOO:
        f = build_canonical_fdfa(d, LIMIT)
        comp = fdfa_to_nba(complement_finals(f))
        assert nba_dba_intersection_witness(comp, d) is None


def test_finals_free_fdfa_gives_empty_nba():
    from omega_fdfa.core_automata import Alphabet
    leading = DetTS(Alphabet(("a", "b")), 1, 0, ((0, 0),))
    p = Dfa(DetTS(Alphabet(("a", "b")), 1, 0, ((0, 0),)), frozenset())
    nba = fdfa_to_nba(Fdfa(leading, (p,)))
    assert one_pair_rabin_empty(nba) is None


def test_nba_state_bound():
    # with n leading states and progress DFAs of at most k states the NBA
    # stays within n + n^2 k^3 states
    for d in ZOO + [gen_ln(3)]:
        for flavor in FLAVORS:
            f = build_canonical_fdfa(d, flavor)
            report = size_report(f)
            n, k = report.leading, max(report.progress)
            assert fdfa_to_nba(f).state_count <= n + n * n * k ** 3


def test_ldba_language_and_shape():
    for d in ZOO:
        f = build_canonical_fdfa(d, LIMIT)
        ldba = fdfa_to_ldba(f)
        assert nba_dba_included(ldba.nba, d) is True
        for u in words_upto(d.ts.alphabet.size, 2):
            for v in words_upto(d.ts.alphabet.size, 2):
                if v:
                    w = UpWord(u, v)
                    assert member_upword_nba(ldba.nba, w) \
                        == member_upword_det(d, w)
        # determinism outside the jump sources, acceptance inside components
        outgoing = {}
        for s, a, t in ldba.nba.trans:
            if s not in ldba.jump_sources:
                outgoing.setdefault((s, a), set()).add(t)
        assert all(len(ts) == 1 for ts in outgoing.values())
        for s, a, t in ldba.nba.acc:
            assert s not in ldba.jump_sources


def test_dba_round_trip_equals_reference(escape_dba):
    # every family fdfa_to_dba accepts gives the reference's language both
    # ways; syntactic and recurrent families are refused outright
    translated = 0
    for d in ZOO + [escape_dba]:
        for flavor in FLAVORS:
            f = build_canonical_fdfa(d, flavor)
            if flavor in (SYNTACTIC, RECURRENT):
                with pytest.raises(AutomatonError, match="unsound"):
                    fdfa_to_dba(f)
                continue
            for family in (f, extract_fb(f)) if flavor == LIMIT else (f,):
                try:
                    dba = fdfa_to_dba(family)
                except AutomatonError:
                    continue  # not sink-final-only
                translated += 1
                assert nba_dba_included(det_to_nba(dba), d) is True
                assert nba_dba_included(det_to_nba(d), dba) is True
    assert translated > len(ZOO) + 1


def test_dba_requires_sink_final_only():
    f = gen_fig5_fdfa()  # finals {max-2, max-4}; max-2 is not a sink
    with pytest.raises(AutomatonError):
        fdfa_to_dba(f)
    # but the sink-final variant is fine and misses 2^omega
    dba = fdfa_to_dba(extract_fb(f))
    assert not member_upword_det(dba, UpWord((), (1,)))


def test_nba_accepts_fig5_patterns():
    f = gen_fig5_fdfa()
    nba = fdfa_to_nba(f)
    assert member_upword_nba(nba, UpWord((), (1,)))       # 2^omega
    assert member_upword_nba(nba, UpWord((), (0, 3)))     # (14)^omega
    assert not member_upword_nba(nba, UpWord((), (2,)))   # 3^omega
    assert not member_upword_nba(nba, UpWord((3,), (2,)))  # 4.3^omega


def _parity_families():
    """The zoo and fig5, and seeded random DBAs, in every flavor, with their
    complements and (for limit families with sink finals) their F_b
    restrictions."""
    refs = ZOO + [gen_ln(3)] + [gen_random_dba(seed, 2 + seed % 5,
                                               1 + seed % 2)
                                for seed in range(60)]
    yield gen_fig5_fdfa()
    for d in refs:
        for flavor in FLAVORS:
            yield build_canonical_fdfa(d, flavor)


def test_one_walk_components_equal_nested_products():
    # the one-walk period recognizers number every state as the former
    # nested DFA products did, so both translations are unchanged
    checked = 0
    for f in _parity_families():
        family = [f, complement_finals(f)]
        try:
            family.append(extract_fb(f))
        except AutomatonError:
            pass  # not limit, or a progress DFA without a sink final
        for g in family:
            assert fdfa_to_nba(g) == nested_product_nba(g, True)
            ldba = fdfa_to_ldba(g)
            assert ldba.nba == nested_product_nba(g, False)
            assert ldba.jump_sources == frozenset(
                range(g.leading.state_count))
            checked += 1
    assert checked > 400
