"""Tests for the FDFA-to-NBA/LDBA/DBA translations: exact language equality
against the reference DBA, structural limit-determinism, and size bounds."""

import pytest

from omega_fdfa import (
    AutomatonError,
    DbaTeacher,
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
from omega_fdfa.core_automata import det_to_nba, explore

from helpers import (
    eq_hypotheses,
    nested_product_nba,
    one_pair_rabin_empty,
    trim_useless,
)
from oracles import naive_nba_member, words_upto

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


def _learned_hypotheses():
    """The hypotheses the learner's equivalence queries receive for fig1 and
    for the five targets it learns wrongly, with their complements."""
    targets = [gen_fig1()] + [gen_random_dba(s, 5, 3) for s in (6, 16, 21)] \
        + [gen_random_dba(s, 6, 2) for s in (19, 22)]
    for d in targets:
        for h in eq_hypotheses(DbaTeacher(d)):
            yield h
            yield complement_finals(h)


def _assembly_cases():
    """The parity families with their complements and F_b restrictions, then
    the learner's hypotheses with their complements."""
    for f in _parity_families():
        yield f
        yield complement_finals(f)
        try:
            yield extract_fb(f)
        except AutomatonError:
            pass  # not limit, or a progress DFA without a sink final
    yield from _learned_hypotheses()


def _walk_shapes(g):
    """(components left out, leading states whose components' walks share a
    triple), each component walked on its own from (q, init, f)."""
    skipped = shared = 0
    lead = g.leading.delta
    for q, p in enumerate(g.progress):
        prog = p.ts.delta
        walks = []
        for fstate in sorted(p.finals):
            triples, rows = explore(
                [(q, p.ts.initial, fstate)],
                lambda x: zip(lead[x[0]], prog[x[1]], prog[x[2]]))
            final = (q, fstate, fstate)
            skipped += not any(triples[t] == final for row in rows for t in row)
            walks.append(set(triples))
        shared += any(a & b for i, a in enumerate(walks) for b in walks[:i])
    return skipped, shared


def test_one_walk_components_equal_nested_products():
    # the one-walk period recognizers, trimmed to useful states, number
    # every state as the former nested DFA products do once their useless
    # component states are removed: those that take no accepting edge, and
    # in the LDBA those that no initial state reaches
    checked = skipped = shared = 0
    for g in _assembly_cases():
        lead = g.leading.state_count
        assert fdfa_to_nba(g) == trim_useless(nested_product_nba(g, True), lead)
        ldba = fdfa_to_ldba(g)
        assert ldba.nba == trim_useless(nested_product_nba(g, False), lead)
        assert ldba.jump_sources == frozenset(range(lead))
        checked += 1
        skips, shares = _walk_shapes(g)
        skipped += skips
        shared += shares
    assert checked > 800
    # the cases leave components out and share triples between the walks of
    # one leading state's components
    assert skipped > 0 and shared > 0


def _omega_words(nletters, bound):
    """One UpWord u . v^omega for each omega-word with such a lasso, |u| +
    |v| <= bound: v is cut to its primitive root and u's last letters are
    rotated into v, which leaves the word unchanged."""
    out = set()
    for u in words_upto(nletters, bound - 1):
        for v in words_upto(nletters, bound - len(u)):
            if not v:
                continue
            root = next(v[:n] for n in range(1, len(v) + 1)
                        if v[:n] * (len(v) // n) == v)
            while u and u[-1] == root[-1]:
                u, root = u[:-1], root[-1:] + root[:-1]
            out.add((u, root))
    return [UpWord(u, v) for u, v in sorted(out)]


def _reaches_acceptance(nba, s):
    """Whether a path from s takes an accepting transition, by a forward
    search."""
    seen, todo = {s}, [s]
    while todo:
        x = todo.pop()
        for tr in nba.trans:
            if tr[0] == x:
                if tr in nba.acc:
                    return True
                if tr[2] not in seen:
                    seen.add(tr[2])
                    todo.append(tr[2])
    return False


def _reached(nba):
    """The states some initial state reaches, by a forward search."""
    seen, todo = set(nba.initials), list(nba.initials)
    while todo:
        x = todo.pop()
        for s, _, t in nba.trans:
            if s == x and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def test_trimmed_components_are_useful_and_keep_the_language():
    # every component state is reached and can still take an accepting edge,
    # the LDBA's components stay deterministic, and both translations accept
    # exactly the UP-words with |u| + |v| <= 6 that the untrimmed assembly
    # accepts
    refs = [gen_fig1(), gen_sigma_star_aa(), gen_ln(1)] + [
        gen_random_dba(seed, 2 + seed % 3, 2) for seed in range(8)]
    for d in refs:
        words = _omega_words(d.ts.alphabet.size, 6)
        for flavor in FLAVORS:
            f = build_canonical_fdfa(d, flavor)
            for g in (f, complement_finals(f)):
                lead = g.leading.state_count
                nba, ldba = fdfa_to_nba(g), fdfa_to_ldba(g)
                for a, dup in ((nba, True), (ldba.nba, False)):
                    assert all(_reaches_acceptance(a, s)
                               for s in range(lead, a.state_count))
                    assert set(range(lead, a.state_count)) <= _reached(a)
                    untrimmed = nested_product_nba(g, dup)
                    for w in words:
                        assert naive_nba_member(a, w) \
                            == naive_nba_member(untrimmed, w)
                targets = {}
                for s, letter, t in ldba.nba.trans:
                    if s not in ldba.jump_sources:
                        targets.setdefault((s, letter), set()).add(t)
                assert all(len(ts) == 1 for ts in targets.values())
