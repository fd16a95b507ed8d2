"""Tests for the leading quotient, the four progress DFAs and the co-safety
cross-check, validated against the brute-force congruence oracle."""

import random
from dataclasses import fields, replace

import pytest

import omega_fdfa.congruence as congruence
import omega_fdfa.core_automata as core_automata
from omega_fdfa import (
    AutomatonError,
    BUCHI,
    COBUCHI,
    DetOmega,
    DetTS,
    Dfa,
    FLAVORS,
    LIMIT,
    PERIODIC,
    RECURRENT,
    ResourceLimitError,
    SYNTACTIC,
    UpWord,
    build_canonical_fdfa,
    compute_leading,
    cu_dfa,
    dfa_lang_equal,
    dfa_minimize,
    dfa_product,
    gen_fig1,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
    member_upword_det,
    periodic_lang_dfa,
    progress_dfa,
    run_word,
    size_report,
)
from omega_fdfa.core_automata import dba_equiv_table, dba_state_equiv
from omega_fdfa.fdfa import sink_final_state

from helpers import cosafety_vu_dfa, counter_with_resets, moore_quotient
from oracles import (
    access_words,
    flavor_predicate,
    limit_finals,
    partitions_match,
    words_upto,
)


def test_leading_fig1_has_five_classes(fig1):
    lq = compute_leading(fig1)
    assert lq.leading.state_count == 5
    # fig1 is already minimal, so classes mirror states up to renaming
    assert sorted(lq.class_of) == [0, 1, 2, 3, 4]
    # classes are numbered in BFS order, so the b-sink precedes aa and ab
    assert lq.rep_words == ((), (0,), (1,), (0, 0), (0, 1))


def test_leading_merges_equivalent_states():
    fig1 = gen_fig1()
    # duplicate the sink: 6 states, same language
    delta = tuple(tuple(t for t in row) for row in fig1.ts.delta) + ((5, 5),)
    delta = tuple(row if i != 4 else (5, 5) for i, row in enumerate(delta))
    bloated = DetOmega(replace(fig1.ts, state_count=6, delta=delta),
                       fig1.acc, fig1.polarity)
    lq = compute_leading(bloated)
    assert lq.leading.state_count == 5
    assert lq.class_of[4] == lq.class_of[5]


def test_leading_one_class(saa):
    lq = compute_leading(saa)
    assert lq.leading.state_count == 1
    assert lq.rep_words == ((),)


def test_leading_requires_buchi(fig1):
    with pytest.raises(AutomatonError):
        compute_leading(DetOmega(fig1.ts, fig1.acc, COBUCHI))


def test_leading_refuses_a_table_that_is_no_right_congruence(fig1,
                                                              monkeypatch):
    # states 1 and 4 said equivalent, though letter a leads them to the
    # inequivalent states 2 and 4: the refinement splits them apart again
    table = congruence.dba_equiv_table

    def merged(d, states):
        equiv = table(d, states)
        equiv[1][4] = equiv[4][1] = True
        return equiv

    monkeypatch.setattr(congruence, "dba_equiv_table", merged)
    with pytest.raises(AutomatonError, match="not well-defined"):
        compute_leading(fig1)


def test_leading_ln_counts():
    for n in (1, 2, 3, 4):
        lq = compute_leading(gen_ln(n))
        assert lq.leading.state_count == n + 2
        # every reference state sits in its own class
        assert sorted(lq.class_of) == list(range(n + 2))


def test_periodic_lang_dfa_matches_membership(fig1):
    lq = compute_leading(fig1)
    for c in range(lq.leading.state_count):
        per = periodic_lang_dfa(lq, c)
        rep = lq.reps[c]
        rooted = replace(fig1, ts=replace(fig1.ts, initial=rep))
        for v in words_upto(2, 5):
            expect = bool(v) and member_upword_det(rooted, UpWord((), v))
            assert per.accepts(v) == expect


def test_periodic_lang_dfa_cap(monkeypatch):
    monkeypatch.setattr(congruence, "PROFILE_CAP", 2)
    with pytest.raises(ResourceLimitError):
        periodic_lang_dfa(compute_leading(gen_ln(3)), 0)


def _members(lq, c):
    """The reference states of leading class c, in increasing order."""
    return [s for s, k in enumerate(lq.class_of) if k == c]


def test_periodic_lang_dfa_cap_on_an_explored_monoid(monkeypatch):
    d = gen_fig1()
    size = periodic_lang_dfa(compute_leading(d), 0).ts.state_count
    assert size > 2
    lq = compute_leading(d)
    classes = range(lq.leading.state_count)
    ref = compute_leading(d)
    want = {(c, flavor): progress_dfa(ref, c, flavor)
            for c in classes for flavor in FLAVORS}
    monkeypatch.setattr(congruence, "PROFILE_CAP", size - 1)
    for c in classes:
        with pytest.raises(ResourceLimitError,
                           match=f"^profile DFA exceeded cap of {size - 1} "
                                 "states$"):
            periodic_lang_dfa(lq, c)
        with pytest.raises(ResourceLimitError,
                           match=f"^profile DFA exceeded cap of "
                                 f"{size - 1} states$"):
            progress_dfa(lq, c, PERIODIC)
    # limit, and syntactic and recurrent through it, explore only the class's
    # own monoid, which the cap bounds on its own, inclusively
    capped = 0
    for c in classes:
        local = len(congruence.transition_monoid(d, size,
                                                 _members(lq, c))[0])
        assert local < size
        monkeypatch.setattr(congruence, "PROFILE_CAP", local)
        for flavor in (LIMIT, SYNTACTIC, RECURRENT):
            assert progress_dfa(lq, c, flavor) == want[c, flavor]
        if local == 1:  # the identity alone is never refused
            continue
        capped += 1
        monkeypatch.setattr(congruence, "PROFILE_CAP", local - 1)
        for flavor in (LIMIT, SYNTACTIC, RECURRENT):
            with pytest.raises(ResourceLimitError,
                               match=f"^profile DFA exceeded cap of "
                                     f"{local - 1} states$"):
                progress_dfa(lq, c, flavor)
    assert capped == 4
    # the cap is inclusive
    monkeypatch.setattr(congruence, "PROFILE_CAP", size)
    assert periodic_lang_dfa(lq, 1).ts.state_count == size


def test_periodic_lang_dfa_uncapped_after_a_capped_failure(monkeypatch):
    lq = compute_leading(gen_fig1())
    with monkeypatch.context() as m:
        m.setattr(congruence, "PROFILE_CAP", 2)
        with pytest.raises(ResourceLimitError):
            periodic_lang_dfa(lq, 0)
        for flavor in FLAVORS:
            with pytest.raises(ResourceLimitError):
                progress_dfa(lq, 0, flavor)
    # nothing beyond the dataclass fields is kept on the refused quotient
    assert set(vars(lq)) == {f.name for f in fields(lq)}
    # the refused quotient builds once the cap allows
    fresh = compute_leading(gen_fig1())
    assert periodic_lang_dfa(lq, 0) == periodic_lang_dfa(fresh, 0)
    for flavor in FLAVORS:
        for c in range(lq.leading.state_count):
            assert progress_dfa(lq, c, flavor) == \
                progress_dfa(fresh, c, flavor), (flavor, c)


def test_cached_work_stays_outside_equality_hash_and_repr():
    d = gen_fig1()
    lq = compute_leading(d)
    for flavor in FLAVORS:
        for c in range(lq.leading.state_count):
            progress_dfa(lq, c, flavor)
    assert set(vars(lq)) > {f.name for f in fields(lq)}
    fresh = compute_leading(d)
    assert lq == fresh
    assert hash(lq) == hash(fresh)
    assert repr(lq) == repr(fresh)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_profile_monoid_explored_once_per_construction(monkeypatch,
                                                       flavor):
    calls = []
    transition_monoid = congruence.transition_monoid

    def counting(d, cap, domain=None):
        calls.append(domain)
        return transition_monoid(d, cap, domain)

    monkeypatch.setattr(congruence, "transition_monoid", counting)
    d = gen_fig1()
    lq = compute_leading(d)
    assert lq.leading.state_count == 5
    build_canonical_fdfa(d, flavor)
    # periodic explores the whole monoid once; limit, and syntactic and
    # recurrent through it, explore one class-local monoid per leading class
    once = [None] if flavor == PERIODIC else [_members(lq, c)
                                              for c in range(5)]
    assert calls == once
    # nothing is kept from one construction to the next
    build_canonical_fdfa(d, flavor)
    assert calls == once + once


def _leading_oracle_cases():
    yield "fig1", gen_fig1()
    yield "saa", gen_sigma_star_aa()
    for n in (1, 2, 3, 4):
        yield f"ln{n}", gen_ln(n)
    for seed in range(104):
        rng = random.Random(seed)
        n, k = rng.randint(3, 12), rng.randint(2, 3)
        density = (0.3, 0.5)[seed % 2]
        yield (f"rand-{n}x{k}-s{seed}-{density}",
               gen_random_dba(seed, n, k, acc_density=density))
    for seed in range(6):
        for n in (6, 10, 14):
            for density in (0.3, 0.5):
                yield (f"counter-{n}-s{seed}-{density}",
                       counter_with_resets(seed, n, density))


def test_leading_matches_pairwise_inclusion_oracle():
    for name, d in _leading_oracle_cases():
        n = d.ts.state_count
        table = [[p == q for q in range(n)] for p in range(n)]
        for p in range(n):
            for q in range(p + 1, n):
                table[p][q] = table[q][p] = dba_state_equiv(d, p, q)
        assert dba_equiv_table(d, range(n)) == table, name
        lq = compute_leading(d)
        reachable = [s for s in range(n) if lq.class_of[s] >= 0]
        assert all((lq.class_of[p] == lq.class_of[q]) == table[p][q]
                   for p in reachable for q in reachable), name


def test_leading_pairs_only_reachable_states(monkeypatch):
    fig1 = gen_fig1()
    # 1000 unreachable copies of the sink: the pair graph stays 5 x 5
    delta = fig1.ts.delta + ((5, 5),) * 1000
    padded = DetOmega(replace(fig1.ts, state_count=1005, delta=delta),
                      fig1.acc, fig1.polarity)
    monkeypatch.setattr(congruence, "PAIR_CAP", 25)
    lq = compute_leading(padded)
    assert replace(lq, ref=fig1, class_of=lq.class_of[:5]) == \
        compute_leading(fig1)
    assert set(lq.class_of[5:]) == {-1}
    monkeypatch.setattr(congruence, "PAIR_CAP", 24)
    with pytest.raises(ResourceLimitError,
                       match="^leading congruence exceeded cap of 24 state "
                             "pairs$"):
        compute_leading(padded)


def _walked_periodic_finals(profiles, rep):
    """The profiles z with z^omega accepted from rep, one walk per profile:
    follow z from rep until a state repeats, and accept iff the repeating
    part took an accepting transition."""
    finals = set()
    for i, p in enumerate(profiles):
        seen, bits, s = {}, [], rep
        while s not in seen:
            seen[s] = len(bits)
            bits.append(p[s] & 1)
            s = p[s] >> 1
        if any(bits[seen[s]:]):
            finals.add(i)
    return finals


def _minimized_on_the_whole_monoid(lq, c, flavor):
    """Class c's progress DFA as built one class at a time: its finals picked
    on the whole profile TS, then minimized."""
    if flavor == SYNTACTIC:
        limit = _minimized_on_the_whole_monoid(lq, c, LIMIT)
        return dfa_product(cu_dfa(lq, c), limit, lambda x, y: x and y)
    per = periodic_lang_dfa(lq, c)
    # profile entry i is the i-th of the reference's reachable states
    profiles, _, states = lq._monoid
    rep = states.index(lq.reps[c])
    assert per.finals == _walked_periodic_finals(profiles, rep)
    if flavor == PERIODIC:
        return dfa_minimize(per)
    returns = frozenset(i for i, p in enumerate(profiles)
                        if lq.class_of[states[p[rep] >> 1]] == c)
    if flavor == RECURRENT:
        return dfa_minimize(congruence._epsilon_joins_accepted_returns(
            Dfa(per.ts, per.finals & returns)))
    leaves = frozenset(range(len(profiles))) - returns
    return dfa_minimize(Dfa(per.ts, per.finals | leaves))


def _exactness_cases():
    yield "fig1", gen_fig1()
    yield "saa", gen_sigma_star_aa()
    for n in (1, 2, 3, 4):
        yield f"ln{n}", gen_ln(n)
    for seed in range(24):
        rng = random.Random(seed)
        n, k = rng.randint(4, 8), rng.randint(2, 3)
        yield f"rand-{n}x{k}-s{seed}", gen_random_dba(seed, n, k)
    for seed in range(6):
        for n in (6, 10, 14):
            for density in (0.3, 0.5):
                yield (f"counter-{n}-s{seed}-{density}",
                       counter_with_resets(seed, n, density))
    # fig1 with three unreachable states whose own transitions accept, so
    # they enlarge the profile monoid but belong to no leading class
    fig1 = gen_fig1()
    delta = fig1.ts.delta + ((5, 6), (7, 5), (6, 0))
    acc = fig1.acc | {(5, 0), (6, 1), (7, 0)}
    yield "fig1-unreachable", DetOmega(
        replace(fig1.ts, state_count=8, delta=delta), acc, BUCHI)


def _agrees_with_the_brute_force_oracle(d, lq, c, flavor, got):
    """got partitions the periods of length <= 3 as the brute-force
    congruence does, and accepts the nonempty periods of length <= 5 that
    the flavor's predicate accepts (a syntactic period is accepted iff it is
    an accepted return, as a recurrent one is)."""
    if not partitions_match(d, lq, c, flavor, got, xbound=3,
                            vbounds=(4, 5, 6)):
        return False
    xs = words_upto(d.ts.alphabet.size, 5)
    accepts = flavor_predicate(d, lq, c,
                               RECURRENT if flavor == SYNTACTIC else flavor,
                               xs)
    return all(got.accepts(x) == accepts(x) for x in xs if x)


def test_shared_quotient_matches_minimizing_on_the_whole_monoid(
        monkeypatch):
    # the whole monoid above the cap is refused for periodic; limit,
    # syntactic and recurrent explore only class-local monoids, which stay
    # below it here, so their DFAs are checked against the brute-force
    # oracle instead
    monkeypatch.setattr(congruence, "PROFILE_CAP", 2500)
    refused = set()
    for name, d in _exactness_cases():
        lq, ref = compute_leading(d), compute_leading(d)
        for flavor in FLAVORS:
            for c in range(lq.leading.state_count):
                try:
                    want = _minimized_on_the_whole_monoid(ref, c, flavor)
                except ResourceLimitError:
                    refused.add(name)
                    if flavor == PERIODIC:
                        with pytest.raises(ResourceLimitError):
                            progress_dfa(lq, c, flavor)
                    else:
                        assert _agrees_with_the_brute_force_oracle(
                            d, lq, c, flavor, progress_dfa(lq, c, flavor)), \
                            (name, flavor, c)
                    continue
                assert progress_dfa(lq, c, flavor) == want, \
                    (name, flavor, c)
    assert refused == {"rand-8x3-s5", "rand-8x2-s10", "rand-7x3-s12",
                       "rand-8x3-s17"}


def test_shared_quotient_built_once_per_construction_and_flavor(
        monkeypatch):
    # the leading DFA comes from coarsest_quotient; the shared quotient and
    # every periodic and limit progress DFA refine a monoid's own rows, or
    # its quotient's, with _refine
    calls = []
    coarsest_quotient = congruence.coarsest_quotient
    refine = congruence._refine

    def counting(ts, label):
        calls.append(ts.state_count)
        return coarsest_quotient(ts, label)

    def counting_refine(alphabet, rows, labels):
        calls.append(len(rows))
        return refine(alphabet, rows, labels)

    monkeypatch.setattr(congruence, "coarsest_quotient", counting)
    monkeypatch.setattr(congruence, "_refine", counting_refine)
    # compute_leading quotients the reference once
    lq = compute_leading(gen_fig1())
    assert len(calls) == 1
    classes = range(lq.leading.state_count)
    # periodic refines the whole monoid once for every class, then each
    # class's DFA on the rows of that quotient; limit, and syntactic and
    # recurrent (products of cu_dfa with limit), refine each class-local
    # monoid once
    for flavor, built in ((PERIODIC, 7), (SYNTACTIC, 12), (LIMIT, 17),
                          (RECURRENT, 22)):
        for c in classes:
            progress_dfa(lq, c, flavor)
        assert len(calls) == built, flavor
    quotient = lq._periodic_quotient[0]
    assert calls[1] == len(lq._monoid[0])
    assert calls[2:7] == [quotient.state_count] * 5
    # every construction builds its own leading DFA, periodic its own
    # quotient, and each flavor refines once per class
    for flavor in FLAVORS:
        build_canonical_fdfa(gen_fig1(), flavor)
    assert len(calls) == 22 + 4 + 1 + 4 * 5


def test_only_the_periodic_quotient_starts_from_a_profile_dfa(monkeypatch):
    # the benchmark's traced run times the profile layer and counts cap hits
    # at congruence.periodic_lang_dfa: one call for the periodic quotient,
    # none for limit (which syntactic and recurrent build on), and a monoid
    # above the cap is refused in every flavor
    calls = []
    periodic_lang_dfa = congruence.periodic_lang_dfa

    def counting(lq, u_class):
        calls.append(u_class)
        try:
            return periodic_lang_dfa(lq, u_class)
        except ResourceLimitError:
            calls.append("refused")
            raise

    monkeypatch.setattr(congruence, "periodic_lang_dfa", counting)
    for flavor in FLAVORS:
        build_canonical_fdfa(gen_fig1(), flavor)
    assert calls == [0]
    monkeypatch.setattr(congruence, "PROFILE_CAP", 2)
    for flavor in FLAVORS:
        with pytest.raises(ResourceLimitError,
                           match="^profile DFA exceeded cap of 2 states$"):
            build_canonical_fdfa(gen_ln(3), flavor)
    assert calls[1:] == [0, "refused"]


def _with_length_counter(d: DetOmega, m: int) -> DetOmega:
    """d with the length mod m of the word read so far kept in every state:
    the same language on m times as many states."""
    ts = d.ts
    delta = tuple(tuple(t * m + (i + 1) % m for t in ts.delta[s])
                  for s in range(ts.state_count) for i in range(m))
    acc = frozenset((s * m + i, a) for s, a in d.acc for i in range(m))
    return DetOmega(DetTS(ts.alphabet, ts.state_count * m, ts.initial * m,
                          delta), acc, BUCHI)


def test_profiles_are_tuples_above_128_reachable_states():
    fig1 = gen_fig1()
    big = _with_length_counter(fig1, 43)
    profiles, _, states = congruence.transition_monoid(big, 10_000)
    assert len(states) > core_automata.BYTE_PROFILES == 128
    assert {type(p) for p in profiles} == {tuple}
    for flavor in FLAVORS:
        assert build_canonical_fdfa(big, flavor) == \
            build_canonical_fdfa(fig1, flavor), flavor


def _assert_minimized_on_rows_as_dfa_minimize(ts, finals, case):
    """Minimizing on ts's own rows gives dfa_minimize's DFA, numbering
    included, and the quotient of the former round-by-round refinement."""
    got = congruence._minimized_on_rows(ts, finals)
    assert got == dfa_minimize(Dfa(ts, finals)), case
    reps, quotient = moore_quotient(ts, finals.__contains__)
    assert got.ts == quotient, case
    assert got.finals == {b for b, s in enumerate(reps) if s in finals}, case


@pytest.mark.parametrize("byte_profiles", [128, 0])
def test_minimized_on_rows_equals_dfa_minimize(monkeypatch, byte_profiles):
    # every class-local limit monoid of the exactness cases, and every
    # class's finals on the periodic quotient where the whole monoid stays
    # below the cap, in both profile encodings
    monkeypatch.setattr(core_automata, "BYTE_PROFILES", byte_profiles)
    monkeypatch.setattr(congruence, "PROFILE_CAP", 2500)
    quotients = 0
    for name, d in _exactness_cases():
        lq = compute_leading(d)
        for c, members in enumerate(lq.members):
            monoid = congruence.transition_monoid(d, congruence.PROFILE_CAP,
                                                  members)
            _assert_minimized_on_rows_as_dfa_minimize(
                monoid[1], congruence._limit_finals(monoid, members),
                (name, LIMIT, c))
        try:
            ts, finals = lq._periodic_quotient
        except ResourceLimitError:
            continue
        quotients += 1
        for c, class_finals in enumerate(finals):
            _assert_minimized_on_rows_as_dfa_minimize(
                ts, class_finals, (name, PERIODIC, c))
    assert quotients == len(list(_exactness_cases())) - 4


@pytest.mark.parametrize("flavor", FLAVORS)
def test_profile_steps_built_once_per_reference(monkeypatch, flavor):
    calls = []
    profile_steps = core_automata.profile_steps

    def counting(ts, marks):
        calls.append(ts)
        return profile_steps(ts, marks)

    monkeypatch.setattr(core_automata, "profile_steps", counting)
    d = gen_fig1()
    # periodic walks the whole monoid and limit one class-local monoid per
    # class (syntactic and recurrent through limit), all over d's one set of
    # step lists, which outlive the construction
    build_canonical_fdfa(d, flavor)
    build_canonical_fdfa(d, flavor)
    assert calls == [d.ts]
    # an equal but distinct reference builds its own
    build_canonical_fdfa(gen_fig1(), flavor)
    assert calls == [d.ts, d.ts]


def test_shared_steps_give_the_monoids_of_a_fresh_walk(monkeypatch):
    # the step lists are integers, so one reference's lists serve both
    # encodings, which are chosen when each monoid is walked
    cap = congruence.PROFILE_CAP
    for d in (gen_fig1(), gen_ln(3), gen_random_dba(0, 7, 3),
              gen_random_dba(5, 8, 3), counter_with_resets(0, 12, 0.3)):
        lq = compute_leading(d)
        for byte_profiles, kind in ((128, bytes), (0, tuple)):
            monkeypatch.setattr(core_automata, "BYTE_PROFILES", byte_profiles)
            for domain in (None, *lq.members):
                got = congruence.transition_monoid(d, cap, domain)
                assert {type(p) for p in got[0]} == {kind}
                assert got == core_automata.transition_monoid(
                    DetOmega(d.ts, d.acc), cap, domain), (d, domain)


def test_bytes_and_tuple_profiles_number_the_monoid_alike(monkeypatch):
    cap = congruence.PROFILE_CAP
    for d in (gen_fig1(), gen_ln(3), gen_random_dba(0, 7, 3),
              gen_random_dba(5, 8, 3)):
        as_bytes = congruence.transition_monoid(d, cap)
        fdfas = [build_canonical_fdfa(d, flavor) for flavor in FLAVORS]
        monkeypatch.setattr(core_automata, "BYTE_PROFILES", 0)
        as_tuples = congruence.transition_monoid(d, cap)
        assert {type(p) for p in as_bytes[0]} == {bytes}
        assert [tuple(p) for p in as_bytes[0]] == as_tuples[0]
        assert as_bytes[1:] == as_tuples[1:]
        assert [build_canonical_fdfa(d, flavor) for flavor in FLAVORS] == fdfas
        monkeypatch.undo()


def test_profiles_cover_only_reachable_states(monkeypatch):
    fig1 = gen_fig1()
    # 99,995 unreachable states on one accepting a-cycle: over every declared
    # state the monoid would hold a profile per power of that cycle
    n = 100_000
    delta = fig1.ts.delta + tuple((s + 1 if s + 1 < n else 5, s)
                                  for s in range(5, n))
    acc = fig1.acc | {(s, 0) for s in range(5, n)}
    padded = DetOmega(replace(fig1.ts, state_count=n, delta=delta), acc,
                      BUCHI)
    profiles, ts, states = congruence.transition_monoid(padded, 100)
    assert (profiles, ts, states) == congruence.transition_monoid(fig1, 100)
    assert {len(p) for p in profiles} == {5}
    monkeypatch.setattr(congruence, "PROFILE_CAP", len(profiles))
    for flavor in FLAVORS:
        assert build_canonical_fdfa(padded, flavor) == \
            build_canonical_fdfa(fig1, flavor), flavor


def _assert_limit_finals_match_the_oracle(d, profile_type):
    lq = compute_leading(d)
    for u in range(len(lq.reps)):
        members = _members(lq, u)
        monoid = congruence.transition_monoid(d, congruence.PROFILE_CAP,
                                              members)
        profiles, ts, _ = monoid
        assert {type(p) for p in profiles} == {profile_type}
        words = access_words(ts)
        assert len(words) == len(profiles)
        # the oracle decides each class-local profile by one of its words
        want = limit_finals(d, lq, words)[u]
        assert congruence._limit_finals(monoid, members) == want, (d, u)
        # and u's limit DFA accepts exactly those words
        limit = progress_dfa(lq, u, LIMIT)
        assert frozenset(i for i, z in enumerate(words)
                         if limit.accepts(z)) == want, (d, u)


def test_limit_finals_match_the_brute_force_oracle(monkeypatch):
    for seed in range(8):
        for n in range(4, 8):
            for k in (2, 3):
                _assert_limit_finals_match_the_oracle(
                    gen_random_dba(seed, n, k), bytes)
    # the same walks over tuple profiles
    monkeypatch.setattr(core_automata, "BYTE_PROFILES", 0)
    _assert_limit_finals_match_the_oracle(gen_random_dba(3, 7, 3), tuple)


def test_recurrent_from_limit_matches_recurrent_on_the_whole_monoid():
    # recurrent_u is limit_u restricted to {v : u . v ~ u}; the recurrent DFA
    # built that way must equal the one built from the periodic finals that
    # return to u, minimized on the whole profile TS
    cases = [gen_fig1(), gen_sigma_star_aa()]
    cases += [gen_ln(n) for n in range(1, 6)]
    cases += [gen_random_dba(seed, n, k) for seed in range(15)
              for n in range(4, 8) for k in (2, 3)]
    assert len(cases) == 127
    for d in cases:
        lq, ref = compute_leading(d), compute_leading(d)
        for c in range(lq.leading.state_count):
            assert progress_dfa(lq, c, RECURRENT) == \
                _minimized_on_the_whole_monoid(ref, c, RECURRENT), (d, c)


def test_cu_dfa_language(fig1):
    lq = compute_leading(fig1)
    for c in range(lq.leading.state_count):
        cu = cu_dfa(lq, c)
        rep = lq.reps[c]
        for v in words_upto(2, 5):
            returns = lq.class_of[run_word(fig1.ts, rep, v)] == c
            assert cu.accepts(v) == returns
    with pytest.raises(AutomatonError):
        cu_dfa(lq, 9)


def test_fig1_progress_sizes(fig1):
    f = build_canonical_fdfa(fig1, LIMIT)
    assert size_report(f).progress == (2, 2, 1, 2, 2)
    assert size_report(f).total == 14


def test_ln_per_class_sizes():
    for n in (1, 2, 3):
        lq = compute_leading(gen_ln(n))
        k = lq.leading.state_count
        sink_class = next(c for c in range(k)
                          if all(lq.leading.delta[c][a] == c
                                 for a in range(n + 1)))
        for c in range(k):
            lim = progress_dfa(lq, c, LIMIT).ts.state_count
            rec = progress_dfa(lq, c, RECURRENT).ts.state_count
            if c == sink_class:
                assert lim == 1 and rec == 1
            else:
                assert lim == 2 and rec == n + 2


def test_progress_unknown_flavor(fig1):
    with pytest.raises(AutomatonError):
        progress_dfa(compute_leading(fig1), 0, "nope")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_progress_invalid_class(fig1, flavor):
    lq = compute_leading(fig1)
    for c in (-1, lq.leading.state_count):
        with pytest.raises(AutomatonError, match="invalid leading class"):
            progress_dfa(lq, c, flavor)


def test_progress_partition_matches_oracle_on_zoo():
    for d in (gen_fig1(), gen_sigma_star_aa(), gen_ln(2)):
        lq = compute_leading(d)
        for c in range(lq.leading.state_count):
            for flavor in FLAVORS:
                p = progress_dfa(lq, c, flavor)
                assert partitions_match(d, lq, c, flavor, p, xbound=4), \
                    (d.ts.state_count, c, flavor)


def test_progress_partition_matches_oracle_on_random_dbas():
    for seed in range(10):
        d = gen_random_dba(seed, 4, 2)
        lq = compute_leading(d)
        for c in range(lq.leading.state_count):
            for flavor in FLAVORS:
                p = progress_dfa(lq, c, flavor)
                assert partitions_match(d, lq, c, flavor, p), \
                    (seed, c, flavor)


def test_syntactic_is_leading_refinement_of_limit():
    # x ~syntactic y iff u.x ~ u.y and x ~limit y
    for seed in (0, 3, 5):
        d = gen_random_dba(seed, 4, 2)
        lq = compute_leading(d)
        xs = words_upto(2, 4)
        for c in range(lq.leading.state_count):
            syn = progress_dfa(lq, c, SYNTACTIC)
            lim = progress_dfa(lq, c, LIMIT)
            rep = lq.reps[c]
            for x in xs:
                for y in xs:
                    same_syn = (run_word(syn.ts, syn.ts.initial, x)
                                == run_word(syn.ts, syn.ts.initial, y))
                    same_lim = (run_word(lim.ts, lim.ts.initial, x)
                                == run_word(lim.ts, lim.ts.initial, y))
                    same_lead = (lq.class_of[run_word(d.ts, rep, x)]
                                 == lq.class_of[run_word(d.ts, rep, y)])
                    assert same_syn == (same_lead and same_lim)


def test_size_relations_hold_per_class():
    # |limit| <= |syntactic| <= |leading| * |limit|
    # and |limit| <= |leading| * |periodic|
    for seed in range(10):
        d = gen_random_dba(seed, 4, 2)
        lq = compute_leading(d)
        k = lq.leading.state_count
        for c in range(k):
            p = progress_dfa(lq, c, PERIODIC).ts.state_count
            s = progress_dfa(lq, c, SYNTACTIC).ts.state_count
            li = progress_dfa(lq, c, LIMIT).ts.state_count
            assert li <= s <= k * li
            assert li <= k * p


def test_recurrent_initial_final_iff_accepted_return_exists():
    for d in (gen_fig1(), gen_sigma_star_aa(), gen_ln(2)):
        lq = compute_leading(d)
        for c in range(lq.leading.state_count):
            rec = progress_dfa(lq, c, RECURRENT)
            rep = lq.reps[c]
            rooted = replace(d, ts=replace(d.ts, initial=rep))
            exists = any(
                lq.class_of[run_word(d.ts, rep, v)] == c
                and member_upword_det(rooted, UpWord((), v))
                for v in words_upto(d.ts.alphabet.size, 6) if v)
            assert (rec.ts.initial in rec.finals) == exists


def test_cosafety_matches_limit_sink_class():
    for d in (gen_fig1(), gen_sigma_star_aa(), gen_ln(1), gen_ln(2),
              gen_ln(3)):
        lq = compute_leading(d)
        for c in range(lq.leading.state_count):
            lim = progress_dfa(lq, c, LIMIT)
            if not lim.finals:
                continue
            sink = sink_final_state(lim)
            assert sink is not None
            assert dfa_lang_equal(cosafety_vu_dfa(lq, c),
                                  Dfa(lim.ts, frozenset([sink])))
    with pytest.raises(AutomatonError):
        cosafety_vu_dfa(compute_leading(gen_fig1()), 17)
    # rooted at state 1, fig1 cannot reach state 0, whose class_of entry is
    # -1; class -1 is still no leading class
    d = gen_fig1()
    lq = compute_leading(replace(d, ts=replace(d.ts, initial=1)))
    assert lq.class_of[0] == -1
    with pytest.raises(AutomatonError, match="invalid leading class"):
        cosafety_vu_dfa(lq, -1)


def test_build_canonical_fdfa_records_flavor(fig1):
    for flavor in FLAVORS:
        f = build_canonical_fdfa(fig1, flavor)
        assert f.flavor == flavor
        assert len(f.progress) == f.leading.state_count
        assert f.labels is not None
