"""Acceptance gate: one test per top-level criterion.  Each test prints a
single PASS line on success (pytest -v adds its own verdict per test); any
assertion failure marks the criterion failed."""

import re
import time

from omega_fdfa import (
    DbaTeacher,
    FLAVORS,
    FdfaTeacher,
    LIMIT,
    UpWord,
    accepts_upword,
    build_canonical_fdfa,
    complement_finals,
    compute_leading,
    decide_dba_recognizable,
    dfa_lang_equal,
    extract_fb,
    fdfa_to_nba,
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
    learn_limit_fdfa,
    member_upword_det,
    member_upword_nba,
    nba_dba_included,
    nba_dba_intersection_witness,
    progress_dfa,
    size_report,
)
from omega_fdfa.cli import format_automaton, main
from omega_fdfa.core_automata import Dfa
from omega_fdfa.congruence import PROFILE_CAP
from omega_fdfa.fdfa import (
    accepts_decomposition,
    saturation_witness,
    sink_final_state,
)

from helpers import cosafety_vu_dfa
from oracles import partitions_match, words_upto

ZOO_DBAS = [gen_fig1(), gen_sigma_star_aa(), gen_ln(1), gen_ln(2), gen_ln(3)]


def test_criterion_1_ln_separation(tmp_path, capsys):
    """For n = 1..8 the limit family totals 3n+5 states and the recurrent
    family n^2+4n+5, with the syntactic family at least as large, each
    canonical build finishing well under five seconds."""
    for n in range(1, 9):
        path = tmp_path / f"ln{n}.aut"
        path.write_text(format_automaton(gen_ln(n)), encoding="utf-8")
        totals = {}
        for flavor in ("limit", "recurrent", "syntactic"):
            start = time.perf_counter()
            out_path = tmp_path / f"ln{n}.{flavor}.fdfa"
            code = main(["canon", str(path), "--flavor", flavor,
                         "--out", str(out_path)])
            elapsed = time.perf_counter() - start
            assert code == 0
            line = capsys.readouterr().out.strip().splitlines()[-1]
            totals[flavor] = int(re.search(r"total=(\d+)", line).group(1))
            assert elapsed < 5.0, (n, flavor, elapsed)
        assert totals["limit"] == 3 * n + 5, (n, totals)
        assert totals["recurrent"] == n * n + 4 * n + 5, (n, totals)
        assert totals["syntactic"] >= totals["recurrent"], (n, totals)
    print("CRITERION 1 PASS: L_n totals exact for n=1..8 "
          "(limit 3n+5, recurrent n^2+4n+5, syntactic >= recurrent)")


def test_criterion_2_fig1_facts():
    """The limit progress DFA at the class of aa has exactly two states with
    the non-empty class final; (aa, b) is rejected as a decomposition even
    though that progress DFA accepts b in isolation."""
    fig1 = gen_fig1()
    f = build_canonical_fdfa(fig1, LIMIT)
    lq = compute_leading(fig1)
    aa_class = lq.class_of[2]  # reference state 2 carries the a-loop
    assert lq.rep_words[aa_class] == (0, 0)
    p = f.progress[aa_class]
    assert p.ts.state_count == 2
    assert p.ts.initial not in p.finals and len(p.finals) == 1
    assert p.accepts((1,))  # b alone is in the progress language
    assert not accepts_decomposition(f, UpWord((0, 0), (1,)))
    assert not accepts_upword(f, UpWord((0, 0), (1,)))
    print("CRITERION 2 PASS: fig1 limit progress at [aa] has 2 states, "
          "accepts b, yet (aa, b) is rejected")


def test_criterion_3_decision_algorithm():
    """The fig5 family is not DBA-recognizable, witnessed by a lasso denoting
    2^omega whose membership asymmetry replays; fig1, every L_n, and
    (Sigma* aa)^omega are DBA-recognizable."""
    fig5 = gen_fig5_fdfa()
    result = decide_dba_recognizable(fig5)
    assert not result.recognizable and result.witness is not None
    w = result.witness.upword()
    assert set(w.prefix) <= {1} and set(w.period) == {1}  # 2^omega
    from omega_fdfa import fdfa_to_dba
    assert member_upword_nba(fdfa_to_nba(fig5), w)
    assert not member_upword_det(fdfa_to_dba(extract_fb(fig5)), w)
    for d in [gen_fig1(), gen_sigma_star_aa()] + [gen_ln(n)
                                                  for n in range(1, 5)]:
        verdict = decide_dba_recognizable(build_canonical_fdfa(d, LIMIT))
        assert verdict.recognizable
    print("CRITERION 3 PASS: fig5 -> No with a 2^omega witness; "
          "fig1, L_1..L_4, (Sigma* aa)^omega -> Yes")


def test_criterion_4_sink_final_variant_properties():
    """The sink-final variant of (Sigma* aa)^omega rejects (eps, a) yet
    accepts (eps, aa); the saturation check reports exactly that
    disagreement; every zoo sink-final variant is almost saturated up to
    pump factor 4."""
    saa = gen_sigma_star_aa()
    fb = extract_fb(build_canonical_fdfa(saa, LIMIT))
    assert not accepts_decomposition(fb, UpWord((), (0,)))
    assert accepts_decomposition(fb, UpWord((), (0, 0)))
    pair = saturation_witness(fb, PROFILE_CAP)
    assert pair == (UpWord((), (0, 0)), UpWord((), (0,)))
    for d in ZOO_DBAS:
        zfb = extract_fb(build_canonical_fdfa(d, LIMIT))
        ws = words_upto(d.ts.alphabet.size, 3)
        for u in ws:
            for v in ws:
                if v and accepts_decomposition(zfb, UpWord(u, v)):
                    for k in range(2, 5):
                        assert accepts_decomposition(zfb, UpWord(u, v * k)), \
                            (u, v, k)
    print("CRITERION 4 PASS: F_B rejects (eps,a), accepts (eps,aa), "
          "saturation check reports the pair; zoo F_B almost saturated "
          "to pump 4")


def test_criterion_5_translation_correctness():
    """For every zoo DBA and flavor the NBA of the canonical family
    recognizes exactly the reference language: exact inclusion one way,
    complement-product emptiness the other, and agreement on every UP-word
    with |u|, |v| <= 3; each check under ten seconds."""
    for d in ZOO_DBAS:
        for flavor in FLAVORS:
            start = time.perf_counter()
            f = build_canonical_fdfa(d, flavor)
            nba = fdfa_to_nba(f)
            assert nba_dba_included(nba, d) is True, flavor
            comp = fdfa_to_nba(complement_finals(f))
            assert nba_dba_intersection_witness(comp, d) is None, flavor
            ws = words_upto(d.ts.alphabet.size, 3)
            for u in ws:
                for v in ws:
                    if v:
                        w = UpWord(u, v)
                        assert member_upword_nba(nba, w) \
                            == member_upword_det(d, w), (flavor, u, v)
            assert time.perf_counter() - start < 10.0, flavor
    print("CRITERION 5 PASS: L(nba(canon(d))) = L(d) for every zoo DBA "
          "and flavor")


def test_criterion_6_congruence_oracle_equivalence():
    """For 50 seeded random DBAs the word partition induced by every
    flavor's progress DFA matches the brute-force congruence oracle, and the
    limit/syntactic/periodic size relations hold on every instance."""
    for seed in range(50):
        d = gen_random_dba(seed, 4, 2)
        lq = compute_leading(d)
        k = lq.leading.state_count
        for c in range(k):
            sizes = {}
            for flavor in FLAVORS:
                p = progress_dfa(lq, c, flavor)
                sizes[flavor] = p.ts.state_count
                assert partitions_match(d, lq, c, flavor, p), \
                    (seed, c, flavor)
            assert sizes["limit"] <= sizes["syntactic"] \
                <= k * sizes["limit"], (seed, c, sizes)
            assert sizes["limit"] <= k * sizes["periodic"], (seed, c, sizes)
    print("CRITERION 6 PASS: 50 random DBAs, all flavors match the "
          "brute-force oracle; size relations hold")


def test_criterion_7_learner_convergence():
    """The learner converges on fig1, (Sigma* aa)^omega, fig5, and 25 seeded
    random DBAs, never exceeding the canonical limit family's size, passing
    a fresh exact equivalence check, under 10000 membership queries and
    thirty seconds per run."""

    def check(teacher_factory, canonical_total):
        start = time.perf_counter()
        h, stats = learn_limit_fdfa(teacher_factory())
        assert time.perf_counter() - start < 30.0
        assert stats.mq < 10_000
        assert size_report(h).total <= canonical_total
        assert teacher_factory().eq(h) is None  # fresh exact EQ
        return h

    fig1 = gen_fig1()
    check(lambda: DbaTeacher(fig1),
          size_report(build_canonical_fdfa(fig1, LIMIT)).total)
    saa = gen_sigma_star_aa()
    check(lambda: DbaTeacher(saa),
          size_report(build_canonical_fdfa(saa, LIMIT)).total)
    fig5 = gen_fig5_fdfa()
    h = check(lambda: FdfaTeacher(fig5), size_report(fig5).total)
    assert size_report(h).progress == (4,)
    for seed in range(25):
        d = gen_random_dba(seed, 5, 2)
        check(lambda: DbaTeacher(d),
              size_report(build_canonical_fdfa(d, LIMIT)).total)
    print("CRITERION 7 PASS: learner converges on fig1, (Sigma* aa)^omega, "
          "fig5, and 25 random DBAs within all caps")


def test_criterion_8_cosafety_cross_check():
    """For every DBA-recognizable zoo language and leading class whose limit
    progress DFA has finals, the co-safety language V_u equals the sink-final
    class of that progress DFA, as an exact DFA equivalence."""
    checked = 0
    for d in ZOO_DBAS:
        lq = compute_leading(d)
        for c in range(lq.leading.state_count):
            lim = progress_dfa(lq, c, LIMIT)
            if not lim.finals:
                continue
            sink = sink_final_state(lim)
            assert sink is not None, (d.ts.state_count, c)
            assert dfa_lang_equal(cosafety_vu_dfa(lq, c),
                                  Dfa(lim.ts, frozenset([sink])))
            checked += 1
    assert checked > 0
    print(f"CRITERION 8 PASS: co-safety V_u equals the limit sink class "
          f"for all {checked} final-bearing zoo classes")
