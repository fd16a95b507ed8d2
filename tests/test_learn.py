"""Tests for the limit-FDFA learner and its teachers."""

import functools
import gc
import hashlib
import re
from collections import Counter
from dataclasses import replace

import pytest

import omega_fdfa.learn as learn
from omega_fdfa import (
    AutomatonError,
    COBUCHI,
    DbaTeacher,
    FdfaTeacher,
    LIMIT,
    LearnLimitExceeded,
    QueryLog,
    ResourceLimitError,
    UpWord,
    accepts_upword,
    build_canonical_fdfa,
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
    learn_limit_fdfa,
    member_upword_det,
    size_report,
)

import omega_fdfa.congruence as congruence
from omega_fdfa.cli import format_fdfa
from omega_fdfa.core_automata import run_word
from omega_fdfa.fdfa import (
    FLAVORS,
    accepts_decomposition,
    leading_isomorphic,
    limit_canonical_form,
    normalize,
)

from helpers import (
    eq_hypotheses,
    fdfas_isomorphic,
    restart_scan_close,
    split_fig1_periodic,
    split_leading_state,
)
from oracles import naive_member, words_upto


def _assert_language_matches(h, d, bound=3):
    for u in words_upto(d.ts.alphabet.size, bound):
        for v in words_upto(d.ts.alphabet.size, bound):
            if v:
                w = UpWord(u, v)
                assert accepts_upword(h, w) == member_upword_det(d, w)


def test_learn_fig1(fig1):
    h, stats = learn_limit_fdfa(DbaTeacher(fig1))
    assert h.flavor == LIMIT
    assert size_report(h).leading == 5
    assert size_report(h).total == 14
    assert stats.eq >= 2
    assert stats.iterations == stats.eq
    assert 0 < stats.mq < 10_000
    _assert_language_matches(h, fig1)


def test_learn_sigma_star_aa(saa):
    h, stats = learn_limit_fdfa(DbaTeacher(saa))
    assert size_report(h).leading == 1
    assert size_report(h).total \
        <= size_report(build_canonical_fdfa(saa, LIMIT)).total
    _assert_language_matches(h, saa)


def test_learn_ln2(ln2):
    h, stats = learn_limit_fdfa(DbaTeacher(ln2))
    assert size_report(h).total == 11  # 3n+5 with n = 2
    _assert_language_matches(h, ln2, bound=2)


def test_learn_fig5_from_fdfa_teacher(fig5):
    h, stats = learn_limit_fdfa(FdfaTeacher(fig5))
    assert size_report(h).leading == 1
    assert size_report(h).progress == (4,)
    for u in words_upto(4, 2):
        for v in words_upto(4, 2):
            if v:
                w = UpWord(u, v)
                assert accepts_upword(h, w) == accepts_upword(fig5, w)


def test_learn_random_dbas_stay_within_canonical_size():
    for seed in range(10):
        d = gen_random_dba(seed, 4, 2)
        h, stats = learn_limit_fdfa(DbaTeacher(d))
        canonical = build_canonical_fdfa(d, LIMIT)
        assert size_report(h).total <= size_report(canonical).total
        assert stats.mq < 10_000
        _assert_language_matches(h, d, bound=2)


def test_query_log_format(fig1):
    log = QueryLog(fig1.ts.alphabet)
    teacher = DbaTeacher(fig1, log=log)
    learn_limit_fdfa(teacher)
    assert log.lines
    assert log.lines[-1] == "EQ -> accept"
    pattern = re.compile(r"^(MQ \S+ \S+ -> [01]|EQ -> (accept|ce \S+ \S+))$")
    for line in log.lines:
        assert pattern.match(line), line


def test_mq_cap(fig1, monkeypatch):
    monkeypatch.setattr(learn, "MAX_MQ", 3)
    with pytest.raises(LearnLimitExceeded, match="membership query cap 3 "):
        learn_limit_fdfa(DbaTeacher(fig1))


def test_iteration_cap(fig1):
    with pytest.raises(LearnLimitExceeded):
        learn_limit_fdfa(DbaTeacher(fig1), max_iterations=1)


def test_dba_teacher_refuses_a_cobuchi_reference_before_any_query(
        fig1, monkeypatch):
    # the refusal used to come from the first EQ's inclusion check, after
    # 22 MQs on fig1
    queried = []
    monkeypatch.setattr(learn, "accepts_from",
                        lambda f, s, v: queried.append(v))
    log = QueryLog(fig1.ts.alphabet)
    with pytest.raises(AutomatonError, match="expects a Buchi reference"):
        learn_limit_fdfa(DbaTeacher(replace(fig1, polarity=COBUCHI), log=log))
    assert queried == [] and log.lines == []


def _mq_cases():
    """Teachers, each with an independent verdict on u . v^omega: DBAs by
    the brute-force oracle, among them the five known-wrong targets, and
    FDFAs by their normalized decomposition."""
    dbas = [gen_fig1(), gen_ln(2)]
    dbas += [gen_random_dba(s, 5, 3) for s in (6, 16, 21)]
    dbas += [gen_random_dba(s, 6, 2) for s in (19, 22)]
    for d in dbas:
        yield DbaTeacher(d), lambda w, d=d: naive_member(d, w)
    for f in (gen_fig5_fdfa(), build_canonical_fdfa(gen_ln(2), LIMIT)):
        yield FdfaTeacher(f), \
            lambda w, f=f: accepts_decomposition(f, normalize(f, w))


def test_mq_answers_from_the_state_its_prefix_reaches():
    checked = 0
    for teacher, member in _mq_cases():
        k = teacher.alphabet.size
        periods = [v for v in words_upto(k, 4) if v]
        for u in words_upto(k, 3):
            for v in periods:
                assert teacher.mq(u, v) == member(UpWord(u, v)), (u, v)
                checked += 1
    assert checked > 50_000


@pytest.mark.parametrize("make_teacher, ref", [
    (DbaTeacher, gen_fig1()), (FdfaTeacher, gen_fig5_fdfa())])
def test_refused_mq_is_neither_counted_nor_logged(make_teacher, ref):
    teacher = make_teacher(ref)
    teacher.log = QueryLog(teacher.alphabet)
    for prefix, period in (((0,), ()), ((0, 5), (0,)), ((0,), (1, 7)),
                           ((), (-1,))):
        with pytest.raises(AutomatonError):
            teacher.mq(prefix, period)
    assert teacher.mq_count == 0 and teacher.log.lines == []
    teacher.mq((0,), (1,))
    assert teacher.mq_count == 1 and len(teacher.log.lines) == 1


def test_leading_representatives_reach_their_own_state(monkeypatch):
    closes = []
    close_leading = learn._Session.close_leading

    def checked_close(session):
        close_leading(session)
        reps = session.lead.reps
        assert len(session.progress) == len(reps)
        assert all(session.leading_state(u) == q for q, u in enumerate(reps))
        closes.append(len(reps))

    monkeypatch.setattr(learn._Session, "close_leading", checked_close)
    for teacher, _ in _mq_cases():
        learn_limit_fdfa(teacher)
    assert len(closes) >= 20 and max(closes) >= 6


def test_learned_hypothesis_passes_fresh_equivalence(fig1):
    h, _ = learn_limit_fdfa(DbaTeacher(fig1))
    assert DbaTeacher(fig1).eq(h) is None


def test_learn_one_letter_alphabet():
    d = gen_random_dba(0, 5, 1)
    assert member_upword_det(d, UpWord((), (0,)))
    h, _ = learn_limit_fdfa(DbaTeacher(d))
    assert DbaTeacher(d).eq(h) is None
    _assert_language_matches(h, d)


def test_answers_reach_the_teacher_once_per_run(monkeypatch):
    """The session cache is the run's one store of membership answers: no
    (prefix, period) reaches the teacher twice, also across leading closes,
    which re-sift every progress tree from its root.  A progress
    refinement splits one leaf and adds no column, so its close sends the
    teacher only (rep_q, row + e), for each row at the split leaf that
    returns to q on the leaf's experiment e and was never asked it, and
    queries for the rows the close adds."""
    asked = Counter()  # (teacher, prefix, period) over the whole run
    closes = []
    refined = []
    mq = learn._Teacher.mq
    close_leading = learn._Session.close_leading
    close_progress = learn._Session._close_progress

    def counted_mq(teacher, prefix, period):
        asked[teacher, prefix, period] += 1
        return mq(teacher, prefix, period)

    def counted_close_leading(session):
        closes.append(len(session.progress))
        close_leading(session)

    def checked_close_progress(session, q, rows=None):
        if rows is None:
            return close_progress(session, q)
        table, teacher = session.progress[q], session.teacher
        rep, vecs = session.lead.reps[q], dict(table.vecs)
        before, known = set(table.rows), set(asked)
        # the split leaf is the one node that is both a vector and inner now
        [leaf] = set(vecs.values()) & set(table.tree)
        e = table.exps[table.tree[leaf]]
        expected = {(teacher, rep, row + e) for row, vec in vecs.items()
                    if vec == leaf and row + e
                    and run_word(session.leading, q, row + e) == q
                    and (teacher, rep, row + e) not in known}
        close_progress(session, q, rows)
        new = set(asked) - known
        added = table.rows - before
        assert expected <= new
        for t, prefix, period in new - expected:
            assert t is teacher and prefix == rep
            assert any(period[:len(row)] == row
                       and period[len(row):] in table.exps for row in added)
        refined.append(len(vecs))

    monkeypatch.setattr(learn._Teacher, "mq", counted_mq)
    monkeypatch.setattr(learn._Session, "close_leading", counted_close_leading)
    monkeypatch.setattr(learn._Session, "_close_progress",
                        checked_close_progress)
    for d in (gen_fig1(), gen_ln(2), gen_random_dba(1, 5, 3),
              gen_random_dba(22, 6, 2)):
        learn_limit_fdfa(DbaTeacher(d))
    learn_limit_fdfa(FdfaTeacher(gen_fig5_fdfa()))
    assert max(asked.values()) == 1
    assert len({teacher for teacher, _, _ in asked}) == 5
    # leading refinements re-sift progress tables that already have rows
    assert sum(n > 0 for n in closes) >= 5
    assert len(refined) > 40 and max(refined) > 10


def test_a_split_sifts_again_only_the_rows_at_its_leaf(monkeypatch):
    """A progress refinement splits the leaf of one row and closes its
    table from there: the close is given exactly the rows at that leaf,
    asks vectors of them and of the rows it adds only, and every other row
    keeps its vector."""
    close = learn._Table.close
    splits = []

    def checked_close(table, vector_of, rows=None):
        if rows is None:
            return close(table, vector_of)
        vecs, before = dict(table.vecs), set(table.rows)
        leaves = {vecs[row] for row in rows}
        asked = set()

        def recorded(row):
            asked.add(row)
            return vector_of(row)

        close(table, recorded, rows)
        [leaf] = leaves
        assert leaf in table.tree
        assert rows == {row for row, vec in vecs.items() if vec == leaf}
        assert asked <= rows | (table.rows - before)
        assert all(table.vecs[row] == vec for row, vec in vecs.items()
                   if vec != leaf)
        splits.append(len(vecs) - len(rows))

    monkeypatch.setattr(learn._Table, "close", checked_close)
    for d in (gen_fig1(), gen_ln(2), gen_random_dba(1, 5, 3),
              gen_random_dba(22, 6, 2)):
        learn_limit_fdfa(DbaTeacher(d))
    learn_limit_fdfa(FdfaTeacher(gen_fig5_fdfa()))
    assert len(splits) > 40 and sum(splits) > 100


@pytest.mark.parametrize("seed, exp, nodes", [(35, (0,), 2), (33, (0,), 4)])
def test_one_experiment_at_several_nodes_of_one_tree(monkeypatch, seed, exp,
                                                     nodes):
    """A split whose experiment the tree already asks at another node
    reuses its index: in the first progress tree of gen_random_dba(seed, 3,
    2) ``exp`` sits at ``nodes`` nodes, and the target is learned
    exactly."""
    sessions = []
    init = learn._Session.__init__

    def recording_init(session, teacher):
        sessions.append(session)
        init(session, teacher)

    monkeypatch.setattr(learn._Session, "__init__", recording_init)
    d = gen_random_dba(seed, 3, 2)
    h, _ = learn_limit_fdfa(DbaTeacher(d))
    table = sessions[-1].progress[0]
    assert Counter(table.tree.values())[table.exps.index(exp)] == nodes
    assert _first_disagreement(h, lambda w: naive_member(d, w), 2,
                               _oracle_bound(2)) is None
    assert fdfas_isomorphic(h, build_canonical_fdfa(d, LIMIT))


def test_progress_refinement_rebuilds_only_its_own_table(monkeypatch):
    """A progress refinement of q re-closes q's table only: the next
    hypothesis keeps the leading DetTS and every other progress DetTS as
    the same objects, and q's is built anew."""
    refine_progress = learn._Session._refine_progress
    kept = []

    def checked_refine_progress(session, q, progress, y):
        before = session.hypothesis()
        refine_progress(session, q, progress, y)
        after = session.hypothesis()
        assert after.leading is before.leading
        assert after.progress[q].ts is not before.progress[q].ts
        others = [p for p in range(len(before.progress)) if p != q]
        assert all(after.progress[p].ts is before.progress[p].ts
                   for p in others)
        kept.append(len(others))

    monkeypatch.setattr(learn._Session, "_refine_progress",
                        checked_refine_progress)
    for d in (gen_fig1(), gen_ln(2), gen_random_dba(1, 5, 3),
              gen_random_dba(22, 6, 2)):
        learn_limit_fdfa(DbaTeacher(d))
    learn_limit_fdfa(FdfaTeacher(gen_fig5_fdfa()))
    assert len(kept) > 40 and sum(kept) > 100


def _logged_run(teacher_class, ref, alphabet) -> tuple:
    """The learned FDFA's text, the query log and the counts of one run, or
    the error it ended with."""
    log = QueryLog(alphabet)
    try:
        h, stats = learn_limit_fdfa(teacher_class(ref, log=log))
    except AutomatonError as err:  # compared as a result, like the text
        return type(err).__name__, str(err), log.lines
    return format_fdfa(h), log.lines, stats.mq, stats.eq, stats.iterations


def _parity_cases():
    # seeds 11, 22, 29, 32, 59, 62, 68 and 98, and the family of
    # gen_random_dba(0, 4, 3), drop a collapsed representative in some close
    for seed in range(100):
        d = gen_random_dba(seed, 2 + seed % 5, 1 + seed % 3)
        yield DbaTeacher, d, d.ts.alphabet
    fig5 = gen_fig5_fdfa()
    yield FdfaTeacher, fig5, fig5.leading.alphabet
    for d in (gen_fig1(), gen_ln(2), gen_random_dba(0, 4, 3)):
        f = build_canonical_fdfa(d, LIMIT)
        yield FdfaTeacher, f, f.leading.alphabet


def test_one_pass_close_learns_as_the_restart_scan(monkeypatch):
    """The learner, whose closes visit only rows whose vectors may have
    changed and sift a split leaf's rows on from that leaf, asks the same
    queries in the same order and learns the same families as with
    ``helpers.restart_scan_close``, which sifts every row from the root
    after each promotion."""
    cases = list(_parity_cases())
    one_pass = [_logged_run(*case) for case in cases]
    sessions = []  # the session being built or run; its tables close
    init = learn._Session.__init__

    def recording_init(session, teacher):
        sessions.append(session)
        init(session, teacher)

    monkeypatch.setattr(learn._Session, "__init__", recording_init)
    monkeypatch.setattr(learn._Table, "close",
                        lambda table, vector_of, rows=None:
                        restart_scan_close(sessions[-1], table))
    restart_scan = [_logged_run(*case) for case in cases]
    assert len(cases) > 100
    for case, got, expected in zip(cases, one_pass, restart_scan):
        assert got == expected, case


def _digest_cases():
    for seed in range(300):
        d = gen_random_dba(seed, 2 + seed % 6, 1 + seed % 3)
        yield DbaTeacher, d, d.ts.alphabet
    for seed, n, k in BENCHMARK_DBAS:
        d = gen_random_dba(seed, n, k)
        yield DbaTeacher, d, d.ts.alphabet
    fig5 = gen_fig5_fdfa()
    yield FdfaTeacher, fig5, fig5.leading.alphabet
    for d in (gen_fig1(), gen_ln(2), gen_ln(4), gen_random_dba(0, 4, 3)):
        f = build_canonical_fdfa(d, LIMIT)
        yield FdfaTeacher, f, f.leading.alphabet


@functools.cache
def _digest_runs() -> tuple:
    return tuple(_logged_run(*case) for case in _digest_cases())


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def test_learned_outputs_are_pinned():
    """The written FDFAs of 315 seeded runs (the error of the one whose
    reference exceeds the profile cap) hash to the digest they had before
    the progress tables became discriminator trees: a change to what the
    learner writes shows up here."""
    assert _digest(result[0] if len(result) == 5 else result[:2]
                   for result in _digest_runs()) == \
        "25440ebb1c8490e7c1ee205d74a086d9b7a878c6ff47474829bd86c40a1604db"


def test_query_logs_are_pinned():
    """The query logs and counts of the same runs hash to the digest they
    have since the progress tables became discriminator trees: any change
    to a query or its order shows up here."""
    learned = mqs = 0
    for result in _digest_runs():
        if len(result) == 5:  # one reference exceeds the profile cap
            learned += 1
            mqs += result[2]
    assert (learned, mqs) == (314, 20_208)
    assert _digest(result[1:] if len(result) == 5 else result[2:]
                   for result in _digest_runs()) == \
        "61cb0f68f487aa29284a8303541d9ecc364c8c0c668aa41912ce77def454c317"


# --------------------------------------------------------------------------
# exact equivalence queries

# the targets the bounded counterexample search once accepted wrongly, as
# gen_random_dba(seed, states, letters)
FORMERLY_WRONG = [(6, 5, 3), (16, 5, 3), (21, 5, 3), (19, 6, 2), (22, 6, 2)]
# the learn benchmark's DBA targets, likewise
BENCHMARK_DBAS = [(0, 5, 2), (1, 5, 2), (0, 5, 3), (1, 5, 3), (3, 5, 3),
                  (6, 5, 3), (16, 5, 3), (21, 5, 3), (19, 6, 2), (22, 6, 2)]


def _first_disagreement(h, member, nletters: int, bound: int):
    """The first UP-word u . v^omega with |u| + |v| <= bound on which h and
    the member oracle disagree, or None."""
    for u in words_upto(nletters, bound - 1):
        for v in words_upto(nletters, bound - len(u))[1:]:
            w = UpWord(u, v)
            if accepts_upword(h, w) != member(w):
                return w
    return None


def _oracle_bound(nletters: int) -> int:
    return {1: 12, 2: 8}.get(nletters, 6)


@pytest.mark.parametrize("seed, n, k", FORMERLY_WRONG)
def test_formerly_wrong_targets_are_learned_exactly(seed, n, k):
    d = gen_random_dba(seed, n, k)
    h, _ = learn_limit_fdfa(DbaTeacher(d))
    assert _first_disagreement(h, lambda w: naive_member(d, w), k,
                               _oracle_bound(k)) is None


def _max_even(w: UpWord) -> bool:
    """fig5's language over 1..4 (letter i is i + 1): the greatest letter
    of the period is even."""
    return max(w.period) % 2 == 1


def test_learned_implies_exact():
    checked = 0
    for seed in range(40):
        n, k = 2 + seed % 5, 1 + seed % 3
        d = gen_random_dba(500 + seed, n, k)
        member = lambda w, d=d: naive_member(d, w)  # noqa: E731
        h, _ = learn_limit_fdfa(DbaTeacher(d))
        assert _first_disagreement(h, member, k, _oracle_bound(k)) is None, \
            ("dba", seed)
        if seed % 4 == 0:
            f = build_canonical_fdfa(d, LIMIT)
            h, _ = learn_limit_fdfa(FdfaTeacher(f))
            assert _first_disagreement(h, member, k, _oracle_bound(k)) \
                is None, ("fdfa", seed)
        checked += 1
    h, _ = learn_limit_fdfa(FdfaTeacher(gen_fig5_fdfa()))
    assert _first_disagreement(h, _max_even, 4, 4) is None
    assert checked == 40


@pytest.mark.parametrize("seed, n, k", BENCHMARK_DBAS)
def test_learned_family_is_the_canonical_limit_fdfa(seed, n, k):
    d = gen_random_dba(seed, n, k)
    h, _ = learn_limit_fdfa(DbaTeacher(d))
    assert h.flavor == LIMIT
    assert fdfas_isomorphic(h, build_canonical_fdfa(d, LIMIT))


def test_learning_leaves_no_cyclic_garbage():
    d, fig5 = gen_random_dba(21, 5, 3), gen_fig5_fdfa()
    gc.collect()
    gc.disable()
    try:
        learn_limit_fdfa(DbaTeacher(d))
        from_dba = gc.collect()
        learn_limit_fdfa(FdfaTeacher(fig5))
        from_fdfa = gc.collect()
    finally:
        gc.enable()
    assert (from_dba, from_fdfa) == (0, 0)


def _brute_force_counterexample(h, teacher, member, bound: int):
    """The least (|u| + |v|, u, v), |u| + |v| <= bound, with u . v^omega
    normalized in both h and the teacher's reference and judged unlike by h
    and the member oracle."""
    m, r = h.leading, teacher.reference.leading
    k = teacher.alphabet.size
    best = None
    for u in words_upto(k, bound - 1):
        q, c = run_word(m, m.initial, u), run_word(r, r.initial, u)
        for v in words_upto(k, bound - len(u))[1:]:
            if run_word(m, q, v) != q or run_word(r, c, v) != c:
                continue
            w = UpWord(u, v)
            if accepts_upword(h, w) != member(w):
                key = (len(u) + len(v), u, v)
                best = key if best is None else min(best, key)
    return best


def _pair_search_cases():
    dbas = [gen_fig1(), gen_sigma_star_aa(), gen_ln(2)]
    dbas += [gen_random_dba(s, n, k) for s, n, k in FORMERLY_WRONG]
    dbas += [gen_random_dba(s, 4, 2) for s in range(8)]
    for d in dbas:
        yield DbaTeacher(d), lambda w, d=d: naive_member(d, w)
    yield FdfaTeacher(gen_fig5_fdfa()), _max_even


def test_pair_search_returns_the_least_short_counterexample():
    compared = found = 0
    for teacher, member in _pair_search_cases():
        k = teacher.alphabet.size
        bound = _oracle_bound(k) if k < 4 else 4
        for h in eq_hypotheses(teacher):
            ce = learn._pair_search(h, teacher.reference, {})
            got = None if ce is None \
                else (len(ce.prefix) + len(ce.period), ce.prefix, ce.period)
            if got is not None and got[0] > bound:
                got = None
            assert got == _brute_force_counterexample(h, teacher, member,
                                                      bound)
            compared += 1
            found += got is not None
    assert compared > 100 and found > 80


def test_memoized_pair_search_returns_what_a_fresh_one_does(monkeypatch):
    """Every equivalence query of the parity cases: the pair search with
    the teacher's memo of least periods returns what a search without it
    returns, and it runs fewer period searches."""
    pair_search, least_period = learn._pair_search, learn._least_period
    searches = Counter()
    mode = []

    def counted_least_period(*args):
        searches[mode[-1]] += 1
        return least_period(*args)

    def checked(h, r, periods):
        mode.append("memo")
        got = pair_search(h, r, periods)
        mode.append("fresh")
        assert got == pair_search(h, r, {})
        searches["eq"] += 1
        return got

    monkeypatch.setattr(learn, "_least_period", counted_least_period)
    monkeypatch.setattr(learn, "_pair_search", checked)
    for teacher_class, ref, _ in _parity_cases():
        learn_limit_fdfa(teacher_class(ref))
    # 373 queries; 1,071 period searches with the memo, 1,612 without
    assert searches["eq"] > 300
    assert searches["memo"] < 0.8 * searches["fresh"]


def _flipped_hypotheses(f):
    """f with the finality of one progress state flipped, for each
    progress state of f."""
    for q, p in enumerate(f.progress):
        for s in range(p.ts.state_count):
            flipped = replace(p, finals=p.finals ^ {s})
            yield replace(f, progress=f.progress[:q] + (flipped,)
                          + f.progress[q + 1:])


def test_saturation_check_returns_a_counterexample(monkeypatch):
    """Step 3 alone, on every hypothesis with one progress finality
    flipped: a saturated hypothesis is accepted, and of the two
    decompositions of an unsaturated one's witness the one returned is
    judged wrongly by the hypothesis, for both witness kinds."""
    monkeypatch.setattr(learn, "_pair_search",
                        lambda h, r, periods: None)
    monkeypatch.setattr(learn, "leading_isomorphic", lambda a, b: False)
    kinds = Counter()
    for seed in range(40):
        d = gen_random_dba(seed, 2 + seed % 5, 1 + seed % 3)
        teacher = DbaTeacher(d)
        assert learn.saturation_witness(teacher.reference,
                                        congruence.PROFILE_CAP) is None
        for h in _flipped_hypotheses(teacher.reference):
            found = learn.saturation_witness(h, congruence.PROFILE_CAP)
            ce = teacher._find_counterexample(h)
            if found is None:
                assert ce is None
                continue
            assert ce in found
            assert accepts_upword(h, ce) != naive_member(d, ce)
            accepted, rejected = found
            kinds["P" if accepted.prefix == rejected.prefix else "R"] += 1
    assert kinds == {"P": 34, "R": 90}


def test_saturation_check_shares_the_profile_cap(fig1, monkeypatch):
    # the split family's leading DFA is not the residual quotient, so the
    # last equivalence query falls through to the saturation check
    teacher = FdfaTeacher(split_fig1_periodic())
    assert learn.saturation_witness(teacher.reference,
                                    congruence.PROFILE_CAP) is None
    h, _ = learn_limit_fdfa(teacher)
    assert _first_disagreement(h, lambda w: naive_member(fig1, w), 2, 8) \
        is None
    monkeypatch.setattr(congruence, "PROFILE_CAP", 3)
    with pytest.raises(ResourceLimitError, match="exceeded cap of 3"):
        learn_limit_fdfa(FdfaTeacher(teacher.reference))


def test_leading_isomorphism_decides_as_the_canonical_form():
    """Where the pair search finds nothing, comparing leading DFAs gives
    the verdict of comparing the hypothesis's canonical limit form with a
    limit-canonical reference: on every hypothesis the DBA teachers
    receive, and on each with its initial state's a-successor split."""
    compared = accepted = 0
    for teacher_class, d, _ in _parity_cases():
        if teacher_class is not DbaTeacher:
            continue
        teacher = DbaTeacher(d)
        r = teacher.reference
        for h in eq_hypotheses(teacher):
            for g in (h, split_leading_state(h, h.leading.initial, 0)):
                if learn._pair_search(g, r, {}) is not None:
                    continue
                same = leading_isomorphic(g, r)
                assert same == fdfas_isomorphic(limit_canonical_form(g), r)
                compared += 1
                accepted += same
    # a split whose old target is reached only through the split edge
    # renames that target, and the leading DFAs stay isomorphic
    assert compared == 200 and accepted == 103


def _fdfa_teacher_cases():
    """fig1 and seeded random DBAs, each with its four canonical families."""
    dbas = [gen_fig1()]
    dbas += [gen_random_dba(seed, 2 + seed % 5, 1 + seed % 3)
             for seed in range(24)]
    for d in dbas:
        for flavor in FLAVORS:
            yield d, build_canonical_fdfa(d, flavor)


def test_canonical_families_are_learned_without_the_saturation_check(
        monkeypatch):
    """Every canonical family is saturated and its leading DFA is the
    residual quotient, so step 2 accepts the exact hypothesis at once."""
    def refused(h, cap):
        raise AssertionError("saturation check called")

    monkeypatch.setattr(learn, "saturation_witness", refused)
    learned = 0
    for d, f in _fdfa_teacher_cases():
        h, _ = learn_limit_fdfa(FdfaTeacher(f))
        k = d.ts.alphabet.size
        assert _first_disagreement(h, lambda w, d=d: naive_member(d, w), k,
                                   _oracle_bound(k) - 1) is None, f.flavor
        learned += 1
    assert learned == 100
