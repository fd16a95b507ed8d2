"""Tests for the reference-language generators."""

import pytest

from omega_fdfa import (
    AutomatonError,
    LIMIT,
    UpWord,
    accepts_upword,
    build_canonical_fdfa,
    compute_leading,
    decide_dba_recognizable,
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
    member_upword_det,
    progress_dfa,
    run_word,
    size_report,
)
from omega_fdfa.congruence import PROFILE_CAP
from omega_fdfa.fdfa import RECURRENT, saturation_witness, sink_final_state

from oracles import naive_member, words_upto


def test_gen_ln_validates_n():
    with pytest.raises(AutomatonError):
        gen_ln(0)


def test_gen_ln_table_shape():
    for n in (1, 2, 3, 5):
        d = gen_ln(n)
        sink = n + 1
        assert d.ts.state_count == n + 2
        assert d.ts.alphabet.letters == tuple(str(i) for i in range(n + 1))
        for i in range(n + 1):
            nxt = (i + 1) % (n + 1)
            assert d.ts.delta[i][nxt] == nxt
            if i < n:
                assert d.ts.delta[i][i] == i
            for a in range(n + 1):
                t = d.ts.delta[i][a]
                if a not in (i, nxt) or (i == n and a == n):
                    assert t == sink
                if t != sink:
                    assert (i, a) in d.acc
                else:
                    assert (i, a) not in d.acc
        assert all(t == sink for t in d.ts.delta[sink])


def test_gen_ln_round_trip_words():
    # from q_j, the word (j+1)...n 0...k walks the ring to q_k, so appending
    # k+1...j 0...j returns to q_j without touching the sink
    for n in (1, 2, 3, 4):
        d = gen_ln(n)
        for j in range(n + 1):
            for k in range(n + 1):
                v = tuple(range(j + 1, n + 1)) + tuple(range(0, k + 1))
                assert run_word(d.ts, j, v) == k


def test_gen_ln_membership_pins():
    d = gen_ln(2)
    assert member_upword_det(d, UpWord((), (0,)))          # 0^omega
    assert member_upword_det(d, UpWord((), (0, 1, 2)))     # the full ring
    assert not member_upword_det(d, UpWord((), (2,)))      # skip to the sink
    assert not member_upword_det(d, UpWord((0, 1), (0,)))  # 0 is dead at q1
    d1 = gen_ln(1)
    assert member_upword_det(d1, UpWord((), (0, 1)))
    assert not member_upword_det(d1, UpWord((), (1,)))     # 1 is dead at q1


def test_gen_ln_class_counts():
    for n in (1, 2, 3):
        lq = compute_leading(gen_ln(n))
        k = lq.leading.state_count
        assert k == n + 2
        sink_class = next(c for c in range(k)
                          if all(lq.leading.delta[c][a] == c
                                 for a in range(n + 1)))
        for c in range(k):
            lim = progress_dfa(lq, c, LIMIT).ts.state_count
            rec = progress_dfa(lq, c, RECURRENT).ts.state_count
            assert (lim, rec) == ((1, 1) if c == sink_class else (2, n + 2))


def test_gen_fig1_language():
    d = gen_fig1()
    assert member_upword_det(d, UpWord((), (0,)))
    assert member_upword_det(d, UpWord((0,), (1,)))
    assert not member_upword_det(d, UpWord((), (1,)))
    assert not member_upword_det(d, UpWord((), (0, 1)))
    assert not member_upword_det(d, UpWord((0, 0), (1,)))


def test_gen_sigma_star_aa_language():
    d = gen_sigma_star_aa()
    assert member_upword_det(d, UpWord((), (0, 0)))
    assert member_upword_det(d, UpWord((), (0,)))
    assert member_upword_det(d, UpWord((), (0, 1, 0)))  # aa across boundaries
    assert not member_upword_det(d, UpWord((), (0, 1)))
    assert not member_upword_det(d, UpWord((), (1,)))
    assert compute_leading(d).leading.state_count == 1


def test_gen_fig5_fdfa_semantics():
    f = gen_fig5_fdfa()
    assert accepts_upword(f, UpWord((), (1,)))      # 2^omega
    assert accepts_upword(f, UpWord((), (0, 3)))    # (14)^omega, max 4
    assert accepts_upword(f, UpWord((2,), (1,)))    # 3.2^omega
    assert not accepts_upword(f, UpWord((), (2,)))  # 3^omega
    assert not accepts_upword(f, UpWord((), (0,)))  # 1^omega
    assert sink_final_state(f.progress[0]) == 3     # the max-4 class
    assert saturation_witness(f, PROFILE_CAP) is None
    assert not decide_dba_recognizable(f).recognizable


def test_gen_random_dba_is_seeded_deterministic():
    a = gen_random_dba(7, 4, 2)
    b = gen_random_dba(7, 4, 2)
    assert a == b
    assert a != gen_random_dba(8, 4, 2)


def test_gen_random_dba_fingerprint():
    d = gen_random_dba(1, 4, 2)
    assert d.ts.delta == ((1, 0), (2, 0), (3, 3), (3, 3))
    assert sorted(d.acc) == [(0, 1), (1, 0), (2, 0), (3, 0), (3, 1)]


def test_gen_random_dba_density_zero_is_empty():
    d = gen_random_dba(3, 4, 2, acc_density=0.0)
    assert not d.acc
    for v in words_upto(2, 3):
        if v:
            assert not member_upword_det(d, UpWord((), v))


def test_gen_random_dba_validates_arguments():
    with pytest.raises(AutomatonError):
        gen_random_dba(0, 0, 2)
    with pytest.raises(AutomatonError):
        gen_random_dba(0, 2, 0)


def test_gen_random_dba_member_agrees_with_naive_oracle():
    for seed in range(5):
        d = gen_random_dba(seed, 5, 3)
        for u in words_upto(3, 2):
            for v in words_upto(3, 2):
                if v:
                    w = UpWord(u, v)
                    assert member_upword_det(d, w) == naive_member(d, w)
