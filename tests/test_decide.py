"""Tests for the DBA-recognizability decision."""

import pytest

from omega_fdfa import (
    AutomatonError,
    Alphabet,
    DetTS,
    Dfa,
    Fdfa,
    LIMIT,
    PERIODIC,
    RECURRENT,
    UpWord,
    accepts_upword,
    build_canonical_fdfa,
    decide_dba_recognizable,
    extract_fb,
    fdfa_to_dba,
    fdfa_to_nba,
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_sigma_star_aa,
    member_upword_det,
    member_upword_nba,
)


def test_recognizable_zoo_says_yes():
    for d in (gen_fig1(), gen_sigma_star_aa(), gen_ln(1), gen_ln(2),
              gen_ln(3)):
        result = decide_dba_recognizable(build_canonical_fdfa(d, LIMIT))
        assert result.recognizable
        assert result.witness is None


def test_fig5_says_no_with_two_omega_witness():
    f = gen_fig5_fdfa()
    result = decide_dba_recognizable(f)
    assert not result.recognizable
    assert result.witness is not None
    w = result.witness
    # the witness denotes 2^omega (letter index 1)
    assert set(w.prefix) <= {1} and set(w.period) == {1}
    # replay: the FDFA's NBA accepts it, the derived DBA misses it
    assert member_upword_nba(fdfa_to_nba(f), w)
    assert not member_upword_det(fdfa_to_dba(extract_fb(f)), w)


def _parity_fdfa(k: int) -> Fdfa:
    """gen_fig5_fdfa over the letters 1..k: the maximal letter occurring
    infinitely often is even."""
    alphabet = Alphabet(tuple([str(i) for i in range(1, k + 1)]))
    leading = DetTS(alphabet, 1, 0, (tuple([0] * k),))
    delta = tuple([tuple([max(m, a) for a in range(k)]) for m in range(k)])
    progress = Dfa(DetTS(alphabet, k, 0, delta), frozenset(range(1, k, 2)))
    return Fdfa(leading, (progress,), labels=((),), flavor=LIMIT)


@pytest.mark.parametrize("k", range(2, 9))
def test_parity_families_beyond_fig5(k):
    f = _parity_fdfa(k)
    assert (f == gen_fig5_fdfa()) == (k == 4)
    result = decide_dba_recognizable(f)
    if k == 2:
        # the max-2 class is the one final and an absorbing sink
        assert result.recognizable and result.witness is None
    elif k % 2:
        # the absorbing max-k class is non-final, so no final is a sink
        assert not result.recognizable and result.witness is None
        assert "no sink final state" in result.reason
    else:
        # 2^omega: the max-2 class is final, but only the max-k class is
        # kept as the sink final of the derived DBA
        assert not result.recognizable
        assert result.witness == UpWord((1,), (1,))
        assert accepts_upword(f, result.witness)
        assert not member_upword_det(fdfa_to_dba(extract_fb(f)),
                                     result.witness)


def test_recurrent_flavor_is_refused():
    with pytest.raises(AutomatonError):
        decide_dba_recognizable(build_canonical_fdfa(gen_fig1(), RECURRENT))


def test_other_flavors_are_refused():
    with pytest.raises(AutomatonError):
        decide_dba_recognizable(build_canonical_fdfa(gen_fig1(), PERIODIC))


def test_missing_sink_final_is_a_fast_no():
    ab = Alphabet(("a", "b"))
    leading = DetTS(ab, 1, 0, ((0, 0),))
    toggling = Dfa(DetTS(ab, 2, 0, ((1, 1), (0, 0))), frozenset([1]))
    result = decide_dba_recognizable(Fdfa(leading, (toggling,), flavor=LIMIT))
    assert not result.recognizable
    assert "sink final" in result.reason
    assert result.witness is None
