"""Golden outputs: the exact bytes the CLI prints and writes on the zoo's
Figure 1 DBA and parity FDFA, on one random DBA, and on a 12-state counter
with resets whose every state is its own leading class, so that each
class-local monoid of its limit FDFA has one-entry profiles.  State
numbering reaches these outputs through unminimized products (syntactic
progress DFAs), the DBA translation and the decision witness, so any change
to exploration order shows up here.  The learner's logs pin every membership query in order; the
5-state random DBA of seed 1's run is one where progress representatives
collapse after a leading refinement, the one of seed 6, the heaviest
learn benchmark target, makes the teacher build a new pair graph at each
of its 4 leading refinements between 42 progress refinements, and the
6-state one's re-closes progress tables after leading refinements between
many progress refinements; the
FDFA teacher on Figure 1's periodic family, saturated but not
limit-canonical, is accepted by comparing leading DFAs.  ``lassos.txt`` pins the witnesses of the emptiness,
inclusion and intersection engines, which the CLI outputs reach only in
part."""

from __future__ import annotations

import pathlib

import pytest

from omega_fdfa import (
    LIMIT,
    build_canonical_fdfa,
    complement_finals,
    fdfa_to_nba,
    gen_fig1,
    gen_fig5_fdfa,
    gen_random_dba,
    nba_dba_included,
    nba_dba_intersection_witness,
    nba_nba_intersection_witness,
)
from omega_fdfa.cli import format_automaton, format_fdfa, main

from helpers import counter_with_resets, one_pair_rabin_empty

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = ["canon-periodic", "canon-syntactic", "canon-recurrent", "canon-limit",
         "canon-counter12",
         "translate-nba", "translate-ldba", "translate-dba", "decide-fig5",
         "learn-fig1", "learn-fig5", "learn-rand-5x3-s1", "learn-rand-5x3-s6",
         "learn-rand-6x2-s22", "learn-fig1-periodic"]


def run_case(case: str, tmp: pathlib.Path, capsys) -> str:
    """Run one CLI command on fresh input files under tmp; returns its exit
    code, stdout, and the files it wrote, as one text."""
    fig1 = tmp / "fig1.aut"
    fig1.write_text(format_automaton(gen_fig1()), encoding="utf-8")
    limit = tmp / "limit.fdfa"
    fig5 = tmp / "fig5.fdfa"
    fig5.write_text(format_fdfa(gen_fig5_fdfa()), encoding="utf-8")
    rand = tmp / "rand.aut"
    rand.write_text(format_automaton(gen_random_dba(1, 5, 3)), encoding="utf-8")
    rand6 = tmp / "rand6.aut"
    rand6.write_text(format_automaton(gen_random_dba(6, 5, 3)), encoding="utf-8")
    rand22 = tmp / "rand22.aut"
    rand22.write_text(format_automaton(gen_random_dba(22, 6, 2)),
                      encoding="utf-8")
    counter = tmp / "counter.aut"
    counter.write_text(format_automaton(counter_with_resets(0, 12, 0.3)),
                       encoding="utf-8")
    out, log = tmp / "out", tmp / "log"
    kind, _, arg = case.partition("-")
    if case == "canon-counter12":
        argv = ["canon", str(counter), "--flavor", "limit", "--out", str(out)]
    elif kind == "canon":
        argv = ["canon", str(fig1), "--flavor", arg, "--out", str(out)]
    elif kind == "translate":
        assert main(["canon", str(fig1), "--out", str(limit)]) == 0
        argv = ["translate", str(limit), "--to", arg, "--out", str(out)]
    elif kind == "decide":
        argv = ["decide", str(fig5)]
    else:
        periodic = tmp / "periodic.fdfa"
        if arg == "fig1-periodic":
            assert main(["canon", str(fig1), "--flavor", "periodic",
                         "--out", str(periodic)]) == 0
        teacher = {"fig1": f"dba:{fig1}", "fig5": f"fdfa:{fig5}",
                   "rand-5x3-s1": f"dba:{rand}",
                   "rand-5x3-s6": f"dba:{rand6}",
                   "rand-6x2-s22": f"dba:{rand22}",
                   "fig1-periodic": f"fdfa:{periodic}"}[arg]
        argv = ["learn", "--teacher", teacher, "--out", str(out),
                "--log", str(log)]
    capsys.readouterr()
    code = main(argv)
    parts = [f"exit: {code}\n", "--- stdout\n", capsys.readouterr().out]
    for name, path in (("out", out), ("log", log)):
        if path.exists():
            parts += [f"--- {name}\n", path.read_text(encoding="utf-8")]
    return "".join(parts)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, tmp_path, capsys):
    want = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert run_case(case, tmp_path, capsys) == want


def _lasso_text(result, alphabet) -> str:
    if result is None or result is True:
        return str(result)
    return (f"{alphabet.format_word(result.prefix)} "
            f"({alphabet.format_word(result.period)})^w")


def lasso_lines() -> str:
    """One line per call of the emptiness, inclusion and intersection
    engines on the limit FDFA NBAs of 60 seeded random DBAs (30 on 4 states
    over 2 letters, 30 on 5 states over 3): each NBA and its complement's
    alone, against the DBA and against a second random DBA, and both against
    the second DBA's complement NBA.  The NBAs are nondeterministic, so these
    lines pin which least lasso each engine picks among equally short runs."""
    lines = []
    for states, letters in ((4, 2), (5, 3)):
        for seed in range(30):
            d = gen_random_dba(seed, states, letters)
            other = gen_random_dba(seed + 100, states, letters)
            f = build_canonical_fdfa(d, LIMIT)
            nba = fdfa_to_nba(f)
            comp = fdfa_to_nba(complement_finals(f))
            other_comp = fdfa_to_nba(
                complement_finals(build_canonical_fdfa(other, LIMIT)))
            calls = [
                ("empty(nba)", one_pair_rabin_empty(nba)),
                ("empty(comp)", one_pair_rabin_empty(comp)),
                ("empty(nba, avoid every other acc)",
                 one_pair_rabin_empty(nba, frozenset(sorted(nba.acc)[::2]))),
                ("included(nba, d)", nba_dba_included(nba, d)),
                ("included(nba, other)", nba_dba_included(nba, other)),
                ("included(comp, other)", nba_dba_included(comp, other)),
                ("dba_meet(comp, d)", nba_dba_intersection_witness(comp, d)),
                ("dba_meet(nba, other)",
                 nba_dba_intersection_witness(nba, other)),
                ("dba_meet(comp, other)",
                 nba_dba_intersection_witness(comp, other)),
                ("nba_meet(nba, other_comp)",
                 nba_nba_intersection_witness(nba, other_comp)),
                ("nba_meet(other_comp, comp)",
                 nba_nba_intersection_witness(other_comp, comp)),
            ]
            for name, result in calls:
                lines.append(f"{states}x{letters}-s{seed} {name}: "
                             f"{_lasso_text(result, d.ts.alphabet)}\n")
    return "".join(lines)


def test_lassos_match_golden():
    want = (GOLDEN / "lassos.txt").read_text(encoding="utf-8")
    assert lasso_lines() == want
