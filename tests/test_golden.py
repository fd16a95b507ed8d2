"""Golden outputs: the exact bytes the CLI prints and writes on the zoo's
Figure 1 DBA and parity FDFA and on one random DBA.  State numbering reaches
these outputs through unminimized products (syntactic progress DFAs), the DBA
translation and the decision witness, so any change to exploration order
shows up here.  The learner's logs pin every membership query in order; the
random DBA's run is one where progress representatives collapse after a
leading refinement."""

from __future__ import annotations

import pathlib

import pytest

from omega_fdfa import gen_fig1, gen_fig5_fdfa, gen_random_dba
from omega_fdfa.cli import format_automaton, format_fdfa, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = ["canon-periodic", "canon-syntactic", "canon-recurrent", "canon-limit",
         "translate-nba", "translate-ldba", "translate-dba", "decide-fig5",
         "learn-fig1", "learn-fig5", "learn-rand-5x3-s1"]


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
    out, log = tmp / "out", tmp / "log"
    kind, _, arg = case.partition("-")
    if kind == "canon":
        argv = ["canon", str(fig1), "--flavor", arg, "--out", str(out)]
    elif kind == "translate":
        assert main(["canon", str(fig1), "--out", str(limit)]) == 0
        argv = ["translate", str(limit), "--to", arg, "--out", str(out)]
    elif kind == "decide":
        argv = ["decide", str(fig5)]
    else:
        teacher = {"fig1": f"dba:{fig1}", "fig5": f"fdfa:{fig5}",
                   "rand-5x3-s1": f"dba:{rand}"}[arg]
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
