"""Tests of the benchmark itself: seeded generators, the independent output
checks, the span recorder, and the refusal to run without the program.

Run from the repository root:  python3 -m pytest -q fdfabench/tests
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402

from omega_fdfa import cli  # noqa: E402
from omega_fdfa.zoo import (  # noqa: E402
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
)


def texts(inputs) -> list[str]:
    return [corpus.dba_text(i.dba) if i.dba else corpus.family_text(i.family)
            for i in inputs]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    make = corpus.INPUTS[workload]
    first = texts(make(random.Random(7)))
    assert texts(make(random.Random(7))) == first
    assert texts(make(random.Random(8))) != first


def test_parity_family_of_four_is_the_zoo_figure_5():
    zoo = gen_fig5_fdfa()
    ours = corpus.parity_family(4)
    p = ours.progress[0]
    assert tuple(tuple(p.edges[s][a][0][0] for a in range(4))
                 for s in range(4)) == zoo.progress[0].ts.delta
    assert p.finals == zoo.progress[0].finals


def zoo_inputs() -> list[corpus.Input]:
    rng = random.Random(0)
    dbas = {"fig1": gen_fig1(), "saa": gen_sigma_star_aa(),
            "ln-1": gen_ln(1), "ln-2": gen_ln(2), "ln-3": gen_ln(3)}
    out = [corpus.Input(key, corpus.relabel(corpus.from_package(d), rng))
           for key, d in dbas.items()]
    out += [corpus.Input(f"parity-{k}", family=corpus.parity_family(k),
                         parity_k=k) for k in (2, 3, 4)]
    return out


def test_checks_pass_on_the_zoo(tmp_path):
    jobs = run.sweep_jobs(zoo_inputs(), tmp_path, cli)
    results = run.run_pass(cli, jobs, run.Speedometer())
    tally = run.classify(results)
    kinds = {cmd.ident.split("/")[1] for cmd, _ in results}
    assert {"canon-limit", "decide", "translate-nba", "translate-dba"} <= kinds
    assert tally.attempted == len(results)
    assert (tally.wrong, tally.capped, tally.errored) == (0, 0, 0)
    assert tally.unexpected == []


def canon_limit(tmp_path: Path, d) -> tuple[corpus.Input, Path, str]:
    inp = corpus.Input("zoo", corpus.from_package(d))
    src = run.write(tmp_path / "in.aut", corpus.dba_text(inp.dba))
    out = tmp_path / "limit.fdfa"
    run.quiet(cli, ["canon", str(src), "--flavor", "limit", "--out", str(out)])
    return inp, src, out.read_text()


def test_checks_flag_one_flipped_progress_final(tmp_path):
    inp, src, text = canon_limit(tmp_path, gen_fig1())
    check = run.check_family(run.reference(inp, src), inp, run.CANON_BUDGET,
                             "limit")
    assert check(0, "", text) is None
    f = oracle.parse_family(text)
    # flip the progress state that a period returning to its own leading
    # state in one step reaches: that decides u.v^omega for the class rep
    lead = f.leading
    q, v = next((q, (a,)) for q in range(lead.states)
                for a in range(len(f.letters))
                if lead.edges[q][a][0][0] == q)
    p = f.progress[q]
    s = p.edges[p.initial][v[0]][0][0]
    p.finals = p.finals ^ {s}
    assert check(0, "", corpus.family_text(f)) is not None


def test_checks_flag_one_dropped_acc_mark(tmp_path):
    inp, src, text = canon_limit(tmp_path, gen_sigma_star_aa())
    fb = run.write(tmp_path / "fb.fdfa", corpus.family_text(
        corpus.sink_final_variant(oracle.parse_family(text))))
    out = tmp_path / "dba.aut"
    run.quiet(cli, ["translate", str(fb), "--to", "dba", "--out", str(out)])
    check = run.check_automaton(run.reference(inp, src), inp, True)
    good = out.read_text()
    assert check(0, "", good) is None
    marked = [ln for ln in good.splitlines() if ln.endswith(" acc")]
    assert marked
    for line in marked:
        dropped = good.replace(line + "\n", line[:-len(" acc")] + "\n")
        if check(0, "", dropped) is not None:
            return
    pytest.fail("no dropped acc mark was flagged")


def test_checks_flag_the_learned_hypothesis_of_6_5_3(tmp_path):
    inp = corpus.Input("rand-5x3-s6",
                       corpus.from_package(gen_random_dba(6, 5, 3)))
    src = run.write(tmp_path / "in.aut", corpus.dba_text(inp.dba))
    out = tmp_path / "learned.fdfa"
    run.quiet(cli, ["learn", "--teacher", f"dba:{src}", "--out", str(out)])
    check = run.check_family(run.reference(inp, src), inp, run.LEARN_BUDGET)
    assert check(0, "", out.read_text()) is not None


def test_traced_run_leaves_outputs_byte_identical(tmp_path):
    inputs = zoo_inputs()[:3]
    learn_inp = corpus.Input("rand-4x2-s2",
                             corpus.from_package(gen_random_dba(2, 4, 2)))
    jobs = run.sweep_jobs(inputs, tmp_path, cli) \
        + run.learn_jobs([learn_inp], tmp_path, cli)
    untraced = run.run_pass(cli, jobs, run.Speedometer())
    recorder = Recorder()
    recorder.install()
    try:
        traced = run.run_pass(cli, jobs, run.Speedometer())
    finally:
        recorder.uninstall()
    assert len(traced) == len(untraced)
    for (_, a), (_, b) in zip(untraced, traced):
        assert (a.code, a.stdout, a.stderr, a.output) \
            == (b.code, b.stdout, b.stderr, b.output)
    m = recorder.metrics(1)
    assert m["cli.commands"] == len(traced)
    assert m["congruence.profile_builds"] > 0
    assert m["learn.eq"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "canon-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
