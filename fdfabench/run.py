"""Benchmark of the omega-fdfa workbench, run from the repository root:

    python3 fdfabench/run.py --workload canon-sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``canon-sweep``: ``canon`` in all four flavors on random DBAs and on
  gen_ln(1..12); each limit FDFA then goes through ``decide`` and
  ``translate --to nba|ldba``, and its sink-final variant through
  ``translate --to dba``; parity families get ``decide`` and ``translate``.
* ``canon-wide``: ``canon --flavor limit`` on counters with resets of 24 to
  40 states, one leading class per state.
* ``learn``: ``learn`` against DBA teachers and FDFA teachers.
* ``all``: each of the three in its own process, one after the other, and a
  table of every end-to-end metric per workload.

The load is a closed loop: one client in one process runs one command at a
time through ``omega_fdfa.cli.main``.  A pass runs every command of the
workload once; passes repeat until ``--seconds`` have gone by.  Every output
is then checked by the independent oracle in ``oracle.py``, outside the timed
region.  With ``--trace 1`` the run makes one untraced pass, then traced
passes, and reports the per-layer metrics of ``spans.py`` instead of the
end-to-end ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import oracle
from spans import Recorder, unit_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("canon-sweep", "canon-wide", "learn")
HEADLINE = {"canon-sweep": "canon", "canon-wide": "canon", "learn": "learn"}
SETUP_REPEATS = 5

# Length bounds of the output checks, as the number of periods compared per
# reachable state pair.  The learner's budget reaches |u| + |v| = 10 on two
# letters and 6 on three, enough to flag every known wrong hypothesis.
CANON_BUDGET = 300
AUTOMATON_BUDGET = 126
LEARN_BUDGET = 2500


class ProgramMissing(RuntimeError):
    """The checkout has no omega_fdfa sources to benchmark."""


def import_program():
    """Import ``omega_fdfa.cli`` from this checkout's ``src`` afresh."""
    if not (SRC / "omega_fdfa" / "cli.py").is_file():
        raise ProgramMissing(f"no omega_fdfa sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "omega_fdfa" or m.startswith("omega_fdfa.")]:
        del sys.modules[name]
    import omega_fdfa.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"omega_fdfa imported from {cli.__file__}")
    return cli


# --------------------------------------------------------------------------
# processor speed


def _kernel() -> int:
    """Fixed pure-Python work shaped like the program's heaviest loop:
    transition profiles (tuples of (state, bit) pairs) closed under two
    letters and keyed in a dict, about 10 MB of small objects."""
    rng = random.Random(5)
    n = 24
    letters = [tuple((rng.randrange(n), rng.randrange(2)) for _ in range(n))
               for _ in range(2)]
    start = tuple((q, 0) for q in range(n))
    seen = {start: 0}
    order = [start]
    i = 0
    while i < len(order) and len(order) < 3000:
        for g in letters:
            q = tuple((g[s][0], b | g[s][1]) for s, b in order[i])
            if q not in seen:
                seen[q] = len(order)
                order.append(q)
        i += 1
    return len(order)


class Speedometer:
    """Samples how long the fixed kernel takes, at most every
    ``EVERY`` seconds between commands.  Other tenants of a shared machine
    slow its processor by up to half for seconds to minutes; the program and
    the kernel slow alike, so a command's time times NOMINAL over the
    kernel's time nearby is its time at the nominal speed."""

    NOMINAL = 0.015  # kernel seconds at the speed the figures are scaled to
    EVERY = 0.5
    WINDOW = 2.0

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel: list[float] = []

    def sample(self) -> None:
        gc.disable()  # a collection of the program's garbage is no sample
        try:
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.times.append((start + end) / 2)
        self.kernel.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] > self.EVERY:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL over the median kernel time within WINDOW of the span."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW)
        hi = bisect.bisect_right(self.times, end + self.WINDOW)
        near = self.kernel[lo:hi] or [self.kernel[min(lo, len(self.kernel) - 1)]]
        return self.NOMINAL / statistics.median(near)

    def seconds(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, start + seconds)


# --------------------------------------------------------------------------
# commands and their outcomes


@dataclass
class Command:
    """One CLI invocation; ``check`` maps (exit code, stdout, output file
    text) to None when the output is right, else to a reason."""

    ident: str
    kind: str
    key: str
    argv: list[str]
    out: Path | None
    check: object


@dataclass
class Outcome:
    start: float
    seconds: float
    code: int
    stdout: str
    stderr: str
    output: str | None


@dataclass
class Tally:
    """Classified outcomes of one run."""

    attempted: int = 0
    wrong: int = 0
    capped: int = 0
    errored: int = 0
    unexpected: list[str] = field(default_factory=list)


def run_command(cli, cmd: Command) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(cmd.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is an errored command
            print(f"exception: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
    seconds = time.perf_counter() - start
    output = None
    if cmd.out is not None and code in (0, 3) and cmd.out.exists():
        output = cmd.out.read_text(encoding="utf-8")
    return Outcome(start, seconds, code, out.getvalue(), err.getvalue(), output)


# --------------------------------------------------------------------------
# checks


def _nletters(inp: corpus.Input) -> int:
    return len(inp.dba.letters if inp.dba else inp.family.letters)


def reference(inp: corpus.Input, path: Path | None) -> oracle.Acceptor:
    """The language an input stands for, read back from its own file."""
    if inp.parity_k:
        return oracle.ParityLanguage()
    return oracle.DbaAcceptor(oracle.parse_automaton(path.read_text()))


def check_family(ref, inp, budget, flavor=None, ln_sizes=False):
    def check(code, stdout, output):
        f = oracle.parse_family(output)
        if flavor and f.flavor != flavor:
            return f"flavor {f.flavor!r} instead of {flavor!r}"
        k = _nletters(inp)
        bad = oracle.agree_upto(ref, oracle.FamilyAcceptor(f), k,
                                oracle.bound_for(k, budget))
        if bad:
            return f"disagrees with the reference on u={bad[0]} v={bad[1]}"
        if ln_sizes:
            n = int(inp.key.split("-")[1])
            want = {"limit": 3 * n + 5, "recurrent": n * n + 4 * n + 5}
            if flavor in want and oracle.family_size(f) != want[flavor]:
                return f"total {oracle.family_size(f)} instead of {want[flavor]}"
        return None
    return check


def check_automaton(ref, inp, deterministic):
    def check(code, stdout, output):
        aut = oracle.parse_automaton(output)
        test = oracle.DbaAcceptor(aut) if deterministic \
            else oracle.NbaAcceptor(aut)
        k = _nletters(inp)
        bad = oracle.agree_upto(ref, test, k,
                                oracle.bound_for(k, AUTOMATON_BUDGET))
        if bad:
            return f"disagrees with the reference on u={bad[0]} v={bad[1]}"
        return None
    return check


def check_decide(inp, family_path: Path):
    """DBA inputs are DBA-recognizable; the parity family over {1..k} is so
    iff k <= 2.  Odd k fails the sink-final check, even k >= 4 needs a
    witness in the language of the family but not of its sink-final
    variant."""
    expect_yes = not inp.parity_k or inp.parity_k <= 2

    def check(code, stdout, output):
        said_yes = code == 0 and "recognizable: yes" in stdout
        if said_yes != expect_yes:
            return f"verdict {'yes' if said_yes else 'no'} is wrong"
        if said_yes:
            return None
        witness = [ln for ln in stdout.splitlines() if ln.startswith("witness:")]
        if inp.parity_k % 2:
            return "unexpected witness" if witness else None
        if not witness:
            return "missing witness"
        f = oracle.parse_family(family_path.read_text())
        index = {x: i for i, x in enumerate(f.letters)}
        stem_text, loop_text = witness[0].split()[1:3]
        stem = tuple(index[c] for c in stem_text if stem_text != "-")
        loop = tuple(index[c] for c in loop_text)
        if not (oracle.ParityLanguage().accepts_loop(0, loop)
                and accepts(oracle.FamilyAcceptor(f), stem, loop)
                and not accepts(oracle.FamilyAcceptor(
                    corpus.sink_final_variant(f)), stem, loop)):
            return f"witness {stem_text} {loop_text} does not replay"
        return None
    return check


def accepts(acceptor: oracle.Acceptor, u, v) -> bool:
    state = acceptor.start()
    for a in u:
        state = acceptor.succ(state, a)
    return acceptor.accepts_loop(state, v)


# --------------------------------------------------------------------------
# workloads: set-up writes the files and builds the command list


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def sweep_jobs(inputs, work: Path, cli) -> list[list]:
    jobs = []
    for inp in inputs:
        d = work / inp.key
        d.mkdir()
        job: list = []
        if inp.dba:
            src = write(d / "in.aut", corpus.dba_text(inp.dba))
            ref = reference(inp, src)
            for flavor in inp.flavors:
                out = d / f"{flavor}.fdfa"
                job.append(Command(
                    f"{inp.key}/canon-{flavor}", "canon", inp.key,
                    ["canon", str(src), "--flavor", flavor, "--out", str(out)],
                    out, check_family(ref, inp, CANON_BUDGET, flavor,
                                      inp.key.startswith("ln-"))))
            limit = d / "limit.fdfa"
        else:
            limit = write(d / "in.fdfa", corpus.family_text(inp.family))
            ref = reference(inp, None)
        job.append(Command(f"{inp.key}/decide", "decide", inp.key,
                           ["decide", str(limit)], None,
                           check_decide(inp, limit)))
        for to in ("nba", "ldba"):
            out = d / f"{to}.aut"
            job.append(Command(f"{inp.key}/translate-{to}", "translate",
                               inp.key, ["translate", str(limit), "--to", to,
                                         "--out", str(out)],
                               out, check_automaton(ref, inp, False)))
        if not inp.parity_k or inp.parity_k <= 2:
            job.append(("sink-final", limit, d / "fb.fdfa"))
            out = d / "dba.aut"
            job.append(Command(f"{inp.key}/translate-dba", "translate",
                               inp.key, ["translate", str(d / "fb.fdfa"),
                                         "--to", "dba", "--out", str(out)],
                               out, check_automaton(ref, inp, True)))
        jobs.append(job)
    return jobs


def wide_jobs(inputs, work: Path, cli) -> list[list]:
    jobs = []
    for inp in inputs:
        src = write(work / f"{inp.key}.aut", corpus.dba_text(inp.dba))
        out = work / f"{inp.key}.fdfa"
        jobs.append([Command(
            f"{inp.key}/canon-limit", "canon", inp.key,
            ["canon", str(src), "--flavor", "limit", "--out", str(out)], out,
            check_family(reference(inp, src), inp, CANON_BUDGET, "limit"))])
    return jobs


def learn_jobs(inputs, work: Path, cli) -> list[list]:
    jobs = []
    for inp in inputs:
        if inp.parity_k:
            teacher = write(work / f"{inp.key}.fdfa",
                            corpus.family_text(inp.family))
            ref = reference(inp, None)
        else:
            src = write(work / f"{inp.key}.aut", corpus.dba_text(inp.dba))
            ref = reference(inp, src)
            teacher = src
            if inp.key.startswith("fdfa-"):
                teacher = work / f"{inp.key}.fdfa"
                quiet(cli, ["canon", str(src), "--flavor", "limit",
                            "--out", str(teacher)])
        kind = "fdfa" if teacher.suffix == ".fdfa" else "dba"
        out = work / f"{inp.key}.learned.fdfa"
        jobs.append([Command(
            f"{inp.key}/learn", "learn", inp.key,
            ["learn", "--teacher", f"{kind}:{teacher}", "--out", str(out)],
            out, check_family(ref, inp, LEARN_BUDGET))])
    return jobs


def quiet(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"set-up command failed: {argv}")


JOBS = {"canon-sweep": sweep_jobs, "canon-wide": wide_jobs,
        "learn": learn_jobs}


def set_up(workload: str, seed: int, work: Path):
    """Import the program, generate the inputs, write the files; returns
    the CLI module and the jobs in their seeded order."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cli = import_program()
    rng = random.Random(f"{workload}/{seed}")
    inputs = corpus.INPUTS[workload](rng)
    jobs = JOBS[workload](inputs, work, cli)
    rng.shuffle(jobs)
    return cli, jobs


# --------------------------------------------------------------------------
# the closed loop


def run_pass(cli, jobs, speed: Speedometer) -> list[tuple[Command, Outcome]]:
    done = []
    for job in jobs:
        for step in job:
            if isinstance(step, tuple):
                _, limit, target = step
                if not limit.exists():
                    break
                fam = oracle.parse_family(limit.read_text())
                write(target, corpus.family_text(corpus.sink_final_variant(fam)))
                continue
            speed.maybe_sample()
            outcome = run_command(cli, step)
            done.append((step, outcome))
            if step.kind == "canon" and outcome.code != 0 \
                    and step.argv[3] == "limit":
                break
    speed.sample()
    return done


def classify(results) -> Tally:
    """Check every distinct output once, then count outcomes."""
    tally = Tally()
    verdicts: dict[tuple, str | None] = {}
    for cmd, res in results:
        tally.attempted += 1
        capped = res.code == 4 or (res.code == 2 and "exceeded cap" in res.stderr)
        if capped:
            tally.capped += 1
            if cmd.key not in corpus.KNOWN_CAPPED:
                tally.unexpected.append(f"{cmd.ident}: capped")
            continue
        expected_codes = (0, 3) if cmd.kind == "decide" else (0,)
        if res.code not in expected_codes or (cmd.out and res.output is None):
            tally.errored += 1
            tally.unexpected.append(
                f"{cmd.ident}: exit {res.code}: {res.stderr.strip()[:200]}")
            continue
        key = (cmd.ident, res.code, res.stdout, res.output)
        if key not in verdicts:
            try:
                verdicts[key] = cmd.check(res.code, res.stdout, res.output)
            except (oracle.FormatError, ValueError, KeyError, IndexError) as exc:
                verdicts[key] = f"unreadable output: {exc!r}"
        if verdicts[key] is not None:
            tally.wrong += 1
            if cmd.key not in corpus.KNOWN_WRONG:
                tally.unexpected.append(f"{cmd.ident}: {verdicts[key]}")
    return tally


def loop(cli, jobs, seconds: float, speed: Speedometer,
         recorder: Recorder | None = None):
    """Passes until ``seconds`` have gone by.  With a recorder, the first
    pass runs untraced and the rest traced."""
    passes: list[list] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds \
            or (recorder is not None and len(passes) < 2):
        if recorder is not None and len(passes) == 1:
            recorder.install()
        passes.append(run_pass(cli, jobs, speed))
    if recorder is not None:
        recorder.uninstall()
    return passes


# --------------------------------------------------------------------------
# metrics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest of p99.9, p99, p90, p50 with at least ten samples above
    it, as (percentile, value)."""
    for p in (99.9, 99, 90, 50):
        if len(values) - math.ceil(p / 100 * len(values)) >= 10:
            return p, percentile(values, p)
    return 50, statistics.median(values)


def report(workload: str, passes, speed: Speedometer, setup_s: float,
           rss_mb: float, tally: Tally) -> tuple[dict, list[str]]:
    """End-to-end metrics for the driver plus the full per-command table.
    Each command runs once per pass; its time is the median over passes of
    its time at the nominal processor speed."""
    samples: dict[str, tuple[str, list[float], list[float]]] = {}
    for cmd, res in (r for p in passes for r in p):
        _, scaled, raw = samples.setdefault(cmd.ident, (cmd.kind, [], []))
        scaled.append(speed.seconds(res.start, res.seconds))
        raw.append(res.seconds)
    times: dict[str, list[float]] = {}
    raw_times: dict[str, list[float]] = {}
    for kind, scaled, raw in samples.values():
        times.setdefault(kind, []).append(statistics.median(scaled))
        raw_times.setdefault(kind, []).append(statistics.median(raw))
    head = times[HEADLINE[workload]]
    busy = sum(sum(t) for t in times.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_s.p50": (statistics.median(head), "s"),
        "ops_per_s": (len(samples) / busy, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    kernel = sorted(speed.kernel)
    lines = [f"workload {workload}: {len(samples)} commands x {len(passes)} "
             f"passes; times scaled to a kernel time of "
             f"{Speedometer.NOMINAL * 1000:g} ms (measured: median "
             f"{statistics.median(kernel) * 1000:.2f} ms, range "
             f"{kernel[0] * 1000:.2f}-{kernel[-1] * 1000:.2f} ms)"]
    for kind in ("canon", "decide", "translate", "learn"):
        if kind in times:
            lines.append(f"{kind}_s.p50 {statistics.median(times[kind]):.6f} s "
                         f"(n={len(times[kind])}; unscaled "
                         f"{statistics.median(raw_times[kind]):.6f} s)")
        else:
            lines.append(f"{kind}_s.p50 n/a")
    if "canon" in times:
        p, value = tail(times["canon"])
        lines.append(f"canon_s.tail {value:.6f} s (p{p:g} of "
                     f"n={len(times['canon'])})")
    n = max(tally.attempted, 1)
    failed = tally.wrong + tally.capped + tally.errored
    lines += [
        f"setup_s {setup_s:.6f} s",
        f"ops_per_s {metrics['ops_per_s'][0]:.4f} 1/s",
        f"peak_rss_mb {rss_mb:.1f} MB",
        f"wrong_share {tally.wrong / n:.4f} ratio ({tally.wrong}/{n})",
        f"capped_share {tally.capped / n:.4f} ratio ({tally.capped}/{n})",
        f"failed_share {failed / n:.4f} ratio ({failed}/{n}; "
        f"unexpected {len(tally.unexpected)})",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def run_workload(args) -> int:
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    speed = Speedometer()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            speed.sample()
            start = time.perf_counter()
            cli, jobs = set_up(args.workload, args.seed, work)
            setups.append((start, time.perf_counter() - start))
            speed.sample()
        setup_s = statistics.median(speed.seconds(*s) for s in setups)
        recorder = Recorder() if args.trace else None
        passes = loop(cli, jobs, args.seconds, speed, recorder)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally = classify([r for p in passes for r in p])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for line in tally.unexpected:
        print(f"unexpected: {line}")
    if args.trace:
        def busy(p):
            return sum(speed.seconds(res.start, res.seconds) for _, res in p)

        untraced = busy(passes[0])
        traced = sum(busy(p) for p in passes[1:]) / (len(passes) - 1)
        layer = recorder.metrics(len(passes) - 1)
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.overhead_share"] = (traced - untraced) / untraced
        for name, value in sorted(layer.items()):
            print(f"{name} {value:.6g} {unit_of(name)}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        metrics, lines = report(args.workload, passes, speed, setup_s, rss_mb,
                                tally)
        print("\n".join(lines))
    print(json.dumps({"correct": not tally.unexpected,
                      "attempted": tally.attempted,
                      "failed": len(tally.unexpected),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        rows[workload] = json.loads(lines[-1])
    print(json.dumps(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
