"""Seeded inputs for the benchmark workloads.

The corpus of languages is fixed: every run measures the same random DBAs,
separation-family members, counters and parity families, so a run's medians
differ from another run's only by timing noise and not by which instances
were drawn.  The workload seed gives each run its own presentation of that
corpus: every DBA gets a seeded state numbering, and the commands run in a
seeded order.  The program only ever sees the files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import Automaton, Family

# Random DBAs for canon-sweep, as (states, letters, gen_random_dba seed).
# 8-state seeds 0 and 16 are left out: each flavor takes 13-16 s below the
# profile cap, longer than a whole run.
SWEEP_DBAS = (
    [(6, 2, s) for s in range(6)]
    + [(7, 2, s) for s in range(6)]
    + [(5, 3, s) for s in range(6)]
    + [(6, 3, s) for s in range(4)]
    + [(8, 2, s) for s in (1, 3, 4, 5)]
)
# gen_random_dba(2, 8, 2) reaches the 200k profile cap in every flavor after
# about 1.5 s; it runs in the limit flavor only, which keeps the cap hit in
# every pass at a quarter of the cost.
SWEEP_CAPPED = (8, 2, 2)
# gen_ln(9..12) would add 5 s to a pass of about 8 s.
SWEEP_LN = tuple(range(1, 9))
PARITY_KS = tuple(range(2, 9))
FLAVORS = ("periodic", "syntactic", "recurrent", "limit")

# Counters with resets for canon-wide, as (states, generator seed).  Among
# generator seeds 0..7 whose DBA has as many leading classes as states, these
# have the smallest canonical limit FDFAs, i.e. the smallest transition
# monoids.  From 36 states on a command costs 4-13 s, too long to repeat.
WIDE_COUNTERS = ((24, 2), (24, 4), (28, 6), (28, 4), (32, 1))

# Learner targets: reference DBAs as (states, letters, seed) ...
LEARN_DBAS = (
    [(5, 2, s) for s in (0, 1)]
    + [(5, 3, s) for s in (0, 1, 3, 6, 16, 21)]
    + [(6, 2, s) for s in (19, 22)]
)
# ... and FDFA teachers: the canonical limit FDFA of a small DBA, plus the
# parity family with k = 4 (the zoo's gen_fig5_fdfa).
LEARN_FDFA_DBAS = ((4, 3, 0),)
LEARN_PARITY_K = 4

# Known defects at the commit that introduced the benchmark.  They stay in
# the draw and are counted in wrong_share / capped_share; an outcome of this
# kind on any other input is an unexpected failure.
KNOWN_CAPPED = {"rand-%dx%d-s%d" % SWEEP_CAPPED}
KNOWN_WRONG = {"rand-5x3-s6", "rand-5x3-s16", "rand-5x3-s21",
               "rand-6x2-s19", "rand-6x2-s22"}


@dataclass(frozen=True)
class Dba:
    """Raw tables of a deterministic Buchi automaton."""

    letters: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    acc: frozenset[tuple[int, int]]
    initial: int = 0

    @property
    def states(self) -> int:
        return len(self.delta)


def from_package(d) -> Dba:
    """Raw tables of an ``omega_fdfa`` DetOmega (used on zoo output)."""
    return Dba(tuple(d.ts.alphabet.letters), tuple(d.ts.delta),
               frozenset(d.acc), d.ts.initial)


def relabel(d: Dba, rng: random.Random) -> Dba:
    """The same automaton under a random state numbering."""
    perm = list(range(d.states))
    rng.shuffle(perm)
    delta: list[tuple[int, ...]] = [()] * d.states
    for s, row in enumerate(d.delta):
        delta[perm[s]] = tuple(perm[t] for t in row)
    acc = frozenset((perm[s], a) for s, a in d.acc)
    return Dba(d.letters, tuple(delta), acc, perm[d.initial])


def counter_dba(seed: int, states: int, density: float = 0.3) -> Dba:
    """A counter with resets over {a, b}: letter a is one cycle through all
    states, letter b sends every state into a seeded 2-state image, and
    each transition accepts with probability ``density``."""
    rng = random.Random(seed)
    image = rng.sample(range(states), 2)
    delta = tuple(((s + 1) % states, rng.choice(image)) for s in range(states))
    acc = frozenset((s, a) for s in range(states) for a in range(2)
                    if rng.random() < density)
    return Dba(("a", "b"), delta, acc)


def parity_family(k: int) -> Family:
    """Limit FDFA of "the maximal letter seen infinitely often is even" over
    {1..k}: one leading state; the progress DFA tracks the maximal letter so
    far, with epsilon merged into the max-1 class."""
    letters = tuple(str(i) for i in range(1, k + 1))
    leading = Automaton(letters, 1, 0, [{a: [(0, False)] for a in range(k)}])
    progress = Automaton(
        letters, k, 0,
        [{a: [(max(m, a), False)] for a in range(k)} for m in range(k)],
        frozenset(m for m in range(k) if (m + 1) % 2 == 0))
    return Family(letters, leading, [progress], "limit")


def sink_final_variant(f: Family) -> Family:
    """Keep only the final states that loop on every letter."""
    progress = []
    for p in f.progress:
        sinks = frozenset(s for s in p.finals
                          if all(p.edges[s][a][0][0] == s
                                 for a in range(len(f.letters))))
        progress.append(Automaton(p.letters, p.states, p.initial, p.edges,
                                  sinks))
    return Family(f.letters, f.leading, progress, f.flavor)


# --------------------------------------------------------------------------
# writers for the workbench text format


def dba_text(d: Dba) -> str:
    lines = ["alphabet: " + " ".join(d.letters), f"states: {d.states}",
             f"initial: {d.initial}", "acceptance: buchi"]
    for s, row in enumerate(d.delta):
        for a, t in enumerate(row):
            mark = " acc" if (s, a) in d.acc else ""
            lines.append(f"trans: {s} {d.letters[a]} {t}{mark}")
    return "\n".join(lines) + "\n"


def _dfa_lines(p: Automaton) -> list[str]:
    lines = [f"states: {p.states}", f"initial: {p.initial}"]
    for s in range(p.states):
        for a in sorted(p.edges[s]):
            lines.append(f"trans: {s} {p.letters[a]} {p.edges[s][a][0][0]}")
    if p.finals is not None:
        lines.append("finals: " + " ".join(str(s) for s in sorted(p.finals)))
    return lines


def family_text(f: Family) -> str:
    lines = ["fdfa"]
    if f.flavor:
        lines.append(f"flavor: {f.flavor}")
    lines += ["leading", "alphabet: " + " ".join(f.letters)]
    lines += _dfa_lines(f.leading)
    for i, p in enumerate(f.progress):
        lines.append(f"progress {i}")
        lines += _dfa_lines(p)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# the corpus of each workload


@dataclass(frozen=True)
class Input:
    """One generated input: ``key`` names the language, ``dba`` is set for
    DBA inputs (the reference for every check) and ``family`` for FDFA
    inputs; ``parity_k`` marks parity-family languages and ``flavors`` are
    the canon flavors a DBA input is built in."""

    key: str
    dba: Dba | None = None
    family: Family | None = None
    parity_k: int = 0
    flavors: tuple[str, ...] = FLAVORS


def random_key(n: int, k: int, seed: int) -> str:
    return f"rand-{n}x{k}-s{seed}"


def sweep_inputs(rng: random.Random) -> list[Input]:
    from omega_fdfa.zoo import gen_ln, gen_random_dba

    out = [Input(random_key(n, k, s),
                 relabel(from_package(gen_random_dba(s, n, k)), rng))
           for n, k, s in SWEEP_DBAS]
    n, k, s = SWEEP_CAPPED
    out.append(Input(random_key(n, k, s),
                     relabel(from_package(gen_random_dba(s, n, k)), rng),
                     flavors=("limit",)))
    out += [Input(f"ln-{n}", relabel(from_package(gen_ln(n)), rng))
            for n in SWEEP_LN]
    out += [Input(f"parity-{k}", family=parity_family(k), parity_k=k)
            for k in PARITY_KS]
    return out


def wide_inputs(rng: random.Random) -> list[Input]:
    return [Input(f"counter-{n}-s{s}", relabel(counter_dba(s, n), rng))
            for n, s in WIDE_COUNTERS]


def learn_inputs(rng: random.Random) -> list[Input]:
    """DBA teachers get a relabelled DBA; FDFA teachers get the family of
    the (unrelabelled) small DBA, written during set-up, with that DBA kept
    as the reference."""
    from omega_fdfa.zoo import gen_random_dba

    out = [Input(random_key(n, k, s),
                 relabel(from_package(gen_random_dba(s, n, k)), rng))
           for n, k, s in LEARN_DBAS]
    out += [Input("fdfa-" + random_key(n, k, s),
                  from_package(gen_random_dba(s, n, k)))
            for n, k, s in LEARN_FDFA_DBAS]
    out.append(Input(f"fdfa-parity-{LEARN_PARITY_K}",
                     family=parity_family(LEARN_PARITY_K),
                     parity_k=LEARN_PARITY_K))
    return out


INPUTS = {"canon-sweep": sweep_inputs, "canon-wide": wide_inputs,
          "learn": learn_inputs}
