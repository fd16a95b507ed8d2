"""Generators for the reference languages used in examples, tests, and
benchmarks, plus seeded random DBAs."""

from __future__ import annotations

import random

from .core_automata import (
    Alphabet,
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
)
from .fdfa import Fdfa, LIMIT


def gen_ln(n: int) -> DetOmega:
    """The separation family over {0..n}: a ring of states q_0..q_n plus a
    rejecting sink.  q_i loops on letter i (except q_n, whose own letter is
    dead -- this keeps the sink reachable when n = 1), moves to
    q_{(i+1) mod (n+1)} on letter (i+1) mod (n+1), and falls into the sink
    on everything else.  All transitions among the live states are
    accepting, so the language is "the run never leaves the live states"."""
    if n < 1:
        raise AutomatonError("n must be >= 1")
    alphabet = Alphabet(tuple([str(i) for i in range(n + 1)]))
    sink = n + 1
    delta = []
    acc = set()
    for i in range(n + 1):
        row = [sink] * (n + 1)
        if i < n:
            row[i] = i
            acc.add((i, i))
        nxt = (i + 1) % (n + 1)
        row[nxt] = nxt
        acc.add((i, nxt))
        delta.append(tuple(row))
    delta.append((sink,) * (n + 1))
    ts = DetTS(alphabet, n + 2, 0, tuple(delta))
    return DetOmega(ts, frozenset(acc), BUCHI)


def gen_fig1() -> DetOmega:
    """A 5-state DBA for a^omega + a.b^omega over {a, b}: state 1 is the
    one-a commit point, state 2 tracks a^omega, state 3 tracks a.b^omega,
    state 4 is the rejecting sink."""
    alphabet = Alphabet(("a", "b"))
    delta = (
        (1, 4),  # 0: start
        (2, 3),  # 1: read one a, not yet committed
        (2, 4),  # 2: committed to a^omega
        (4, 3),  # 3: committed to a.b^omega
        (4, 4),  # 4: sink
    )
    acc = frozenset({(2, 0), (3, 1)})
    return DetOmega(DetTS(alphabet, 5, 0, delta), acc, BUCHI)


def gen_sigma_star_aa() -> DetOmega:
    """A 2-state DBA over {a, b} for "infinitely many aa infixes": state 1
    means the previous letter was a; the transition completing aa is
    accepting."""
    alphabet = Alphabet(("a", "b"))
    delta = (
        (1, 0),  # 0: last letter was not a
        (1, 0),  # 1: last letter was a
    )
    acc = frozenset({(1, 0)})
    return DetOmega(DetTS(alphabet, 2, 0, delta), acc, BUCHI)


def gen_fig5_fdfa() -> Fdfa:
    """The limit FDFA (not DBA-recognizable) of "the maximal letter occurring
    infinitely often is even" over {1, 2, 3, 4}.  One leading state; the
    progress DFA tracks the maximal letter seen so far, with epsilon merged
    into the max-1 class; even-max classes are final and the max-4 class is
    an absorbing sink final."""
    alphabet = Alphabet(("1", "2", "3", "4"))
    leading = DetTS(alphabet, 1, 0, ((0, 0, 0, 0),))
    # progress states: 0 = {epsilon, max 1}, 1 = max 2, 2 = max 3, 3 = max 4
    delta = tuple([tuple([max(m, a) for a in range(4)]) for m in range(4)])
    progress = Dfa(DetTS(alphabet, 4, 0, delta), frozenset({1, 3}))
    return Fdfa(leading, (progress,), labels=((),), flavor=LIMIT)


def gen_random_dba(seed: int, states: int, alphabet_size: int,
                   acc_density: float = 0.5) -> DetOmega:
    """A seeded-deterministic random total DBA."""
    if states < 1 or alphabet_size < 1:
        raise AutomatonError("states and alphabet_size must be >= 1")
    rng = random.Random(seed)
    alphabet = Alphabet(tuple([chr(ord("a") + i)
                               for i in range(alphabet_size)]))
    delta = tuple([tuple([rng.randrange(states) for _ in range(alphabet_size)])
                   for _ in range(states)])
    acc = frozenset((s, a)
                    for s in range(states) for a in range(alphabet_size)
                    if rng.random() < acc_density)
    return DetOmega(DetTS(alphabet, states, 0, delta), acc, BUCHI)
