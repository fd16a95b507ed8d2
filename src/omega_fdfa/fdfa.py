"""Families of DFAs: acceptance semantics, normalization, an exact
saturation check, sink-final analysis, final-set surgery, the canonical
limit form of a family, and isomorphism of leading DFAs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .core_automata import (
    AutomatonError,
    DetTS,
    Dfa,
    ResourceLimitError,
    UpWord,
    Word,
    dfa_minimize,
    dfa_product,
    run_word,
    shortest_state_words,
)

PERIODIC = "periodic"
SYNTACTIC = "syntactic"
RECURRENT = "recurrent"
LIMIT = "limit"
FLAVORS = (PERIODIC, SYNTACTIC, RECURRENT, LIMIT)


class SinkFinalMissing(AutomatonError):
    """A progress DFA has final states but no sink final state."""

    def __init__(self, u_class: int):
        super().__init__(f"progress DFA of leading state {u_class} "
                         "has finals but no sink final state")
        self.u_class = u_class


@dataclass(frozen=True)
class Fdfa:
    """A leading DFA without finals plus one progress DFA per leading state.

    ``labels`` are optional representative words (metadata only); ``flavor``
    records which progress congruence the family was built with, if known.
    """

    leading: DetTS
    progress: tuple[Dfa, ...]
    labels: tuple[Word, ...] | None = None
    flavor: str | None = None

    def __post_init__(self) -> None:
        if len(self.progress) != self.leading.state_count:
            raise AutomatonError("need one progress DFA per leading state")
        for p in self.progress:
            if p.ts.alphabet != self.leading.alphabet:
                raise AutomatonError("progress alphabet differs from leading")
        if self.flavor is not None and self.flavor not in FLAVORS:
            raise AutomatonError(f"unknown flavor {self.flavor!r}")


def _first_repeat(m: DetTS, q: int, v: Word) -> tuple[int, int, int]:
    """Walk q, q.v, q.v.v, ... to the first repeat q_i = q_{i+p}, p >= 1;
    return q_i, i and p."""
    states = [q]
    while True:
        q = run_word(m, q, v)
        if q in states:
            i = states.index(q)
            return q, i, len(states) - i
        states.append(q)


def normalize(f: Fdfa, w: UpWord) -> UpWord:
    """Return (u . v^i, v^p) with minimal i >= 0, then minimal p >= 1, such
    that the leading state repeats; denotes the same omega-word."""
    m = f.leading
    _, i, p = _first_repeat(m, run_word(m, m.initial, w.prefix), w.period)
    return UpWord(w.prefix + w.period * i, w.period * p)


def accepts_decomposition(f: Fdfa, w: UpWord) -> bool:
    m = f.leading
    q = run_word(m, m.initial, w.prefix)
    if run_word(m, q, w.period) != q:
        return False
    return f.progress[q].accepts(w.period)


def accepts_from(f: Fdfa, q: int, v: Word) -> bool:
    """Acceptance of u . v^omega, v nonempty, for every u that leads the
    leading DFA to q: walk q, q.v, q.v.v, ... to the first repeat q_i =
    q_{i+p} and ask the progress DFA of q_i about v^p, which is what the
    normalized decomposition (u . v^i, v^p) is accepted by."""
    q, _, p = _first_repeat(f.leading, q, v)
    return f.progress[q].accepts(v * p)


def accepts_upword(f: Fdfa, w: UpWord) -> bool:
    """Decide acceptance from the single normalized decomposition of w."""
    m = f.leading
    return accepts_from(f, run_word(m, m.initial, w.prefix), w.period)


def _power_flip(g: tuple[int, ...], start: int,
                finals: frozenset[int]) -> int | None:
    """The least k > 1 at which start . y^k differs in finality from
    start . y, where g is y's transformation of the states; None if
    every power agrees."""
    s, k, seen = g[start], 1, set()
    while s not in seen:
        if (s in finals) != (g[start] in finals):
            return k
        seen.add(s)
        s, k = g[s], k + 1
    return None


def _walk(start: tuple, step: Callable[[tuple, int], tuple], nletters: int,
          cap: int) -> Iterator[tuple[tuple, Word]]:
    """Each state that step reaches from start by a nonempty word, once,
    with the length-lex least such word, breadth-first; raises
    ResourceLimitError above ``cap`` states."""
    seen = {start}
    queue: list[tuple[tuple, Word]] = [(start, ())]
    for state, w in queue:  # queue grows while it is walked
        for a in range(nletters):
            nxt = step(state, a)
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise ResourceLimitError(
                    f"saturation check exceeded cap of {cap} states")
            seen.add(nxt)
            queue.append((nxt, w + (a,)))
            yield nxt, w + (a,)


def saturation_witness(f: Fdfa, cap: int) -> tuple[UpWord, UpWord] | None:
    """Two returning decompositions of one UP-word that f judges unlike,
    the accepted one first; None when f is saturated.

    f is saturated iff, for every reachable leading state q and every
    nonempty y with q . y = q, where N_q is q's progress DFA:
    (P) N_q accepts y iff it accepts y^k, for every k >= 1;
    (R) if y = a . y', N_q accepts a . y' iff N_{q.a} accepts y' . a.
    For each q, with its length-lex least access word u and in that order,
    (P) walks (q . y, y's transformation of N_q), and a flip at the least
    k gives (u, y) and (u, y^k); then, for each letter a, (R) walks
    (q . a . y', N_q after a . y', N_{q.a} after y'), and a mismatch gives
    (u, a . y') and (u . a, y' . a).  Each walk raises ResourceLimitError
    above ``cap`` states."""
    m = f.leading
    k = m.alphabet.size
    for q, u in shortest_state_words(m).items():
        n = f.progress[q]
        nd, nf, n0 = n.ts.delta, n.finals, n.ts.initial
        cols = list(zip(*nd))
        for (x, g), y in _walk(
                (q, tuple(range(n.ts.state_count))),
                lambda s, a: (m.delta[s[0]][a],
                              tuple([cols[a][i] for i in s[1]])), k, cap):
            power = _power_flip(g, n0, nf) if x == q else None
            if power is not None:
                pair = (UpWord(u, y), UpWord(u, y * power))
                return pair if g[n0] in nf else pair[::-1]
        for a in range(k):
            p = f.progress[m.delta[q][a]]
            pd, pf = p.ts.delta, p.finals
            for (x, s, t), y in _walk(
                    (m.delta[q][a], nd[n0][a], p.ts.initial),
                    lambda st, b: (m.delta[st[0]][b], nd[st[1]][b],
                                   pd[st[2]][b]), k, cap):
                if x == q and (s in nf) != (pd[t][a] in pf):
                    pair = (UpWord(u, (a,) + y), UpWord(u + (a,), y + (a,)))
                    return pair if s in nf else pair[::-1]
    return None


def sink_final_state(p: Dfa) -> int | None:
    """The final state looping to itself on every letter, if any."""
    for s in sorted(p.finals):
        if all(p.ts.delta[s][a] == s for a in range(p.ts.alphabet.size)):
            return s
    return None


def extract_fb(f: Fdfa) -> Fdfa:
    """Keep only the sink final state of each progress DFA.  Raises
    SinkFinalMissing when a progress DFA has finals but no sink final."""
    if f.flavor is not None and f.flavor != LIMIT:
        raise AutomatonError("extract_fb expects a limit-flavor FDFA")
    new_progress = []
    for u_class, p in enumerate(f.progress):
        if not p.finals:
            new_progress.append(p)
            continue
        sink = sink_final_state(p)
        if sink is None:
            raise SinkFinalMissing(u_class)
        new_progress.append(replace(p, finals=frozenset([sink])))
    return replace(f, progress=tuple(new_progress))


def complement_finals(f: Fdfa) -> Fdfa:
    """Complement every progress DFA's final set.  For saturated FDFAs this
    complements the accepted UP-words."""
    new_progress = tuple([
        replace(p, finals=frozenset(range(p.ts.state_count)) - p.finals)
        for p in f.progress])
    return replace(f, progress=new_progress)


def limit_canonical_form(f: Fdfa) -> Fdfa:
    """The limit family that keeps f's verdict on every period returning to
    its leading state: per leading state q, the leading TS rooted at q times
    q's progress DFA, final where the leading component is not back at q or
    where the progress DFA is final, minimized.  Acceptance runs a progress
    DFA only on returning periods, so f and the result accept the same
    UP-words; when f's leading DFA is the residual quotient of a language
    that f recognizes exactly, the result is its canonical limit FDFA."""
    m = f.leading
    progress = tuple([
        dfa_minimize(dfa_product(Dfa(replace(m, initial=q), frozenset([q])), p,
                                 lambda back, final: final or not back))
        for q, p in enumerate(f.progress)])
    return replace(f, progress=progress, flavor=LIMIT)


def leading_isomorphic(a: Fdfa, b: Fdfa) -> bool:
    """Whether the reachable parts of a's and b's leading DFAs are equal up
    to renaming: the map that follows both transition tables in step from
    the initial states is a bijection."""
    if a.leading.alphabet != b.leading.alphabet:
        return False
    to = {a.leading.initial: b.leading.initial}
    order = [a.leading.initial]
    for s in order:  # order grows while it is walked
        for sa, tb in zip(a.leading.delta[s], b.leading.delta[to[s]]):
            if sa not in to:
                to[sa] = tb
                order.append(sa)
            elif to[sa] != tb:
                return False
    return len(set(to.values())) == len(to)


@dataclass(frozen=True)
class SizeReport:
    leading: int
    progress: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.leading + sum(self.progress)


def size_report(f: Fdfa) -> SizeReport:
    return SizeReport(f.leading.state_count,
                      tuple([p.ts.state_count for p in f.progress]))
