"""Translations from FDFAs to nondeterministic, limit-deterministic, and
(for sink-final-only families) deterministic Buchi automata."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count

from .core_automata import (
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Nba,
    dfa_product,  # noqa: F401  (fdfabench/spans.py wraps it here)
    explore,
)
from .fdfa import Fdfa, RECURRENT, SYNTACTIC, sink_final_state


def _assemble(f: Fdfa, duplicate: bool) -> Nba:
    """Shared NBA/LDBA assembly: the leading copy, then one component per
    leading state q and progress final f, in (q, sorted finals) order.  A
    component is the period recognizer (leading q->q) x (progress init->f) x
    (progress f->f) over the triples reachable from (q, init, f); its only
    final state is (q, f, f).  Transitions entering it are redirected to the
    component's initial state and marked accepting, which realizes the
    recognizer's omega-power.  With ``duplicate`` the original transition is
    kept as well, which makes the component accept the exact omega-power at
    the price of nondeterminism.

    Components are trimmed to their useful triples, those from which an
    edge into (q, f, f) is reachable; the rest could never take an accepting
    edge.  Without ``duplicate`` no transition enters (q, f, f) unless it is
    the initial triple, so there a component keeps only the useful triples
    that its initial triple reaches without entering it.  A component whose
    initial triple is not kept is left out with the leading copy's jumps
    into it.

    Each component is its own breadth-first walk from (q, init, f), and its
    useful triples a backward closure over that walk.  They keep the walk's
    order, which is that of a breadth-first search over the useful triples
    alone, since every predecessor of a useful triple is useful."""
    m = f.leading
    lead = m.delta
    trans: set[tuple[int, int, int]] = set()
    acc: set[tuple[int, int, int]] = set()
    offset = m.state_count
    comp_inits: list[list[int]] = [[] for _ in range(m.state_count)]
    for q, p in enumerate(f.progress):
        prog = p.ts.delta
        for fstate in sorted(p.finals):
            triples, rows = explore(
                [(q, p.ts.initial, fstate)],
                lambda x: zip(lead[x[0]], prog[x[1]], prog[x[2]]))
            if (q, fstate, fstate) not in triples:
                continue  # no edge of the component accepts
            final = triples.index((q, fstate, fstate))
            preds: list[list[int]] = [[] for _ in rows]
            for s, row in enumerate(rows):
                for t in row:
                    preds[t].append(s)
            useful = [False] * len(rows)
            stack = preds[final][:]
            while stack:
                s = stack.pop()
                if not useful[s]:
                    useful[s] = True
                    stack += preds[s]
            if not useful[0]:
                continue  # the component could never take an accepting edge
            if not duplicate:
                # no edge enters (q, f, f) unless it is the start, so only
                # the useful triples the start reaches without it are kept
                kept, stack = [False] * len(rows), [0]
                kept[0] = True
                while stack:
                    for t in rows[stack.pop()]:
                        if useful[t] and not kept[t] and t != final:
                            kept[t] = True
                            stack.append(t)
                useful = kept
            base = offset  # the component's initial state, triple 0
            ids = dict(zip(compress(range(len(rows)), useful), count(base)))
            offset += len(ids)
            comp_inits[q].append(base)
            for s, i in ids.items():
                for a, t in enumerate(rows[s]):
                    if t == final:
                        trans.add((i, a, base))
                        acc.add((i, a, base))
                        if not duplicate:
                            continue
                    if t in ids:
                        trans.add((i, a, ids[t]))

    # the leading copy, which also jumps into the components of each target,
    # without epsilon moves
    for s, row in enumerate(lead):
        for a, t in enumerate(row):
            trans.add((s, a, t))
            for init in comp_inits[t]:
                trans.add((s, a, init))
    initials = frozenset([m.initial] + comp_inits[m.initial])
    return Nba(m.alphabet, offset, initials, frozenset(trans), frozenset(acc))


def fdfa_to_nba(f: Fdfa) -> Nba:
    """NBA for the union over leading states q and progress finals f of
    L(leading to q) . (period recognizer)^omega."""
    return _assemble(f, duplicate=True)


@dataclass(frozen=True)
class Ldba:
    """A limit-deterministic Buchi automaton: nondeterministic choices only
    occur at ``jump_sources`` (the leading copy); every accepting transition
    lies in a deterministic suffix component."""

    nba: Nba
    jump_sources: frozenset[int]


def fdfa_to_ldba(f: Fdfa) -> Ldba:
    return Ldba(_assemble(f, duplicate=False),
                frozenset(range(f.leading.state_count)))


def fdfa_to_dba(f: Fdfa) -> DetOmega:
    """Deterministic Buchi automaton for a sink-final-only FDFA: run the
    leading DFA and the current progress DFA side by side; on entering a
    progress final, reset the progress component and mark the transition.
    Only a reset moves the run on to the next leading class, so syntactic and
    recurrent families, which reject every period that leaves its class, are
    refused by their flavor.  A family of any flavor is refused unless every
    progress DFA with finals has exactly one, and it is a sink; the limit
    family that canon writes for gen_random_dba(1, 5, 3) is refused too."""
    if f.flavor in (SYNTACTIC, RECURRENT):
        raise AutomatonError(
            f"the DBA translation is unsound for {f.flavor} FDFAs")
    for u_class, p in enumerate(f.progress):
        if p.finals and (sink_final_state(p) is None or len(p.finals) != 1):
            raise AutomatonError(
                f"progress DFA of leading state {u_class} is not sink-final-only")
    m = f.leading
    letters = range(m.alphabet.size)

    def resets(owner: int, q: int, a: int) -> bool:
        p = f.progress[owner]
        return p.ts.delta[q][a] in p.finals

    def successors(node: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        lead, owner, q = node
        out = []
        for a in letters:
            lead2 = m.delta[lead][a]
            if resets(owner, q, a):
                out.append((lead2, lead2, f.progress[lead2].ts.initial))
            else:
                out.append((lead2, owner, f.progress[owner].ts.delta[q][a]))
        return out

    nodes, delta = explore(
        [(m.initial, m.initial, f.progress[m.initial].ts.initial)], successors)
    acc = frozenset((i, a) for i, (_, owner, q) in enumerate(nodes)
                    for a in letters if resets(owner, q, a))
    ts = DetTS(m.alphabet, len(nodes), 0, tuple(delta))
    return DetOmega(ts, acc, BUCHI)
