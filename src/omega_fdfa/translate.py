"""Translations from FDFAs to nondeterministic, limit-deterministic, and
(for sink-final-only families) deterministic Buchi automata."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core_automata import (
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
    Nba,
    dfa_product,
    explore,
)
from .fdfa import Fdfa, RECURRENT, SYNTACTIC, sink_final_state


def _component(f: Fdfa, q: int, fstate: int) -> Dfa:
    """The period recognizer P for leading state q and progress final f:
    (leading q->q) x (progress init->f) x (progress f->f)."""
    lead = Dfa(replace(f.leading, initial=q), frozenset([q]))
    n = f.progress[q]
    to_final = Dfa(n.ts, frozenset([fstate]))
    around_final = Dfa(replace(n.ts, initial=fstate), frozenset([fstate]))
    rule = lambda x, y: x and y
    return dfa_product(dfa_product(lead, to_final, rule), around_final, rule)


def _assemble(f: Fdfa, duplicate: bool) -> tuple[Nba, frozenset[int]]:
    """Shared NBA/LDBA assembly.  Components realize the omega-power of each
    period recognizer: transitions entering a final state are redirected to
    the component's initial state and marked accepting.  With ``duplicate``
    the original transition is kept as well, which makes the component accept
    the exact omega-power at the price of nondeterminism."""
    m = f.leading
    nletters = m.alphabet.size
    trans: set[tuple[int, int, int]] = set()
    acc: set[tuple[int, int, int]] = set()
    for s in range(m.state_count):
        for a in range(nletters):
            trans.add((s, a, m.delta[s][a]))

    offset = m.state_count
    comp_inits: dict[int, list[int]] = {q: [] for q in range(m.state_count)}
    for q in range(m.state_count):
        for fstate in sorted(f.progress[q].finals):
            p = _component(f, q, fstate)
            base = offset
            offset += p.ts.state_count
            init = base + p.ts.initial
            comp_inits[q].append(init)
            for s in range(p.ts.state_count):
                for a in range(nletters):
                    t = p.ts.delta[s][a]
                    if t in p.finals:
                        trans.add((base + s, a, init))
                        acc.add((base + s, a, init))
                        if duplicate and base + t != init:
                            trans.add((base + s, a, base + t))
                    else:
                        trans.add((base + s, a, base + t))

    # jumps from the leading copy into the components, without epsilon moves
    for s in range(m.state_count):
        for a in range(nletters):
            for init in comp_inits[m.delta[s][a]]:
                trans.add((s, a, init))
    initials = frozenset([m.initial] + comp_inits[m.initial])
    nba = Nba(m.alphabet, offset, initials, frozenset(trans), frozenset(acc))
    return nba, frozenset(range(m.state_count))


def fdfa_to_nba(f: Fdfa) -> Nba:
    """NBA for the union over leading states q and progress finals f of
    L(leading to q) . (period recognizer)^omega."""
    nba, _ = _assemble(f, duplicate=True)
    return nba


@dataclass(frozen=True)
class Ldba:
    """A limit-deterministic Buchi automaton: nondeterministic choices only
    occur at ``jump_sources`` (the leading copy); every accepting transition
    lies in a deterministic suffix component."""

    nba: Nba
    jump_sources: frozenset[int]


def fdfa_to_ldba(f: Fdfa) -> Ldba:
    nba, leading_states = _assemble(f, duplicate=False)
    return Ldba(nba, leading_states)


def fdfa_to_dba(f: Fdfa) -> DetOmega:
    """Deterministic Buchi automaton for a sink-final-only FDFA: run the
    leading DFA and the current progress DFA side by side; on entering a
    progress final, reset the progress component and mark the transition.
    Only a reset moves the run on to the next leading class, so syntactic and
    recurrent families, which reject every period that leaves its class, are
    refused; limit and periodic families are not."""
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
