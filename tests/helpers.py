"""Test-only helpers over the package's graph algorithms: SCC listing, DFA
and FDFA renumbering and isomorphism, counters with resets, a one-pair Rabin
emptiness check, a transition monoid explored by the generic ``explore``,
a from-scratch restart-scan close of the learner's tables and trees, the
former nested-product assembly of the Buchi translations and a trim of its
useless component states, the former round-by-round partition refinement,
the co-safety language V_u of criterion 8, the hypotheses that a learner's
equivalence queries receive, and a saturated FDFA teacher whose leading DFA
is not the residual quotient.  Unlike ``oracles.py`` most of these reuse
the package's own search (``explore``, ``_scc_ids``, ``_least_lasso``,
``dfa_product``, ``dfa_minimize``), so they pin its results rather than
check them independently."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Collection, Hashable, Iterable, Sequence

from omega_fdfa import (
    Alphabet,
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
    Fdfa,
    Lasso,
    LeadingQuotient,
    Nba,
    PERIODIC,
    ResourceLimitError,
    build_canonical_fdfa,
    gen_fig1,
    learn_limit_fdfa,
)
from omega_fdfa.core_automata import (
    Edge,
    Monoid,
    _least_lasso,
    _scc_ids,
    dfa_minimize,
    dfa_product,
    explore,
)


def sccs(succ: Sequence[Iterable[int]]) -> list[list[int]]:
    """Maximal SCCs of a finite graph, in topological order."""
    ids = _scc_ids(succ)
    ncomp = max(ids) + 1 if ids else 0
    groups: list[list[int]] = [[] for _ in range(ncomp)]
    for v, c in enumerate(ids):
        groups[c].append(v)
    # Tarjan emits components in reverse topological order
    return [sorted(g) for g in reversed(groups)]


def counter_with_resets(seed: int, n: int, density: float) -> DetOmega:
    """Letter a cycles through all n states; letter b sends every state into
    a 2-state image; each transition accepts with the given probability.
    Such a counter usually has one leading class per state."""
    rng = random.Random(seed)
    image = rng.sample(range(n), 2)
    delta = tuple(((s + 1) % n, rng.choice(image)) for s in range(n))
    acc = frozenset((s, a) for s in range(n) for a in range(2)
                    if rng.random() < density)
    return DetOmega(DetTS(Alphabet(("a", "b")), n, 0, delta), acc, BUCHI)


def canonical_dfa(a: Dfa) -> Dfa:
    """Renumber reachable states in BFS order (letters in alphabet order)."""
    order, delta = explore([a.ts.initial], a.ts.delta.__getitem__)
    finals = frozenset(i for i, s in enumerate(order) if s in a.finals)
    return Dfa(DetTS(a.ts.alphabet, len(order), 0, tuple(delta)), finals)


def dfa_isomorphic(a: Dfa, b: Dfa) -> bool:
    ca, cb = canonical_dfa(a), canonical_dfa(b)
    return ca.ts.delta == cb.ts.delta and ca.finals == cb.finals \
        and ca.ts.alphabet == cb.ts.alphabet


def fdfas_isomorphic(a: Fdfa, b: Fdfa) -> bool:
    """Leading TSs equal once renumbered in BFS order, and the progress DFAs
    of the states that the renumbering pairs up isomorphic."""
    order_a, rows_a = explore([a.leading.initial], a.leading.delta.__getitem__)
    order_b, rows_b = explore([b.leading.initial], b.leading.delta.__getitem__)
    return rows_a == rows_b and all(
        dfa_isomorphic(a.progress[q], b.progress[c])
        for q, c in zip(order_a, order_b))


def one_pair_rabin_empty(a: Nba,
                         avoid: frozenset[tuple[int, int, int]] = frozenset()
                         ) -> Lasso | None:
    """Search for a reachable cycle containing a transition of a.acc and no
    transition of ``avoid``.  Stems may still cross ``avoid`` transitions.

    Returns None when empty, else the least lasso over a's own state ids
    (see _least_lasso)."""
    graph: list[list[Edge]] = [[] for _ in range(a.state_count)]
    for tr in sorted(a.trans):
        graph[tr[0]].append((tr[1], tr[2], tr in a.acc, tr in avoid))
    return _least_lasso(graph, a.initials)


def explored_monoid(ts: DetTS, marks: Collection[tuple[int, int]], cap: int,
                    as_bytes: bool,
                    domain: Sequence[int] | None = None) -> Monoid:
    """``core_automata.transition_monoid`` of the automaton with transition
    system ts and accepting transitions ``marks``, in the given profile
    encoding, explored by ``explore`` with one successor list per profile.
    Raises ResourceLimitError once a profile beyond the first ``cap`` is
    walked, which happens iff more than ``cap`` profiles are reachable."""
    states, moves = explore([ts.initial], ts.delta.__getitem__)
    entries = range(2 * len(states))
    steps = [[(moves[x >> 1][a] << 1) | (x & 1)
              | ((states[x >> 1], a) in marks) for x in entries]
             for a in range(ts.alphabet.size)]
    tables = [bytes(step).ljust(256, b"\0") for step in steps]
    start = [2 * states.index(s)
             for s in (states if domain is None else domain)]
    identity = bytes(start) if as_bytes else tuple(start)
    walked = 0

    def extend(p: Sequence[int]) -> list[Sequence[int]]:
        nonlocal walked
        walked += 1
        if walked > cap:
            raise ResourceLimitError(f"more than {cap} profiles")
        if as_bytes:
            return [p.translate(t) for t in tables]
        return [tuple(step[x] for x in p) for step in steps]

    profiles, delta = explore([identity], extend)
    return profiles, DetTS(ts.alphabet, len(profiles), 0, tuple(delta)), states


def restart_scan_close(session, table) -> None:
    """``learn._Table.close`` as a from-scratch scan, for a table of
    ``session``: after each promotion, rescan every row in length-lex order
    from the start, evaluating each row's vector afresh, cell by cell,
    whatever the table kept from an earlier close.  A leading row's vector
    has bit i its membership query on the i-th experiment; a progress row
    is sifted from the root of the table's tree, each cell
    ``_Session._progress_cell``, and its vector is the leaf it reaches, a
    path of k cells written as the int with bit i the i-th cell and bit k
    set.  Then recompute every row's vector to read off ``ts`` and leave
    them in ``table.vecs``."""
    if table is session.lead:
        def vector(row):
            return sum(session.mq(row + u, v) << i
                       for i, (u, v) in enumerate(table.exps))
    else:
        q = session.progress.index(table)

        def vector(row):
            path = 1
            while path in table.tree:
                exp = table.exps[table.tree[path]]
                bit = session._progress_cell(q, row + exp)
                path += (2 if bit else 1) << (path.bit_length() - 1)
            return path

    rep_vecs: list[int] = []
    kept = []
    for rep in table.reps:
        vec = vector(rep)
        if vec not in rep_vecs:
            rep_vecs.append(vec)
            kept.append(rep)
    table.reps = kept
    while True:
        for rep in table.reps:
            for a in range(table.alphabet.size):
                table.rows.add(rep + (a,))
        for row in sorted(table.rows, key=lambda w: (len(w), w)):
            vec = vector(row)
            if vec not in rep_vecs:
                table.reps.append(row)
                rep_vecs.append(vec)
                break
        else:
            break
    table.vecs = {row: vector(row) for row in table.rows}
    index = {vec: i for i, vec in enumerate(rep_vecs)}
    succ = [[table.vecs[rep + (a,)] for a in range(table.alphabet.size)]
            for rep in table.reps]
    if any(vec not in index for row in succ for vec in row):
        raise AssertionError("observation table is not closed")
    table.ts = DetTS(table.alphabet, len(table.reps), 0,
                     tuple(tuple(index[vec] for vec in row) for row in succ))


def nested_product_nba(f: Fdfa, duplicate: bool) -> Nba:
    """``translate._assemble`` as it was before the one-walk period
    recognizers: each component is the product DFA (leading q->q) x
    (progress init->f) x (progress f->f), built by two nested
    ``dfa_product`` calls, and its finals are read off that product."""
    def component(q: int, fstate: int) -> Dfa:
        lead = Dfa(replace(f.leading, initial=q), frozenset([q]))
        n = f.progress[q]
        to_final = Dfa(n.ts, frozenset([fstate]))
        around_final = Dfa(replace(n.ts, initial=fstate), frozenset([fstate]))
        rule = lambda x, y: x and y
        return dfa_product(dfa_product(lead, to_final, rule), around_final,
                           rule)

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
            p = component(q, fstate)
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

    for s in range(m.state_count):
        for a in range(nletters):
            for init in comp_inits[m.delta[s][a]]:
                trans.add((s, a, init))
    initials = frozenset([m.initial] + comp_inits[m.initial])
    return Nba(m.alphabet, offset, initials, frozenset(trans), frozenset(acc))


def trim_useless(a: Nba, kept: int) -> Nba:
    """a without its states from ``kept`` on that reach no accepting
    transition or that no initial state reaches, found by a backward and a
    forward search over a's own transitions; the remaining states keep their
    order, and a's transitions between them and its initial states among
    them are renumbered to match."""
    def closure(start: Iterable[int], edges: Iterable[tuple[int, int]]
                ) -> set[int]:
        succ: dict[int, set[int]] = {}
        for s, t in edges:
            succ.setdefault(s, set()).add(t)
        seen = set(start)
        todo = list(seen)
        while todo:
            for t in succ.get(todo.pop(), ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    useful = closure((s for s, _, _ in a.acc),
                     ((t, s) for s, _, t in a.trans))
    reached = closure(a.initials, ((s, t) for s, _, t in a.trans))
    new = {s: i for i, s in enumerate(
        s for s in range(a.state_count)
        if s < kept or s in useful and s in reached)}

    def renumber(trans):
        return frozenset((new[s], letter, new[t]) for s, letter, t in trans
                         if s in new and t in new)

    return Nba(a.alphabet, len(new),
               frozenset(new[s] for s in a.initials if s in new),
               renumber(a.trans), renumber(a.acc))


def moore_quotient(ts: DetTS, label: Callable[[int], Hashable]
                   ) -> tuple[list[int], DetTS]:
    """``core_automata.coarsest_quotient`` as it was before the column-wise
    rounds: each round keys every state by the tuple of its block and its
    successors' blocks, built per state, and renumbers the keys in
    breadth-first order as they first appear."""
    order, rows = explore([ts.initial], ts.delta.__getitem__)
    ids: dict[Hashable, int] = {}
    block = [ids.setdefault(label(s), len(ids)) for s in order]
    nblocks = len(ids)
    while True:
        sigs: dict[tuple[int, ...], int] = {}
        block = [sigs.setdefault((b, *map(block.__getitem__, row)),
                                 len(sigs))
                 for b, row in zip(block, rows)]
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    rep = [-1] * nblocks
    for i in range(len(order)):
        if rep[block[i]] < 0:
            rep[block[i]] = i
    delta = tuple(tuple(block[t] for t in rows[rep[b]])
                  for b in range(nblocks))
    return ([order[i] for i in rep],
            DetTS(ts.alphabet, nblocks, block[0], delta))


def cosafety_vu_dfa(lq: LeadingQuotient, u_class: int) -> Dfa:
    """DFA for V_u = {x in Sigma+ : forall v, u.x.v ~ u implies
    u.(xv)^omega in L}, built per reference state and intersected over the
    class members.  It is not the limit progress DFA (they differ in
    language on some classes); criterion 8 compares it with the limit
    DFA's sink-final class."""
    d = lq.ref
    if d.polarity != BUCHI:
        raise AutomatonError("co-safety construction needs a Buchi reference")
    if not 0 <= u_class < lq.leading.state_count:
        raise AutomatonError("invalid leading class")
    ts = d.ts
    n = ts.state_count
    comp = _scc_ids([[t for a, t in enumerate(row) if (s, a) not in d.acc]
                     for s, row in enumerate(ts.delta)])
    # an accepting edge or one that leaves its quiet SCC falls into top = n
    top_row = (n,) * ts.alphabet.size
    delta = tuple(tuple(n if (p, a) in d.acc or comp[p] != comp[t] else t
                        for a, t in enumerate(row))
                  for p, row in enumerate(ts.delta)) + (top_row,)

    def d_q(q: int) -> Dfa:
        return Dfa(DetTS(ts.alphabet, n + 1, q, delta), frozenset([n]))

    members = lq.members[u_class]
    result = d_q(members[0])
    for q in members[1:]:
        result = dfa_product(result, d_q(q), lambda x, y: x and y)
    return dfa_minimize(result)


def eq_hypotheses(teacher) -> list[Fdfa]:
    """Every hypothesis the teacher's equivalence query receives while the
    learner runs against it."""
    seen = []
    eq = teacher.eq

    def recording(h):
        seen.append(h)
        return eq(h)

    teacher.eq = recording
    learn_limit_fdfa(teacher)
    return seen


def split_leading_state(f: Fdfa, source: int, letter: int) -> Fdfa:
    """f with the edge (source, letter) sent to a new leading state that
    has the old target's row and progress DFA; labels are dropped."""
    m = f.leading
    q = m.delta[source][letter]
    delta = [list(row) for row in m.delta] + [list(m.delta[q])]
    delta[source][letter] = m.state_count
    leading = DetTS(m.alphabet, m.state_count + 1, m.initial,
                    tuple([tuple(row) for row in delta]))
    return replace(f, leading=leading, progress=f.progress + (f.progress[q],),
                   labels=None)


def split_fig1_periodic() -> Fdfa:
    """Figure 1's periodic family with leading state 2 split: the edge (0,
    b) goes to a new state 5 that has state 2's row and progress DFA.  The
    family is saturated, but the learner's leading DFAs, which have at
    most the 5 states of the residual quotient, are never isomorphic to
    its 6-state one, so the equivalence query that accepts runs the power
    check."""
    return split_leading_state(build_canonical_fdfa(gen_fig1(), PERIODIC),
                               0, 1)
