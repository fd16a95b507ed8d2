"""Leading right congruence and the four canonical progress DFAs computed
from a reference deterministic Buchi automaton.

One construction does its per-DBA work once.  The leading congruence comes
from one pass over the pair graph of the reference's reachable states
(``core_automata.dba_equiv_table``), and ``coarsest_quotient``, the
refinement that also minimizes DFAs, builds the leading DFA from it; each
class's members are grouped once, on the ``LeadingQuotient``.

Profile DFAs are transition monoids of the reference.  Their per-reference
part, the reachable-state numbering and each letter's step list over
profile entries (``core_automata.profile_steps``), is built once per
reference and kept on it; every monoid is a walk over those lists
(``core_automata.transition_monoid``), with bytes profiles when at most 128
states are reachable.  A monoid is numbered breadth-first with every
profile reachable, and so is each quotient of it, so a progress DFA born
on one is minimized on its own rows (``_minimized_on_rows``, one partition
refinement by ``core_automata._refine``) without walking it again.
Periodic reads the whole orbit of each class's representative, so it
explores the whole monoid once per construction and labels each profile
with the classes from whose representative its omega-power is accepted.
One refinement of the monoid's own rows quotients it by those labels, and
each class's progress DFA is minimized on this shared quotient with its
own finals.
Limit reads less.  A period z is limit-final for u unless z takes u's
representative r back into u's class and z^omega is rejected from r, and a
run that returns stays in u's class, since the leading congruence is a right
congruence.  So each class's limit DFA is its class-local monoid, whose
profiles hold entries for the class members only (still pointing to any
reachable state), labelled by ``_limit_finals`` and minimized on its rows.
Syntactic and recurrent need no monoid of their own: on nonempty periods
both are limit_u intersected with C_u = {v : u . v ~ u}, the product of the
leading TS rooted at u with the limit DFA, and recurrent is that product
minimized by ``dfa_minimize``.

The periodic work is cached on the ``LeadingQuotient`` and lives as long as
it; nothing is kept for limit beyond the reference's step lists.  The
module constants PAIR_CAP and PROFILE_CAP, read at call time, cap the
leading pair graph and each monoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

from .core_automata import (
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
    Monoid,
    ResourceLimitError,
    Word,
    _refine,
    coarsest_quotient,
    dba_equiv_table,
    dba_state_equiv,  # noqa: F401  (fdfabench/spans.py wraps it here)
    dfa_minimize,
    dfa_product,
    explore,
    shortest_state_words,
    transition_monoid,
)
from .fdfa import Fdfa, LIMIT, PERIODIC, RECURRENT, SYNTACTIC

PROFILE_CAP = 200_000
PAIR_CAP = 1_000_000

# (quotient of the whole profile TS, periodic final blocks of each class);
# see LeadingQuotient._periodic_quotient
Quotient = tuple[DetTS, tuple[frozenset[int], ...]]


@dataclass(frozen=True)
class LeadingQuotient:
    """The reference DBA quotiented by residual-language equivalence.

    ``class_of[s]`` is the class id of reference state s (-1 if unreachable);
    ``reps[c]`` is the least reference state id in class c; ``rep_words[c]``
    is the shortest, lexicographically least access word of class c;
    ``members[c]`` lists class c's reference states in increasing order.
    ``members`` is derived from ``class_of`` and stays outside ``==``,
    ``hash`` and ``repr``.

    The periodic flavor's work, which every class shares (the whole
    profile monoid, its acceptance vectors and its quotient), is computed
    on first use and kept in cached properties, outside ``==``, ``hash`` and
    ``repr``.  A computation that raises caches nothing.
    """

    ref: DetOmega
    class_of: tuple[int, ...]
    leading: DetTS
    reps: tuple[int, ...]
    rep_words: tuple[Word, ...]
    members: tuple[list[int], ...] = field(compare=False, repr=False)

    @cached_property
    def _monoid(self) -> Monoid:
        """The profile TS of ``ref``; raises ResourceLimitError above
        PROFILE_CAP profiles."""
        return transition_monoid(self.ref, PROFILE_CAP)

    @cached_property
    def _accepts(self) -> tuple[list[int], list[tuple[bool, ...]]]:
        """For each profile, the id of its acceptance vector, which says for
        each leading class u whether u . z^omega is accepted (z a word of
        that profile); and the distinct vectors by id.  Profiles share few
        distinct vectors."""
        profiles, _, states = self._monoid
        entry = {s: i for i, s in enumerate(states)}
        reps = [entry[r] for r in self.reps]
        ids: dict[tuple[bool, ...], int] = {}
        labels = [ids.setdefault(_omega_accepts(p, reps), len(ids))
                  for p in profiles]
        return labels, list(ids)

    @cached_property
    def _periodic_quotient(self) -> Quotient:
        """The profile TS quotiented by the coarsest right congruence that
        respects every class's periodic finals, and the final blocks of
        each class."""
        # class 0's profile DFA explores the monoid and the acceptance
        # vectors that every class's finals come from
        ts = periodic_lang_dfa(self, 0).ts
        labels, vectors = self._accepts
        # the monoid is numbered breadth-first with every profile reachable,
        # so its own rows are refined without walking it again
        blocks, quotient = _refine(ts.alphabet, ts.delta, labels)
        # the quotient's blocks are numbered by their least profile, so it is
        # numbered breadth-first too, with every block reachable
        return quotient, tuple([
            frozenset(b for b, i in enumerate(blocks) if vectors[labels[i]][u])
            for u in range(len(self.reps))])


def compute_leading(d: DetOmega) -> LeadingQuotient:
    """The residual-language quotient of the reachable part of d; raises
    ResourceLimitError when d has more than PAIR_CAP pairs of reachable
    states, the size of the pair graph that decides it."""
    if d.polarity != BUCHI:
        raise AutomatonError("reference must be a deterministic Buchi automaton")
    ts = d.ts
    reachable = sorted(explore([ts.initial], ts.delta.__getitem__)[0])
    if len(reachable) ** 2 > PAIR_CAP:
        raise ResourceLimitError(
            f"leading congruence exceeded cap of {PAIR_CAP} state pairs")
    equiv = dba_equiv_table(d, reachable)
    # label each state by the least one equivalent to it; residual equivalence
    # is a right congruence, so the refinement splits no label's states
    least = dict(zip(reachable, (reachable[row.index(True)] for row in equiv)))
    firsts, leading = coarsest_quotient(ts, least.__getitem__)
    if len(firsts) != len(set(least.values())):
        raise AutomatonError("leading quotient is not well-defined")
    block = {least[s]: c for c, s in enumerate(firsts)}
    class_of = tuple([block[least[s]] if s in least else -1
                      for s in range(ts.state_count)])
    words = shortest_state_words(leading)
    reps = tuple(block)
    rep_words = tuple([words[c] for c in range(len(reps))])
    members: tuple[list[int], ...] = tuple([[] for _ in reps])
    for s in reachable:
        members[class_of[s]].append(s)
    return LeadingQuotient(d, class_of, leading, reps, rep_words, members)


def _omega_accepts(p: Sequence[int],
                   starts: Sequence[int]) -> tuple[bool, ...]:
    """For each start state s, whether z^omega is accepted from s, where p is
    the profile of z.  The run from s follows p's functional graph until a
    state repeats, and accepts iff the repeating part took an accepting
    transition; runs from several starts share their walks, so each state is
    visited once."""
    value = [-1] * len(p)  # -1 unvisited, 2 on the current walk, else 0/1
    for s in starts:
        path = []
        while value[s] < 0:
            value[s] = 2
            path.append(s)
            s = p[s] >> 1
        v = value[s]
        if v == 2:  # the walk closed a cycle at s
            v = 0
            for t in path[path.index(s):]:
                if p[t] & 1:
                    v = 1
                    break
        for t in path:
            value[t] = v
    return tuple([value[s] == 1 for s in starts])


def periodic_lang_dfa(lq: LeadingQuotient, u_class: int) -> Dfa:
    """DFA over profile elements recognizing {z : u . z^omega in L};
    epsilon is non-final by convention (the identity profile has no bits)."""
    if not 0 <= u_class < lq.leading.state_count:
        raise AutomatonError("invalid leading class")
    labels, vectors = lq._accepts
    accepted = {v for v, vector in enumerate(vectors) if vector[u_class]}
    return Dfa(lq._monoid[1], frozenset(i for i, v in enumerate(labels)
                                        if v in accepted))


def cu_dfa(lq: LeadingQuotient, u_class: int) -> Dfa:
    """Leading TS rooted and final at u_class; its language minus epsilon is
    {v : u . v ~ u}."""
    if not 0 <= u_class < lq.leading.state_count:
        raise AutomatonError("invalid leading class")
    return Dfa(replace(lq.leading, initial=u_class), frozenset([u_class]))


def _epsilon_joins_accepted_returns(d: Dfa) -> Dfa:
    """Copy of d whose initial state is final iff L(d) contains a nonempty
    word, realized with a fresh initial state so no other word is affected.

    FDFA acceptance only ever runs a progress DFA on nonempty periods, so
    the membership of epsilon is a free choice; the recurrent progress DFA
    places epsilon with the accepted returns whenever any exist, which keeps
    the automaton at its canonical size."""
    ts = d.ts
    # the states reached by nonempty words
    reached, _ = explore(ts.delta[ts.initial], ts.delta.__getitem__)
    nonempty = any(s in d.finals for s in reached)
    if not nonempty:
        return Dfa(ts, d.finals - {ts.initial})
    iota = ts.state_count
    delta = ts.delta + (ts.delta[ts.initial],)
    new_ts = DetTS(ts.alphabet, iota + 1, iota, delta)
    return Dfa(new_ts, d.finals | {iota})


def _limit_finals(monoid: Monoid, members: Sequence[int]) -> frozenset[int]:
    """The ids of the profiles of u's class-local monoid that are limit-final
    for u, where ``members`` are u's states in increasing order, the domain
    of the monoid's profiles; the first is u's representative r.

    z is final for u unless it returns r into u's class and z^omega is
    rejected from r.  A run that returns stays in the class, so the walk
    reads only local entries: from r until the first repeated state, which
    lies on the run's cycle, and then once around that cycle, or-ing its
    entries' bits."""
    profiles, _, states = monoid
    position = {s: k for k, s in enumerate(members)}
    # local[j] is the position of the j-th reachable state among the members
    local = [position.get(s, -1) for s in states]
    finals = []
    # seen[k] == i iff the walk of profile i has visited member k
    seen = [-1] * len(profiles[0])
    for i, p in enumerate(profiles):
        s = local[p[0] >> 1]
        if s < 0:
            finals.append(i)
            continue
        seen[0] = i
        while seen[s] != i:
            seen[s] = i
            s = local[p[s] >> 1]
        bits = p[s]
        t = local[bits >> 1]
        while t != s:
            e = p[t]
            bits |= e
            t = local[e >> 1]
        if bits & 1:
            finals.append(i)
    return frozenset(finals)


def _minimized_on_rows(ts: DetTS, finals: frozenset[int]) -> Dfa:
    """``dfa_minimize(Dfa(ts, finals))`` for a ts numbered breadth-first
    from state 0 with every state reachable, as transition monoids and
    their quotients are: its own rows are refined without walking it
    again."""
    reps, quotient = _refine(ts.alphabet, ts.delta,
                             [s in finals for s in range(ts.state_count)])
    return Dfa(quotient, frozenset(b for b, s in enumerate(reps)
                                   if s in finals))


def progress_dfa(lq: LeadingQuotient, u_class: int, flavor: str) -> Dfa:
    if flavor in (SYNTACTIC, RECURRENT):
        # on nonempty periods both are limit_u restricted to
        # C_u = {v : u . v ~ u}.  The syntactic DFA's classes are exactly the
        # reachable (leading-from-u, limit-class) pairs, so its product stays
        # unminimized; the recurrent DFA places epsilon and is minimized.
        limit = progress_dfa(lq, u_class, LIMIT)
        product = dfa_product(cu_dfa(lq, u_class), limit, lambda c, p: c and p)
        if flavor == SYNTACTIC:
            return product
        return dfa_minimize(_epsilon_joins_accepted_returns(product))
    if flavor not in (PERIODIC, LIMIT):
        raise AutomatonError(f"unknown flavor {flavor!r}")
    if not 0 <= u_class < lq.leading.state_count:
        raise AutomatonError("invalid leading class")
    if flavor == PERIODIC:
        # the quotient refines u's Nerode equivalence, so minimizing on it
        # gives the same DFA as minimizing on the whole profile TS
        ts, finals = lq._periodic_quotient
        return _minimized_on_rows(ts, finals[u_class])
    # u's class-local monoid, whose profiles map onto u's limit classes
    members = lq.members[u_class]
    monoid = transition_monoid(lq.ref, PROFILE_CAP, members)
    return _minimized_on_rows(monoid[1], _limit_finals(monoid, members))


def build_canonical_fdfa(d: DetOmega, flavor: str) -> Fdfa:
    lq = compute_leading(d)
    progress = tuple([progress_dfa(lq, c, flavor)
                      for c in range(lq.leading.state_count)])
    return Fdfa(lq.leading, progress, labels=lq.rep_words, flavor=flavor)
