"""Independent oracles used to validate the library: step-by-step
ultimately-periodic membership checks for DBAs and NBAs, a brute-force
word-partition oracle for the four progress congruences, a brute-force
limit-finality oracle over words, a bounded saturation scan of FDFAs, and
a least-lasso measure of edge graphs by set simulation with a replay of a
given lasso.  Everything here is deliberately naive and shares no logic with the package
beyond raw transition lookups."""

from __future__ import annotations

from omega_fdfa import BUCHI, DetOmega, DetTS, Fdfa, Nba, UpWord, Word
from omega_fdfa.congruence import LeadingQuotient


def words_upto(nletters: int, bound: int) -> list[Word]:
    """All words of length <= bound in length-then-lex order, epsilon first."""
    out: list[Word] = [()]
    layer: list[Word] = [()]
    for _ in range(bound):
        layer = [w + (a,) for w in layer for a in range(nletters)]
        out.extend(layer)
    return out


def naive_member(d: DetOmega, w: UpWord) -> bool:
    """Membership of u . v^omega by explicit simulation: walk the prefix,
    then apply whole periods until the boundary state repeats, and inspect
    the accepting transitions along the detected cycle."""
    s = d.ts.initial
    for a in w.prefix:
        s = d.ts.delta[s][a]
    boundary = [s]
    while True:
        for a in w.period:
            s = d.ts.delta[s][a]
        if s in boundary:
            start = boundary.index(s)
            break
        boundary.append(s)
    # replay the cycle segment and collect acceptance marks
    hit = False
    s = boundary[start]
    for _ in range(len(boundary) - start):
        for a in w.period:
            if (s, a) in d.acc:
                hit = True
            s = d.ts.delta[s][a]
    return hit if d.polarity == BUCHI else not hit


def naive_nba_member(a: Nba, w: UpWord) -> bool:
    """Membership of u . v^omega in an NBA via v's step relation: which
    states a run on v leads each state to, and whether that run can take an
    accepting transition.  The word is accepted iff, among the states after
    u and everything they reach by whole periods, some p has a step p -> q
    that takes an accepting transition and q leads back to p."""

    targets: dict[tuple[int, int], list[int]] = {}
    for s, letter, t in a.trans:
        targets.setdefault((s, letter), []).append(t)

    def step(pairs: set, letter: int) -> set:
        return {(t, hit or (s, letter, t) in a.acc)
                for s, hit in pairs for t in targets.get((s, letter), ())}

    now = {(q, False) for q in a.initials}
    for letter in w.prefix:
        now = step(now, letter)
    relation = {}
    for p in range(a.state_count):
        pairs = {(p, False)}
        for letter in w.period:
            pairs = step(pairs, letter)
        relation[p] = pairs

    def closure(states: set) -> set:
        seen, todo = set(states), list(states)
        while todo:
            for q, _ in relation[todo.pop()]:
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return seen

    return any(hit and p in closure({q})
               for p in closure({q for q, _ in now})
               for q, hit in relation[p])


def _makers(d: DetOmega, lq: LeadingQuotient, u_class: int):
    """The two primitive predicates behind every progress congruence: does z
    return to the class of u, and is u . z^omega in L (False for z = eps)."""
    rep = lq.reps[u_class]

    def ret(z: Word) -> bool:
        s = rep
        for a in z:
            s = d.ts.delta[s][a]
        return lq.class_of[s] == u_class

    def acc(z: Word) -> bool:
        if not z:
            return False
        rooted = DetOmega(
            type(d.ts)(d.ts.alphabet, d.ts.state_count, rep, d.ts.delta),
            d.acc, d.polarity)
        return naive_member(rooted, UpWord((), z))

    return ret, acc


def flavor_predicate(d: DetOmega, lq: LeadingQuotient, u_class: int,
                     flavor: str, universe: list[Word]):
    """The per-period acceptance predicate P of the given flavor, including
    the package's epsilon conventions: epsilon is never a member for periodic
    and limit, and for recurrent it goes with the accepted returns whenever
    any exist (scanning the supplied universe)."""
    ret, acc = _makers(d, lq, u_class)
    if flavor == "periodic":
        return acc
    if flavor == "recurrent":
        eps_value = any(ret(v) and acc(v) for v in universe if v)

        def rec(z: Word) -> bool:
            if not z:
                return eps_value
            return ret(z) and acc(z)

        return rec
    if flavor == "limit":
        def lim(z: Word) -> bool:
            return (not ret(z)) or acc(z)

        return lim
    raise ValueError(flavor)


def oracle_partition(d: DetOmega, lq: LeadingQuotient, u_class: int,
                     flavor: str, xs: list[Word], vbound: int
                     ) -> set[frozenset[Word]]:
    """Partition of xs by the flavor's right congruence, evaluated brute
    force with extensions v of length <= vbound."""
    nletters = d.ts.alphabet.size
    vs = words_upto(nletters, vbound)
    rep = lq.reps[u_class]
    if flavor == "syntactic":
        # x ~ y iff u.x and u.y reach the same leading class and x, y are
        # limit-equivalent
        lim = flavor_predicate(d, lq, u_class, "limit", vs)

        def vector(x: Word):
            s = rep
            for a in x:
                s = d.ts.delta[s][a]
            return (lq.class_of[s],) + tuple(lim(x + v) for v in vs)
    else:
        pred = flavor_predicate(d, lq, u_class, flavor, vs)

        def vector(x: Word):
            return tuple(pred(x + v) for v in vs)

    groups: dict[tuple, set[Word]] = {}
    for x in xs:
        groups.setdefault(vector(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def dfa_partition(p, xs: list[Word]) -> set[frozenset[Word]]:
    """Partition of xs by the state the DFA reaches."""
    groups: dict[int, set[Word]] = {}
    for x in xs:
        s = p.ts.initial
        for a in x:
            s = p.ts.delta[s][a]
        groups.setdefault(s, set()).add(x)
    return {frozenset(g) for g in groups.values()}


def partitions_match(d: DetOmega, lq: LeadingQuotient, u_class: int,
                     flavor: str, progress, xbound: int = 5,
                     vbounds: tuple[int, ...] = (5, 6, 7, 8)) -> bool:
    """Compare the DFA-induced partition of Sigma^{<=xbound} against the
    brute-force oracle, extending v until the profiles saturate."""
    xs = words_upto(d.ts.alphabet.size, xbound)
    got = dfa_partition(progress, xs)
    for vbound in vbounds:
        if oracle_partition(d, lq, u_class, flavor, xs, vbound) == got:
            return True
    return False


def access_words(ts: DetTS) -> list[Word]:
    """For each state of ts that its initial state reaches, in breadth-first
    order, the word on which the breadth-first search first reached it."""
    order, words = [ts.initial], [()]
    seen = {ts.initial}
    for s, w in zip(order, words):  # both grow while they are walked
        for a, t in enumerate(ts.delta[s]):
            if t not in seen:
                seen.add(t)
                order.append(t)
                words.append(w + (a,))
    return words


def limit_finals(d: DetOmega, lq: LeadingQuotient,
                 words: list[Word]) -> list[frozenset[int]]:
    """For each leading class u, the indices of the words z that are
    limit-final for u, decided per word: z is final unless the leading DFA
    takes x_u . z back to u (x_u the access word of u) and a naive run
    rejects x_u . z^omega.  Epsilon is never accepted, so it is final for
    no class."""
    leading = lq.leading

    def run(w: Word) -> int:
        s = leading.initial
        for a in w:
            s = leading.delta[s][a]
        return s

    out = []
    for u, x in enumerate(lq.rep_words):
        out.append(frozenset(
            i for i, z in enumerate(words)
            if run(x + z) != u
            or z and naive_member(d, UpWord(x, z))))
    return out


def saturation_pair_upto(f: Fdfa, bound: int) -> tuple[UpWord, UpWord] | None:
    """A brute-force bounded saturation scan of the FDFA f: for each u and
    nonempty v with |u|, |v| <= bound, the decompositions (u . v^i . v[:j],
    (v[j:] . v[:j])^k) of u . v^omega, for i <= bound, j < |v| and
    1 <= k <= bound, must agree wherever the period leads the leading state
    after the prefix back to itself.  Returns the first two that disagree,
    the accepted one first, or None.  Verdicts are read off raw
    transitions, and u is skipped when a shorter word reached its leading
    state, since the decompositions then reach the same states."""
    m = f.leading

    def run(delta, s: int, w: Word) -> int:
        for a in w:
            s = delta[s][a]
        return s

    def verdict(q: int, v: Word) -> bool | None:
        if run(m.delta, q, v) != q:
            return None
        p = f.progress[q]
        return run(p.ts.delta, p.ts.initial, v) in p.finals

    words = words_upto(m.alphabet.size, bound)
    reached = set()
    for u in words:
        q = run(m.delta, m.initial, u)
        if q in reached:
            continue
        reached.add(q)
        for v in words[1:]:
            first = None
            for i in range(bound + 1):
                for j in range(len(v)):
                    prefix, rot = u + v * i + v[:j], v[j:] + v[:j]
                    s = run(m.delta, m.initial, prefix)
                    for k in range(1, bound + 1):
                        acc = verdict(s, rot * k)
                        if acc is None:
                            continue
                        d = UpWord(prefix, rot * k)
                        if first is None:
                            first = (d, acc)
                        elif first[1] != acc:
                            return (first[0], d) if first[1] \
                                else (d, first[0])
    return None


# an edge graph as the package's omega-products give it: graph[s] lists s's
# edges as (letter, target, accepting, second mark)
Graph = list[list[tuple[int, int, bool, bool]]]


def least_lasso_measure(graph: Graph, roots) -> tuple[int, int] | None:
    """The least (|stem| + |loop|, |stem|) over the lassos from ``roots``
    whose loop starts at a state s with an accepting edge that is not
    second-marked and returns to s over edges that are not second-marked;
    stems may take any edge.  None when there is no such lasso.

    Every total length up to 2n is tried, each stem length from 0 up, by
    set simulation: the states some k-edge stem ends in, and for each such
    state s the states some j-edge loop from s ends in.  A least lasso has
    a stem of at most n - 1 edges and a loop of at most n, so 2n is
    enough."""
    n = len(graph)
    stems = [set(roots)]  # stems[k]: where some k-edge stem ends
    loops: dict[int, list[set[int]]] = {}  # loops[s][j - 1]: same for loops

    def loop_ends(s: int, j: int) -> set[int]:
        ends = loops.setdefault(s, [{t for _, t, accepting, second in graph[s]
                                     if accepting and not second}])
        while len(ends) < j:
            ends.append({t for u in ends[-1]
                         for _, t, _, second in graph[u] if not second})
        return ends[j - 1]

    for total in range(1, 2 * n + 1):
        for k in range(total):
            while len(stems) <= k:
                stems.append({t for s in stems[-1] for _, t, _, _ in graph[s]})
            if any(s in loop_ends(s, total - k) for s in stems[k]):
                return total, k
    return None


def is_lasso_run(graph: Graph, roots, stem: Word, loop: Word) -> bool:
    """Whether some run reads ``stem`` from one of ``roots`` to a state s
    and then ``loop`` from s back to s, first over an accepting edge that
    is not second-marked and then over edges that are not second-marked."""
    now = set(roots)
    for letter in stem:
        now = {t for s in now for l, t, _, _ in graph[s] if l == letter}
    for s in now:
        here = {t for l, t, accepting, second in graph[s]
                if l == loop[0] and accepting and not second}
        for letter in loop[1:]:
            here = {t for u in here for l, t, _, second in graph[u]
                    if l == letter and not second}
        if s in here:
            return True
    return False
