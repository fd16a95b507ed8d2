"""Automata types and the graph algorithms everything else builds on.

Conventions used across the package:

- State ids are dense integers ``0..n-1``.
- Letters are indices into an :class:`Alphabet`.
- Transition tables are total.
- Every predicate of the form "u . z^omega is in L" is false for z = epsilon.
  (FDFA acceptance never evaluates an empty period, so progress DFAs may
  still resolve the membership of epsilon itself either way; see
  fdfa.returning_product.)
- Tuples are built from lists (``tuple([...])``), not from generators or
  ``map``/``zip`` iterators.  ``tuple()`` gives an iterator of unknown
  length ten slots and shrinks the result, so each such tuple, once freed,
  joins the interpreter's free list of its final size instead of the one
  it came from.  A process that runs many commands, and rarely a full
  collection, then holds up to 2,000 idle tuples of every small size.

Every omega-emptiness question (NBA membership, emptiness, inclusion in a
DBA, intersection) is one product explored by ``_product`` and one search
by ``_least_lasso``.  Witnesses depend on the order of that search, so the
contract is: product states are numbered in breadth-first discovery order
from the distinct roots, each state's new successors in the order ``moves``
lists them; each state's edges are sorted by (letter, target id);
breadth-first words take the first state dequeued on ties; and the least
lasso is the one with the least (total length, stem length, stem, loop)
among the lassos whose loop begins with its accepting edge.  The least
total over all lassos can be smaller: with 0 -a-> 1 -a-> 2 and an
accepting 2 -a-> 1, stem a and loop aa take the accepting edge second,
so the search returns stem aa and loop aa.
A product state is keyed by an integer code (``qa * nb + qb`` for a pair,
``2 * pair + phase`` in the phase graph), which only names the state: the
ids are those that (qa, qb) and (pair, phase) tuple keys gave.  The
two-Buchi phase product is explored over the numbered pair graph, so
renumbering either graph can change a witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count
from typing import Callable, Collection, Hashable, Iterable, Sequence, TypeVar

Word = tuple[int, ...]
S = TypeVar("S", bound=Hashable)
Move = tuple[int, int, bool, bool]  # (letter, target, accepting, second mark)
Edge = Move  # the same with the target's id in place of its code

BUCHI = "buchi"
COBUCHI = "cobuchi"


class AutomatonError(Exception):
    """Base error for malformed automata or invalid inputs."""


class AlphabetError(AutomatonError):
    """A letter or word does not belong to the expected alphabet."""


class ResourceLimitError(AutomatonError):
    """A construction exceeded its configured resource cap."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered, duplicate-free set of letter tokens."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise AlphabetError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise AlphabetError("duplicate letters in alphabet")
        for t in self.letters:
            if t.split() != [t] or "#" in t:
                raise AlphabetError(f"letter {t!r} cannot be written: letters "
                                    "are nonempty, without whitespace or '#'")
            if t == "-" or "." in t:
                raise AlphabetError(f"letter {t!r} cannot be spelled in a "
                                    "word: '-' and '.' are reserved")

    @cached_property
    def size(self) -> int:
        # read once per run_word call; cached_property writes the instance
        # dict directly, so it works on this frozen dataclass
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise AlphabetError(f"unknown letter {letter!r}") from None

    def parse_word(self, text: str) -> Word:
        """Parse a word.  Single-character alphabets concatenate letters;
        otherwise letters are separated by dots.  '' denotes epsilon."""
        if text == "":
            return ()
        if all(len(t) == 1 for t in self.letters):
            return tuple([self.index(c) for c in text])
        return tuple([self.index(t) for t in text.split(".")])

    def format_word(self, w: Word) -> str:
        if all(len(t) == 1 for t in self.letters):
            return "".join(self.letters[a] for a in w)
        return ".".join(self.letters[a] for a in w)


@dataclass(frozen=True)
class DetTS:
    """A deterministic, total transition system."""

    alphabet: Alphabet
    state_count: int
    initial: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.state_count <= 0:
            raise AutomatonError("state_count must be positive")
        if not 0 <= self.initial < self.state_count:
            raise AutomatonError("initial state out of range")
        if len(self.delta) != self.state_count:
            raise AutomatonError("delta must have one row per state")
        for row in self.delta:
            if len(row) != self.alphabet.size:
                raise AutomatonError("delta row must cover the alphabet")
            for t in row:
                if not 0 <= t < self.state_count:
                    raise AutomatonError("delta target out of range")


@dataclass(frozen=True)
class Dfa:
    ts: DetTS
    finals: frozenset[int]

    def __post_init__(self) -> None:
        for f in self.finals:
            if not 0 <= f < self.ts.state_count:
                raise AutomatonError("final state out of range")

    def accepts(self, w: Word) -> bool:
        return run_word(self.ts, self.ts.initial, w) in self.finals


@dataclass(frozen=True)
class DetOmega:
    """Deterministic omega-automaton with transition-based acceptance.

    ``acc`` holds (state, letter) pairs.  Buchi polarity accepts runs taking
    marked transitions infinitely often; coBuchi accepts runs taking them
    only finitely often.  ``_steps``, the ``profile_steps`` that every
    ``transition_monoid`` of the automaton walks, is built on first use,
    outside ``==``, ``hash`` and ``repr``.
    """

    ts: DetTS
    acc: frozenset[tuple[int, int]]
    polarity: str = BUCHI

    def __post_init__(self) -> None:
        if self.polarity not in (BUCHI, COBUCHI):
            raise AutomatonError(f"unknown polarity {self.polarity!r}")
        for s, a in self.acc:
            if not (0 <= s < self.ts.state_count and 0 <= a < self.ts.alphabet.size):
                raise AutomatonError("acc pair out of range")

    @cached_property
    def _steps(self) -> Steps:
        return profile_steps(self.ts, self.acc)


@dataclass(frozen=True)
class Nba:
    """Nondeterministic Buchi automaton with accepting transitions.

    ``_succ[s][a]`` lists s's (target, accepting) edges on letter a by
    target; it is built on first use, outside ``==``, ``hash`` and ``repr``.
    """

    alphabet: Alphabet
    state_count: int
    initials: frozenset[int]
    trans: frozenset[tuple[int, int, int]]
    acc: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        if not self.acc <= self.trans:
            raise AutomatonError("acc must be a subset of trans")
        n, k = self.state_count, self.alphabet.size
        for s in self.initials:
            if not 0 <= s < n:
                raise AutomatonError("initial state out of range")
        for s, a, t in self.trans:
            if not (0 <= s < n and 0 <= t < n and 0 <= a < k):
                raise AutomatonError("transition out of range")

    @cached_property
    def _succ(self) -> list[list[list[tuple[int, bool]]]]:
        succ: list[list[list[tuple[int, bool]]]] = [
            [[] for _ in range(self.alphabet.size)]
            for _ in range(self.state_count)]
        for tr in self.trans:
            succ[tr[0]][tr[1]].append((tr[2], tr in self.acc))
        for row in succ:
            for cell in row:
                cell.sort()
        return succ


@dataclass(frozen=True)
class UpWord:
    """The ultimately periodic word prefix . period^omega."""

    prefix: Word
    period: Word

    def __post_init__(self) -> None:
        if not self.period:
            raise AutomatonError("period must be nonempty")


def run_word(ts: DetTS, state: int, w: Word) -> int:
    delta, n = ts.delta, ts.alphabet.size
    for a in w:
        if not 0 <= a < n:
            raise AlphabetError(f"letter index {a} outside alphabet")
        state = delta[state][a]
    return state


def explore(roots: Iterable[S], successors: Callable[[S], Iterable[S]]
            ) -> tuple[list[S], list[tuple[int, ...]]]:
    """Number the states reachable from ``roots`` in breadth-first discovery
    order: the distinct roots first, then each state's new successors in the
    order ``successors`` lists them.  Returns ``(nodes, rows)`` where
    ``nodes[i]`` is state i and ``rows[i]`` holds the ids of the targets that
    ``successors(nodes[i])`` returned, in the same order.

    ``successors`` runs exactly once per state, in id order, so a caller can
    collect per-edge data (such as acceptance marks) alongside."""
    index: dict[S, int] = {}
    nodes: list[S] = []
    for r in roots:
        if r not in index:
            index[r] = len(nodes)
            nodes.append(r)
    rows: list[tuple[int, ...]] = []
    for state in nodes:  # nodes grows while it is walked
        row = []
        for t in successors(state):
            i = index.get(t)
            if i is None:
                i = index[t] = len(nodes)
                nodes.append(t)
            row.append(i)
        rows.append(tuple(row))
    return nodes, rows


# profiles are bytes up to this many reachable states, whose entries
# (state << 1 | bit) then fit in a byte
BYTE_PROFILES = 128

# (reachable states, each letter's step list over profile entries); see
# profile_steps
Steps = tuple[list[int], list[list[int]]]

# (profiles, profile TS, the reachable states that profile entries point
# to); see transition_monoid
Monoid = tuple[list[Sequence[int]], DetTS, list[int]]


def profile_steps(ts: DetTS, marks: Collection[tuple[int, int]]) -> Steps:
    """The per-automaton part of every transition monoid of ts with its
    ``marks``: ts's reachable states in the order that profile entries
    point to, and each letter's step list over the entries
    ``(j << 1) | bit`` (see transition_monoid)."""
    states, moves = explore([ts.initial], ts.delta.__getitem__)
    steps = [[(moves[x >> 1][a] << 1) | (x & 1)
              | ((states[x >> 1], a) in marks) for x in range(2 * len(states))]
             for a in range(ts.alphabet.size)]
    return states, steps


def transition_monoid(d: DetOmega, cap: int,
                      domain: Sequence[int] | None = None) -> Monoid:
    """The transition-profile TS of d, whose profile bits mark d's
    accepting transitions, explored from the identity (the profile of
    epsilon), and d's reachable states in the order that profile entries
    point to.  The profile of a word z holds, for the i-th state of the
    ``domain`` (default: the reachable states in that order),
    ``(j << 1) | bit``: z leads it to the j-th reachable state, and bit says
    whether that run took an accepting transition.  Profiles are bytes when
    at most BYTE_PROFILES states are reachable, else tuples.  They are
    numbered as ``explore`` numbers them; raises ResourceLimitError when
    more than ``cap`` are reachable.  Every monoid of d walks the same
    ``d._steps``."""
    states, step_lists = d._steps
    start = range(0, 2 * len(states), 2) if domain is None \
        else [2 * states.index(s) for s in domain]
    if len(states) <= BYTE_PROFILES:
        # bytes.translate maps every entry through a 256-byte table at once
        tables = [bytes(step).ljust(256, b"\0") for step in step_lists]
        identity, extend = bytes(start), bytes.translate
    else:
        tables = [step.__getitem__ for step in step_lists]
        identity, extend = tuple(start), lambda p, f: tuple(list(map(f, p)))
    index = {identity: 0}
    profiles = [identity]
    # cols[a][i] is the id of profile i extended by a; the rows are built
    # once the walk is complete
    cols: list[list[int]] = [[] for _ in tables]
    letters = [(table, col.append) for table, col in zip(tables, cols)]
    get = index.get
    for p in profiles:  # profiles grows while it is walked
        for table, put in letters:
            q = extend(p, table)
            i = get(q)
            if i is None:
                i = len(profiles)
                if i >= cap:
                    raise ResourceLimitError(
                        f"profile DFA exceeded cap of {cap} states")
                index[q] = i
                profiles.append(q)
            put(i)
    # the index is no longer needed; freeing it first lowers the peak
    del index, get
    delta = tuple(list(zip(*cols)))
    return profiles, DetTS(d.ts.alphabet, len(profiles), 0, delta), states


def member_upword_det(a: DetOmega, w: UpWord) -> bool:
    """Decide u . v^omega in L(a), in either polarity: run u, then iterate
    the period until the state sequence at period boundaries cycles."""
    s = run_word(a.ts, a.ts.initial, w.prefix)
    if min(w.period) < 0 or max(w.period) >= a.ts.alphabet.size:
        raise AlphabetError("word letter outside alphabet")
    delta, acc = a.ts.delta, a.acc
    seen: dict[int, int] = {}
    flags: list[bool] = []
    while s not in seen:
        seen[s] = len(flags)
        hit = False
        for letter in w.period:
            if (s, letter) in acc:
                hit = True
            s = delta[s][letter]
        flags.append(hit)
    inf_hit = any(flags[seen[s]:])
    return inf_hit if a.polarity == BUCHI else not inf_hit


def member_upword_nba(a: Nba, w: UpWord) -> bool:
    """Decide membership by producting a with the positions of the lasso
    word (u, v): position i reads letter i and moves to i+1, the last one
    wraps back to the start of v.  The word is accepted iff the product has
    a lasso whose loop takes an accepting edge."""
    letters = (*w.prefix, *w.period)
    m, succ = len(letters), a._succ
    if not all(0 <= letter < a.alphabet.size for letter in letters):
        raise AlphabetError("word letter outside alphabet")

    def moves(code: int) -> list[Move]:
        q, pos = divmod(code, m)  # the state (q, pos) is q * m + pos
        nxt = pos + 1 if pos + 1 < m else len(w.prefix)
        return [(letters[pos], t * m + nxt, marked, False)
                for t, marked in succ[q][letters[pos]]]

    return _least_lasso(*_product([q * m for q in sorted(a.initials)],
                                  moves)) is not None


def dfa_product(a: Dfa, b: Dfa, final_rule: Callable[[bool, bool], bool]) -> Dfa:
    """Reachable product DFA; (s, t) is final per final_rule."""
    if a.ts.alphabet != b.ts.alphabet:
        raise AlphabetError("alphabet mismatch in dfa_product")
    da, db = a.ts.delta, b.ts.delta
    pairs, delta = explore([(a.ts.initial, b.ts.initial)],
                           lambda p: zip(da[p[0]], db[p[1]]))
    finals = frozenset(i for i, (s, t) in enumerate(pairs)
                       if final_rule(s in a.finals, t in b.finals))
    ts = DetTS(a.ts.alphabet, len(pairs), 0, tuple(delta))
    return Dfa(ts, finals)


def coarsest_quotient(ts: DetTS,
                      label: Callable[[int], Hashable]) -> tuple[list[int],
                                                                 DetTS]:
    """The part of ts reachable from its initial state, quotiented by the
    coarsest right congruence in which equivalent states have equal labels
    (Moore-style partition refinement).  Returns ``(reps, quotient)``:
    ``reps[b]`` is the first state of block b in breadth-first order.

    Blocks are numbered by the first appearance of their states in the
    breadth-first order of ts, which is the quotient's own breadth-first
    order: the quotient is already numbered in breadth-first order."""
    order, rows = explore([ts.initial], ts.delta.__getitem__)
    reps, quotient = _refine(ts.alphabet, rows, list(map(label, order)))
    return [order[i] for i in reps], quotient


def _refine(alphabet: Alphabet, rows: Sequence[Sequence[int]],
            labels: Sequence[Hashable]) -> tuple[list[int], DetTS]:
    """``coarsest_quotient`` of a TS whose states are all reachable and
    numbered breadth-first from state 0, given as its ``rows`` and each
    state's label.

    Each round keys every state by its block and its successors' blocks,
    one letter's column at a time, and renumbers the keys by first
    appearance, which keeps blocks numbered by their least state."""
    rank = dict(zip(dict.fromkeys(labels), count()))
    block = list(map(rank.__getitem__, labels))
    nblocks = len(rank)
    cols = list(zip(*rows))
    while True:
        keys = list(zip(block, *(map(block.__getitem__, col)
                                 for col in cols)))
        rank = dict(zip(dict.fromkeys(keys), count()))
        # blocks only ever split, so an unchanged count means stable
        if len(rank) == nblocks:
            break
        block = list(map(rank.__getitem__, keys))
        nblocks = len(rank)
    # the least state of each block, in block order
    reps = sorted(dict(zip(reversed(block), reversed(range(len(block)))))
                  .values())
    delta = tuple([tuple([block[t] for t in rows[r]]) for r in reps])
    return reps, DetTS(alphabet, nblocks, 0, delta)


def dfa_minimize(a: Dfa) -> Dfa:
    """Minimal complete DFA via partition refinement; states are exactly the
    Nerode classes of L(a), numbered in breadth-first order (see
    coarsest_quotient)."""
    reps, ts = coarsest_quotient(a.ts, a.finals.__contains__)
    return Dfa(ts, frozenset(b for b, s in enumerate(reps) if s in a.finals))


def dfa_lang_equal(a: Dfa, b: Dfa) -> bool:
    diff = dfa_product(a, b, lambda x, y: x != y)
    return not diff.finals


def _scc_ids(succ: Sequence[Iterable[int]]) -> list[int]:
    """Tarjan SCC ids (iterative); ids are in reverse topological order of
    discovery, but callers should rely on equality only."""
    n = len(succ)
    ids = [-1] * n  # a numbered state without an id is on the stack
    low = [0] * n
    num = [-1] * n
    counter = 0
    comp = 0
    stack: list[int] = []
    for root in range(n):
        if num[root] >= 0:
            continue
        work: list[tuple[int, Iterable[int]]] = [(root, iter(succ[root]))]
        num[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while work:
            v, it = work[-1]
            for w in it:
                if num[w] < 0:
                    num[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if ids[w] < 0:
                    low[v] = min(low[v], num[w])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == num[v]:
                    while True:
                        w = stack.pop()
                        ids[w] = comp
                        if w == v:
                            break
                    comp += 1
    return ids


def _bfs_words(graph: Sequence[Sequence[Edge]], sources: Iterable[int],
               comp: Sequence[int] | None = None) -> dict[int, Word]:
    """Breadth-first words from the sorted sources to each reachable state;
    ``graph[s]`` lists s's edges sorted by (letter, target).  Words are
    shortest, and ties go to the state dequeued first.  With ``comp``, only
    edges that are not second-marked and stay in the one source's SCC
    ``comp[source]`` are taken."""
    words: dict[int, Word] = {}
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        words[s] = ()
        queue.append(s)
    scc = None if comp is None else comp[queue[0]]
    while queue:
        s = queue.popleft()
        for letter, t, _, second in graph[s]:
            if t not in words and (comp is None
                                   or not second and comp[t] == scc):
                words[t] = words[s] + (letter,)
                queue.append(t)
    return words


def _least_lasso(graph: Sequence[Sequence[Edge]],
                 roots: Iterable[int]) -> UpWord | None:
    """The least lasso from ``roots`` whose loop begins with an accepting
    edge and takes no second-marked edge (stems may take them), as the word
    stem . loop^omega; None when there is none.  ``graph[s]`` lists s's
    edges sorted by (letter, target).

    A candidate is an accepting, unmarked edge s -l-> t inside an SCC of the
    unmarked edges, with s reachable: its stem is the breadth-first word
    from the roots to s, its loop is l and then the breadth-first word from
    t back to s within that SCC.  Candidates are compared by (total length,
    stem length, stem, loop)."""
    comp = _scc_ids([[t for _, t, _, second in row if not second]
                     for row in graph])
    loops = [(s, l, t) for s, row in enumerate(graph)
             for l, t, accepting, second in row
             if accepting and not second and comp[s] == comp[t]]
    if not loops:
        return None
    stems = _bfs_words(graph, roots)
    backs: dict[int, dict[int, Word]] = {}
    best: tuple[int, int, Word, Word] | None = None
    for s, l, t in loops:
        if s not in stems:
            continue
        if t not in backs:
            backs[t] = _bfs_words(graph, [t], comp)
        stem, loop = stems[s], (l,) + backs[t][s]
        key = (len(stem) + len(loop), len(stem), stem, loop)
        if best is None or key < best:
            best = key
    return None if best is None else UpWord(best[2], best[3])


def det_to_nba(d: DetOmega) -> Nba:
    """View a deterministic Buchi automaton as an NBA."""
    if d.polarity != BUCHI:
        raise AutomatonError("det_to_nba expects Buchi polarity")
    ts = d.ts
    trans = frozenset((s, a, ts.delta[s][a]) for s in range(ts.state_count)
                      for a in range(ts.alphabet.size))
    acc = frozenset((s, a, ts.delta[s][a]) for s, a in d.acc)
    return Nba(ts.alphabet, ts.state_count, frozenset([ts.initial]),
               trans, acc)


def _product(roots: Iterable[int], moves: Callable[[int], Iterable[Move]]
             ) -> tuple[list[list[Edge]], range]:
    """The graph of the states ``moves`` leads to from the distinct
    ``roots``, numbered in breadth-first discovery order, and the distinct
    roots' ids.  States are integer codes; ``moves(p)`` lists p's edges as
    (letter, target code, accepting, second mark), and row i holds state i's
    edges with target ids, sorted by (letter, target)."""
    index: dict[int, int] = {}
    for r in roots:
        index.setdefault(r, len(index))
    codes = list(index)
    nroots = len(codes)
    graph: list[list[Edge]] = []
    for p in codes:  # codes grows while it is walked
        row: list[Edge] = []
        for l, t, first, second in moves(p):
            i = index.get(t)
            if i is None:
                i = index[t] = len(codes)
                codes.append(t)
            row.append((l, i, first, second))
        row.sort()
        graph.append(row)
    return graph, range(nroots)


def _pair_graph(a: Nba, b: Nba) -> tuple[list[list[Edge]], range]:
    """The product of a and b (see _product), its edges accepting where a
    accepts and second-marked where b accepts; (qa, qb) has the code
    qa * nb + qb."""
    if a.alphabet != b.alphabet:
        raise AlphabetError("alphabet mismatch")
    a_succ, b_succ, nb = a._succ, b._succ, b.state_count
    letters = range(a.alphabet.size)

    def moves(p: int) -> list[Move]:
        a_row, b_row = a_succ[p // nb], b_succ[p % nb]
        return [(l, ta * nb + tb, first, second)
                for l in letters
                for ta, first in a_row[l]
                for tb, second in b_row[l]]

    return _product([p * nb + q for p in sorted(a.initials)
                     for q in sorted(b.initials)], moves)


def _phase_graph(pairs: list[list[Edge]], roots: range
                 ) -> tuple[list[list[Edge]], range]:
    """The pair graph degeneralized for runs taking both accepting and
    second-marked edges infinitely often, by the standard two phases: phase
    0 waits for an accepting edge, phase 1 for a second-marked edge, which
    becomes the phase graph's accepting edge and resets the phase.  (pair,
    phase) has the code 2 * pair + phase; edges come in (letter, pair id)
    order, so the numbering follows the pair graph's."""

    def moves(p: int) -> list[Move]:
        if p & 1:
            return [(l, 2 * t + (not second), second, False)
                    for l, t, _, second in pairs[p >> 1]]
        return [(l, 2 * t + first, False, False)
                for l, t, first, _ in pairs[p >> 1]]

    return _product([2 * q for q in roots], moves)


def nba_dba_included(a: Nba, b: DetOmega) -> UpWord | bool:
    """True iff L(a) is a subset of L(b); otherwise a word in L(a) \\ L(b)."""
    if b.polarity != BUCHI:
        raise AutomatonError("nba_dba_included expects a Buchi right side")
    return _least_lasso(*_pair_graph(a, det_to_nba(b))) or True


def nba_dba_intersection_witness(a: Nba, b: DetOmega) -> UpWord | None:
    """A word in L(a) /\\ L(b), or None if the intersection is empty."""
    if b.polarity != BUCHI:
        raise AutomatonError("intersection expects a Buchi right side")
    return nba_nba_intersection_witness(a, det_to_nba(b))


def nba_nba_intersection_witness(a: Nba, b: Nba) -> UpWord | None:
    """A word in L(a) /\\ L(b) of two NBAs, or None when empty."""
    return _least_lasso(*_phase_graph(*_pair_graph(a, b)))


def dba_state_equiv(d: DetOmega, p: int, q: int) -> bool:
    """True iff the residual languages of d from p and from q coincide."""
    if p == q:
        return True
    dp, dq = (replace(d, ts=replace(d.ts, initial=s)) for s in (p, q))
    return nba_dba_included(det_to_nba(dp), dq) is True \
        and nba_dba_included(det_to_nba(dq), dp) is True


def dba_equiv_table(d: DetOmega,
                    states: Sequence[int]) -> list[list[bool]]:
    """``table[i][j]`` is True iff the residual languages of d from
    ``states[i]`` and from ``states[j]`` coincide, decided in one pass over
    the pair graph (p, q) -a-> (delta(p, a), delta(q, a)).  ``states`` must
    be closed under successors, such as the reachable states of d.

    A word is in L(p) \\ L(q) iff its pair run ends in a cycle that takes a
    p-accepting edge and no q-accepting one.  So a pair is bad when an SCC
    of the pair graph without q-accepting edges holds a p-accepting edge,
    or the same with p and q swapped, and p, q are inequivalent iff (p, q)
    reaches a bad pair."""
    if d.polarity != BUCHI:
        raise AutomatonError("dba_equiv_table expects Buchi polarity")
    n, k = len(states), d.ts.alphabet.size
    index = {s: i for i, s in enumerate(states)}
    step = [[index[d.ts.delta[s][a]] for a in range(k)] for s in states]
    marked = [[(s, a) in d.acc for a in range(k)] for s in states]
    pre: list[list[list[int]]] = [[[] for _ in range(k)] for _ in states]
    for s in range(n):
        for a in range(k):
            pre[step[s][a]][a].append(s)
    # edges are computed where they are used, so a pair costs little more
    # than its quiet edges and its SCC id
    pairs = range(n * n)

    def succ(i: int) -> list[int]:
        return [tp * n + tq for tp, tq in zip(step[i // n], step[i % n])]

    def pred(j: int) -> list[int]:
        return [p * n + q for a in range(k)
                for p in pre[j // n][a] for q in pre[j % n][a]]

    comp = _scc_ids([[t for t, m in zip(succ(i), marked[i % n]) if not m]
                     for i in pairs])
    bad: list[int] = []
    for i in pairs:
        p, q = divmod(i, n)
        if any(mp and not mq and comp[i] == comp[t]
               for t, mp, mq in zip(succ(i), marked[p], marked[q])):
            bad += (i, q * n + p)
    inequivalent = bytearray(n * n)
    for i in bad:
        inequivalent[i] = 1
    while bad:
        for i in pred(bad.pop()):
            if not inequivalent[i]:
                inequivalent[i] = 1
                bad.append(i)
    return [[not inequivalent[p * n + q] for q in range(n)]
            for p in range(n)]


def shortest_state_words(ts: DetTS) -> dict[int, Word]:
    """Shortest lexicographically least access word for each reachable state."""
    graph = [[(a, t, False, False) for a, t in enumerate(row)]
             for row in ts.delta]
    return _bfs_words(graph, [ts.initial])
