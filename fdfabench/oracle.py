"""Independent output checks for the benchmark.

Everything here reads the program's text outputs with its own small parser
and decides membership of ultimately periodic words u.v^omega by explicit
simulation.  It shares no logic with the ``omega_fdfa`` package beyond the
raw transition tables in the files.

The central check, :func:`agree_upto`, compares two acceptors on every
UP-word with |u| + |v| <= bound.  Whether u.v^omega is accepted depends on u
only through the states u reaches, so the check walks the graph of reachable
state pairs instead of every prefix: for a pair first reached by a prefix of
length l it compares all periods of length <= bound - l.  That covers exactly
the same words as the naive double loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class FormatError(ValueError):
    """An output file does not follow the workbench text format."""


# --------------------------------------------------------------------------
# parsing


@dataclass
class Automaton:
    """An automaton as read from a file: ``edges[s]`` maps a letter index to
    a list of (target, accepting) pairs; ``finals`` is set for DFA blocks."""

    letters: tuple[str, ...]
    states: int
    initial: int
    edges: list[dict[int, list[tuple[int, bool]]]]
    finals: frozenset[int] | None = None

    def deterministic(self) -> bool:
        return all(len(ts) == 1 for row in self.edges for ts in row.values()) \
            and all(len(row) == len(self.letters) for row in self.edges)


@dataclass
class Family:
    """An FDFA as read from a file."""

    letters: tuple[str, ...]
    leading: Automaton
    progress: list[Automaton]
    flavor: str | None


def _lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _block(lines: list[str], pos: int, letters: tuple[str, ...] | None
           ) -> tuple[Automaton, int]:
    states = initial = None
    trans: list[tuple[int, str, int, bool]] = []
    finals = None
    while pos < len(lines) and ":" in lines[pos]:
        key, _, rest = lines[pos].partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "alphabet":
            letters = tuple(rest.split())
        elif key == "states":
            states = int(rest)
        elif key == "initial":
            initial = int(rest)
        elif key == "trans":
            parts = rest.split()
            trans.append((int(parts[0]), parts[1], int(parts[2]),
                          parts[3:] == ["acc"]))
        elif key == "finals":
            finals = frozenset(int(t) for t in rest.split())
        elif key != "acceptance":
            raise FormatError(f"unknown field {key!r}")
        pos += 1
    if letters is None or states is None or initial is None:
        raise FormatError("block lacks alphabet, states or initial")
    index = {x: i for i, x in enumerate(letters)}
    edges: list[dict[int, list[tuple[int, bool]]]] = [{} for _ in range(states)]
    for s, x, t, acc in trans:
        edges[s].setdefault(index[x], []).append((t, acc))
    return Automaton(letters, states, initial, edges, finals), pos


def parse_automaton(text: str) -> Automaton:
    lines = _lines(text)
    aut, pos = _block(lines, 0, None)
    if pos != len(lines):
        raise FormatError(f"trailing content {lines[pos]!r}")
    return aut


def parse_family(text: str) -> Family:
    lines = _lines(text)
    if not lines or lines[0] != "fdfa":
        raise FormatError("missing fdfa header")
    pos = 1
    flavor = None
    if lines[pos].startswith("flavor:"):
        flavor = lines[pos].split(":", 1)[1].strip()
        pos += 1
    if lines[pos] != "leading":
        raise FormatError("missing leading block")
    leading, pos = _block(lines, pos + 1, None)
    progress = []
    while pos < len(lines):
        head = lines[pos].split()
        if head != ["progress", str(len(progress))]:
            raise FormatError(f"unexpected line {lines[pos]!r}")
        block, pos = _block(lines, pos + 1, leading.letters)
        progress.append(block)
    if len(progress) != leading.states:
        raise FormatError("need one progress block per leading state")
    return Family(leading.letters, leading, progress, flavor)


def family_size(f: Family) -> int:
    return f.leading.states + sum(p.states for p in f.progress)


def _step(aut: Automaton, s: int, a: int) -> int:
    return aut.edges[s][a][0][0]


# --------------------------------------------------------------------------
# acceptors: a start state, a successor function and "v^omega from state"


class Acceptor:
    """What :func:`agree_upto` needs from one side of a comparison."""

    def start(self):
        raise NotImplementedError

    def succ(self, state, a: int):
        raise NotImplementedError

    def accepts_loop(self, state, v: tuple[int, ...]) -> bool:
        """Whether v^omega is accepted from ``state``."""
        raise NotImplementedError


class DbaAcceptor(Acceptor):
    """A deterministic Buchi automaton with accepting transitions."""

    def __init__(self, aut: Automaton):
        if not aut.deterministic():
            raise FormatError("expected a complete deterministic automaton")
        self.aut = aut

    def start(self):
        return self.aut.initial

    def succ(self, state, a):
        return _step(self.aut, state, a)

    def accepts_loop(self, state, v):
        boundary = [state]
        s = state
        while True:
            for a in v:
                s = _step(self.aut, s, a)
            if s in boundary:
                break
            boundary.append(s)
        first = s
        while True:
            for a in v:
                if self.aut.edges[s][a][0][1]:
                    return True
                s = _step(self.aut, s, a)
            if s == first:
                return False


class FamilyAcceptor(Acceptor):
    """An FDFA under normalized acceptance: from leading state q, repeat v
    until the leading state recurs, then run the progress DFA of that state
    on the repeated period."""

    def __init__(self, f: Family):
        self.f = f

    def start(self):
        return self.f.leading.initial

    def succ(self, state, a):
        return _step(self.f.leading, state, a)

    def accepts_loop(self, state, v):
        lead = self.f.leading
        seen = [state]
        q = state
        while True:
            for a in v:
                q = _step(lead, q, a)
            if q in seen:
                break
            seen.append(q)
        repeats = len(seen) - seen.index(q)
        p = self.f.progress[q]
        s = p.initial
        for _ in range(repeats):
            for a in v:
                s = _step(p, s, a)
        return s in p.finals


class NbaAcceptor(Acceptor):
    """A nondeterministic Buchi automaton; its state is the set of automaton
    states a prefix reaches."""

    def __init__(self, aut: Automaton):
        self.aut = aut
        self._good: dict[tuple[int, ...], frozenset[int]] = {}

    def start(self):
        return frozenset([self.aut.initial])

    def succ(self, state, a):
        return frozenset(t for s in state
                         for t, _ in self.aut.edges[s].get(a, ()))

    def accepts_loop(self, state, v):
        if v not in self._good:
            self._good[v] = _loop_accepting_states(self.aut, v)
        return not state.isdisjoint(self._good[v])


def _loop_accepting_states(aut: Automaton, v: tuple[int, ...]) -> frozenset[int]:
    """States from which v^omega has an accepting run: in the graph over
    (state, position in v), numbered state * |v| + position, those that
    reach a strongly connected component holding an accepting edge."""
    n = len(v)
    size = aut.states * n
    succ: list[list[int]] = [[] for _ in range(size)]
    acc_edges: list[tuple[int, int]] = []
    for s in range(aut.states):
        for k in range(n):
            x = s * n + k
            nxt = (k + 1) % n
            for t, acc in aut.edges[s].get(v[k], ()):
                y = t * n + nxt
                succ[x].append(y)
                if acc:
                    acc_edges.append((x, y))
    comp = _components(size, succ)
    good = {comp[x] for x, y in acc_edges if comp[x] == comp[y]}
    reach = [comp[x] in good for x in range(size)]
    pred: list[list[int]] = [[] for _ in range(size)]
    for x in range(size):
        for y in succ[x]:
            pred[y].append(x)
    stack = [x for x in range(size) if reach[x]]
    while stack:
        y = stack.pop()
        for x in pred[y]:
            if not reach[x]:
                reach[x] = True
                stack.append(x)
    return frozenset(s for s in range(aut.states) if reach[s * n])


def _components(size: int, succ: list[list[int]]) -> list[int]:
    """Strongly connected component ids (iterative Tarjan)."""
    index = [-1] * size
    low = [0] * size
    comp = [-1] * size
    on_stack = [False] * size
    stack: list[int] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            node, i = work[-1]
            edges = succ[node]
            if i < len(edges):
                work[-1] = (node, i + 1)
                nxt = edges[i]
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, 0))
                elif on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                while True:
                    x = stack.pop()
                    on_stack[x] = False
                    comp[x] = node
                    if x == node:
                        break
    return comp


class ParityLanguage(Acceptor):
    """"The maximal letter seen infinitely often is even" over the letters
    1..k (letter index i stands for i + 1); stateless."""

    def start(self):
        return 0

    def succ(self, state, a):
        return 0

    def accepts_loop(self, state, v):
        return (max(v) + 1) % 2 == 0


# --------------------------------------------------------------------------
# the comparison


def periods(nletters: int, bound: int) -> list[tuple[int, ...]]:
    """Nonempty words of length <= bound in length-then-lex order."""
    out: list[tuple[int, ...]] = []
    layer: list[tuple[int, ...]] = [()]
    for _ in range(bound):
        layer = [w + (a,) for w in layer for a in range(nletters)]
        out.extend(layer)
    return out


def bound_for(nletters: int, budget: int) -> int:
    """The largest length bound whose nonempty periods number at most
    ``budget`` (at least 1)."""
    bound, count, layer = 0, 0, 1
    while True:
        layer *= nletters
        if count + layer > budget:
            return max(bound, 1)
        count += layer
        bound += 1


def agree_upto(ref: Acceptor, test: Acceptor, nletters: int, bound: int
               ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first UP-word (u, v) with |u| + |v| <= bound on which the two
    acceptors disagree, or None when they agree on all of them."""
    start = (ref.start(), test.start())
    dist = {start: ()}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        u = dist[pair]
        if len(u) + 1 >= bound:
            continue
        for a in range(nletters):
            nxt = (ref.succ(pair[0], a), test.succ(pair[1], a))
            if nxt not in dist:
                dist[nxt] = u + (a,)
                queue.append(nxt)
    vs = periods(nletters, bound)
    memo_ref: dict = {}
    memo_test: dict = {}
    for (r, t), u in sorted(dist.items(), key=lambda kv: (len(kv[1]), kv[1])):
        for v in vs:
            if len(u) + len(v) > bound:
                break
            key_r, key_t = (r, v), (t, v)
            if key_r not in memo_ref:
                memo_ref[key_r] = ref.accepts_loop(r, v)
            if key_t not in memo_test:
                memo_test[key_t] = test.accepts_loop(t, v)
            if memo_ref[key_r] != memo_test[key_t]:
                return u, v
    return None
