"""Active learning of limit FDFAs from membership and equivalence oracles:
an observation table for the leading DFA, a discriminator tree for each
progress DFA, both reading every entry from one membership cache per run,
table closing, hypothesis construction, counterexample analysis, two
teacher realizations, and exact equivalence queries by a search over the
hypothesis paired with a saturated reference FDFA.  A learning run returns
the canonical limit form of the hypothesis it accepts."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from . import congruence
from .core_automata import (
    Alphabet,
    AlphabetError,
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
    ResourceLimitError,
    UpWord,
    Word,
    member_upword_det,  # noqa: F401  (fdfabench/spans.py counts it here)
    nba_dba_included,  # noqa: F401  (fdfabench/spans.py wraps it here)
    nba_dba_intersection_witness,  # noqa: F401  (likewise)
    nba_nba_intersection_witness,  # noqa: F401  (likewise)
    run_word,
)
from .fdfa import (
    Fdfa,
    LIMIT,
    accepts_decomposition,  # noqa: F401  (fdfabench/spans.py counts it here)
    accepts_from,
    accepts_upword,
    complement_finals,  # noqa: F401  (fdfabench/spans.py wraps it here)
    leading_isomorphic,
    limit_canonical_form,
    normalize,
    saturation_witness,
)
from .translate import fdfa_to_nba  # noqa: F401  (fdfabench/spans.py wraps it)

# Membership queries and equivalence-query rounds one learning run may
# take; read at call time.
MAX_MQ = 200_000
MAX_ITERATIONS = 500


class LearnLimitExceeded(ResourceLimitError):
    """The learner hit its iteration or membership-query cap."""


class CounterexampleError(AutomatonError):
    """The teacher returned a word that is not a counterexample."""


@dataclass
class LearnStats:
    mq: int = 0
    eq: int = 0
    iterations: int = 0


@dataclass
class QueryLog:
    """Stable one-line-per-query log for regression tests."""

    alphabet: Alphabet
    lines: list[str] = field(default_factory=list)

    def mq(self, prefix: Word, period: Word, result: bool) -> None:
        u = self.alphabet.format_word(prefix) or "-"
        v = self.alphabet.format_word(period)
        self.lines.append(f"MQ {u} {v} -> {int(result)}")

    def eq_accept(self) -> None:
        self.lines.append("EQ -> accept")

    def eq_counterexample(self, w: UpWord) -> None:
        u = self.alphabet.format_word(w.prefix) or "-"
        v = self.alphabet.format_word(w.period)
        self.lines.append(f"EQ -> ce {u} {v}")


class _PairGraph:
    """The pairs (q, c) of a leading DFA's states and R's that some u
    reaches, numbered breadth-first: ``pairs[i]``, its least u
    ``access[i]``, its successors' numbers by letter ``succ[i]``, and
    ``periods[i]``, None until its least period is searched, then the
    progress DFA of q it was searched for and the period."""

    def __init__(self, leading: DetTS, r: Fdfa):
        self.leading = leading
        hd, rd = leading.delta, r.leading.delta
        root = (leading.initial, r.leading.initial)
        ids = {root: 0}
        self.pairs = [root]
        self.access: list[Word] = [()]
        self.succ: list[tuple[int, ...]] = []
        for i, (q, c) in enumerate(self.pairs):  # pairs grows while walked
            row = []
            for a, pair in enumerate(zip(hd[q], rd[c])):
                if pair not in ids:
                    ids[pair] = len(self.pairs)
                    self.pairs.append(pair)
                    self.access.append(self.access[i] + (a,))
                row.append(ids[pair])
            self.succ.append(tuple(row))
        self.periods: list = [None] * len(self.pairs)


def _least_period(graph: _PairGraph, h: Fdfa, r: Fdfa, i: int
                  ) -> Word | None:
    """The least nonempty v, in length-lex order, that leads pair i of
    ``graph``, (q, c), back to itself while the progress DFAs of h's q and
    r's c disagree on it; breadth-first over (pair, h progress, r progress)
    triples, each linked to the one it was reached from, so v is spelled
    only on a hit."""
    q, c = graph.pairs[i]
    n, m = h.progress[q], r.progress[c]
    succ, nd, md = graph.succ, n.ts.delta, m.ts.delta
    nf, mf = n.finals, m.finals
    letters = range(h.leading.alphabet.size)
    # the start is reached by epsilon only until a nonempty v returns to it
    seen: set[tuple[int, int, int]] = set()
    queue = [(i, n.ts.initial, m.ts.initial)]
    links = [(0, 0)]  # (index of the previous triple, letter) per triple
    for k, (p, s, t) in enumerate(queue):  # queue grows while it is walked
        row, ns, mt = succ[p], nd[s], md[t]
        for a in letters:
            state = (row[a], ns[a], mt[a])
            if state in seen:
                continue
            seen.add(state)
            if state[0] == i and (state[1] in nf) != (state[2] in mf):
                v = [a]
                while k:
                    k, b = links[k]
                    v.append(b)
                return tuple(reversed(v))
            queue.append(state)
            links.append((k, a))
    return None


def _pair_search(h: Fdfa, r: Fdfa, graph: _PairGraph) -> UpWord | None:
    """The least (|u| + |v|, u, v) such that u leads h and r to leading
    states q and c, v leads q back to q and c back to c, and the progress
    DFAs of q and c disagree on v; None if there is none.

    Only the length-lex least u of each pair (q, c) can be least, so the
    pairs of ``graph``, of h's leading DFA and r, are walked in its order,
    and the walk stops once |u| + 1 exceeds the best total.  A period
    longer than the best total less |u| cannot win, so each pair's least
    period is searched without a bound and kept in ``graph.periods``; it is
    searched again only when h's progress DFA of q is not the object it was
    searched for; a fresh graph searches every pair it walks."""
    access, periods = graph.access, graph.periods
    best: tuple[int, Word, Word] | None = None
    for i, (q, _) in enumerate(graph.pairs):
        u = access[i]
        if best is not None and len(u) + 1 > best[0]:
            break
        n = h.progress[q]
        known = periods[i]
        if known is None or known[0] is not n:
            known = periods[i] = (n, _least_period(graph, h, r, i))
        v = known[1]
        if v is not None:
            found = (len(u) + len(v), u, v)
            if best is None or found < best:
                best = found
    return None if best is None else UpWord(best[1], best[2])


class _Teacher:
    """Query plumbing shared by the teachers: counters, the optional log,
    and a saturated reference FDFA R of the target, which answers every
    query.

    A membership query on u . v^omega runs u on R's leading DFA to a state
    s and asks ``accepts_from(R, s, v)``.

    An equivalence query on a hypothesis H checks in three steps:

    1. The pair search (``_pair_search``) returns the least (|u| + |v|, u,
       v) with u . v^omega normalized in both H and R and judged unlike by
       their progress DFAs, which is a counterexample since R is saturated.
       A pair's least period depends only on H's leading DFA, on the
       pair's progress DFA in H and on R, so the teacher keeps one
       ``_PairGraph`` while H's leading DFA is the same object.  The
       learner keeps the DFA of every table it did not close again, so a
       query after a progress refinement searches again only the pairs of
       the refined state.
    2. If there is none, H is accepted when its leading DFA is isomorphic
       to R's.  A decomposition is then normalized in H exactly when it is
       in R, and step 1 found their progress DFAs agreeing on every period
       that returns to its leading state, so H and R accept the same
       UP-words.
    3. Otherwise ``fdfa.saturation_witness`` looks for two returning
       decompositions of one word that H judges unlike.  If there are none,
       H is saturated and so exact: a wrong normalized (u, v) would make
       some (u . v^i, v^p), normalized in both families, a mismatch of step
       1.  Otherwise both are normalized in H, R judges them alike, and the
       one whose verdict in R is not H's is returned.  Step 3 walks a
       transition monoid, so it shares ``congruence.PROFILE_CAP``."""

    def __init__(self, reference: Fdfa, log: QueryLog | None = None):
        self.reference = reference
        self.alphabet = reference.leading.alphabet
        self.log = log
        self.mq_count = 0
        self.eq_count = 0
        self.pairs: _PairGraph | None = None

    def mq(self, prefix: Word, period: Word) -> bool:
        """Membership of prefix . period^omega; a refused query is neither
        counted nor logged."""
        if not period:
            raise AutomatonError("period must be nonempty")
        m = self.reference.leading
        s = run_word(m, m.initial, prefix)
        if min(period) < 0 or max(period) >= self.alphabet.size:
            raise AlphabetError("word letter outside alphabet")
        result = accepts_from(self.reference, s, period)
        self.mq_count += 1
        if self.log:
            self.log.mq(prefix, period, result)
        return result

    def eq(self, h: Fdfa) -> UpWord | None:
        self.eq_count += 1
        ce = self._find_counterexample(h)
        if self.log:
            if ce is None:
                self.log.eq_accept()
            else:
                self.log.eq_counterexample(ce)
        return ce

    def _find_counterexample(self, h: Fdfa) -> UpWord | None:
        if self.pairs is None or self.pairs.leading is not h.leading:
            self.pairs = _PairGraph(h.leading, self.reference)
        ce = _pair_search(h, self.reference, self.pairs)
        if ce is not None or leading_isomorphic(h, self.reference):
            return ce
        found = saturation_witness(h, congruence.PROFILE_CAP)
        if found is None:
            return None
        accepted, rejected = found
        return rejected if accepts_upword(self.reference, accepted) \
            else accepted


class DbaTeacher(_Teacher):
    """Oracle backed by a reference DBA, which must be Buchi; its
    canonical limit FDFA, built once under the caps of ``congruence``, is
    the reference R that answers every query."""

    def __init__(self, ref: DetOmega, log: QueryLog | None = None):
        if ref.polarity != BUCHI:
            raise AutomatonError("DbaTeacher expects a Buchi reference")
        super().__init__(congruence.build_canonical_fdfa(ref, LIMIT), log)


class FdfaTeacher(_Teacher):
    """Oracle backed by a saturated FDFA (for targets no DBA recognizes),
    which is the reference R that answers every query."""


class _Table:
    """An observation table: rows, the representatives among them, and the
    experiments.  The leading table and every progress table are instances.
    Row vectors are given by the ``vector_of(row)`` that ``close`` is
    passed: a table keeps no function of its session, so a finished
    session holds no reference cycle and is freed as soon as it is dropped.

    A leading row's vector has bit i the entry of the i-th experiment.  A
    progress table is a discriminator tree instead: ``tree`` maps each
    inner node to the index of the experiment asked there, and a row's
    vector is the leaf its entries sift it to.  A node is its path from
    the root, k entries written as the int with bit i the i-th entry and
    bit k set; the root, 1, asks the experiment (), so bit 0 of a leaf is
    the finality of its rows.  One experiment may be asked at several
    nodes.  The leading table leaves ``tree`` unread.

    Every entry is read from the session's membership cache (see
    ``_Session.mq``), so a table keeps no answers of its own.  ``close``
    visits the rows it is given once each in length-lex order: a row whose
    vector is new is promoted, and its successors, which sort after it,
    join the pass.  ``vecs`` keeps every row's vector, and ``ts``, each
    representative's successor representatives by letter, is read off
    them, so a table that is not closed again keeps the same DetTS.  A
    progress table's close also builds its ``dfa`` on that DetTS."""

    def __init__(self, alphabet: Alphabet, exps: list):
        self.alphabet = alphabet
        self.rows: set[Word] = {()}
        self.reps: list[Word] = [()]
        self.exps = exps
        self.tree: dict[int, int] = {1: 0}
        self.ts: DetTS | None = None
        self.dfa: Dfa | None = None
        self.vecs: dict[Word, int] = {}

    def add_exp(self, exp) -> None:
        if exp in self.exps:
            raise CounterexampleError("experiment already present")
        self.exps.append(exp)

    def close(self, vector_of: Callable[[Word], int],
              rows: set[Word] | None = None) -> None:
        """Close the table once the vectors of ``rows``, or of every row
        when None, may have changed: ``vector_of`` is asked of them and of
        the rows the pass adds, and every other row keeps its vector.  With
        None, ``vecs`` is emptied first, so a progress row is sifted from
        the root."""
        letters = range(self.alphabet.size)
        vecs = self.vecs
        if rows is None:
            vecs.clear()
            rows = self.rows

        def vector(row: Word) -> int:
            vecs[row] = vec = vector_of(row)
            return vec

        # progress entries depend on the leading DFA, so representatives
        # promoted before a leading refinement may have collapsed; drop the
        # later duplicates (their rows stay, and closing re-promotes freely).
        # Leading entries are plain membership queries and never collapse.
        reps: dict[int, Word] = {}
        for rep in self.reps:
            reps.setdefault(vector(rep) if rep in rows else vecs[rep], rep)
        heap = [(len(w), w) for w in rows]
        heapq.heapify(heap)
        while heap:
            _, row = heapq.heappop(heap)
            if reps.setdefault(vector(row), row) != row:
                continue
            for a in letters:
                if row + (a,) not in self.rows:
                    self.rows.add(row + (a,))
                    heapq.heappush(heap, (len(row) + 1, row + (a,)))
        self.reps = list(reps.values())
        index = {vec: i for i, vec in enumerate(reps)}
        self.ts = DetTS(self.alphabet, len(self.reps), 0, tuple([
            tuple([index[vecs[rep + (a,)]] for a in letters])
            for rep in self.reps]))


def _breakpoint(value, n: int) -> int | None:
    """Least j in 1..n with value(j) != value(j - 1), evaluating value(0),
    value(1), ... in order and no further than needed; None if there is
    none."""
    prev = value(0)
    for j in range(1, n + 1):
        cur = value(j)
        if cur != prev:
            return j
        prev = cur
    return None


def _states_along(ts: DetTS, w: Word) -> list[int]:
    """The states ts passes through reading w from state 0, one per prefix
    of w in order of length."""
    states = [0]
    for a in w:
        states.append(ts.delta[states[-1]][a])
    return states


def _same_shape(g: Fdfa, h: Fdfa) -> bool:
    """Whether two hypotheses have the same transitions and finals; the
    sizes of their tables are compared first."""
    return [p.ts.state_count for p in g.progress] == \
        [p.ts.state_count for p in h.progress] \
        and g.leading == h.leading and g.progress == h.progress


class _Session:
    """One learning run: the membership-query cache, the leading table, and
    one progress table, a discriminator tree, per leading state.  The cache
    is the run's one store of membership answers: every table entry is read
    through ``mq``, so no (prefix, period) reaches the teacher twice.

    Leading entries are plain membership queries, so leading rows never
    collapse: representative ``lead.reps[q]`` keeps index q through every
    close, q is the leading state it reaches, and ``progress[q]`` is its
    table."""

    def __init__(self, teacher):
        self.teacher = teacher
        self.alphabet: Alphabet = teacher.alphabet
        self.cache: dict[tuple[Word, Word], bool] = {}
        self.lead = _Table(self.alphabet,
                           [((), (a,)) for a in range(self.alphabet.size)])
        self.progress: list[_Table] = []
        self.close_leading()

    def mq(self, prefix: Word, period: Word) -> bool:
        if not period:
            return False  # the epsilon^omega convention
        key = (prefix, period)
        if key not in self.cache:
            if self.teacher.mq_count >= MAX_MQ:
                raise LearnLimitExceeded(
                    f"membership query cap {MAX_MQ} exceeded")
            self.cache[key] = self.teacher.mq(prefix, period)
        return self.cache[key]

    def leading_state(self, w: Word) -> int:
        return run_word(self.leading, 0, w)

    def _lead_vector(self, row: Word) -> int:
        return sum(self.mq(row + u, v) << i
                   for i, (u, v) in enumerate(self.lead.exps))

    def _progress_cell(self, q: int, w: Word) -> bool:
        """The entry of q's progress table on w, a row followed by an
        experiment: true where w leads q elsewhere, else the verdict on
        rep_q w^omega."""
        return run_word(self.leading, q, w) != q \
            or self.mq(self.lead.reps[q], w)

    def _close_progress(self, q: int, rows: set[Word] | None = None
                        ) -> None:
        """Close q's tree after a split of the leaf that ``rows`` sat at,
        or after a leading close (``rows`` None).  A row x is sifted down
        from its vector, the node it sits at, or from the root if it has
        none.  Each entry is ``_progress_cell``'s: 1 where the experiment
        leads p = q . x elsewhere than q, else the cached verdict on
        rep_q (x + v)^omega, which no leading refinement changes; the mask
        of the experiments that lead p back to q is computed once per
        close, for each p met, so only those cells are read."""
        table, m, rep = self.progress[q], self.leading, self.lead.reps[q]
        tree, exps, vecs = table.tree, table.exps, table.vecs
        back: dict[int, int] = {}

        def sift(x: Word) -> int:
            path = vecs.get(x, 1)
            if path not in tree:
                return path
            p = run_word(m, q, x)
            if p not in back:
                back[p] = sum(1 << i for i, v in enumerate(exps)
                              if run_word(m, p, v) == q)
            mask = back[p]
            while path in tree:
                i = tree[path]
                one = not mask >> i & 1 or self.mq(rep, x + exps[i])
                path += (2 if one else 1) << (path.bit_length() - 1)
            return path

        table.close(sift, rows)
        # the root asks (), so bit 0 of a leaf is the finality of its rows
        table.dfa = Dfa(table.ts, frozenset(
            i for i, rep in enumerate(table.reps) if table.vecs[rep] & 1))

    def close_leading(self) -> None:
        """Close the leading table and rebuild the leading DFA; progress
        entries depend on it, so every progress tree is re-sifted from its
        root, from the membership cache."""
        self.lead.close(self._lead_vector)
        self.leading = self.lead.ts
        for _ in range(len(self.progress), len(self.lead.reps)):
            self.progress.append(_Table(self.alphabet, [()]))
        for q in range(len(self.progress)):
            self._close_progress(q)

    def hypothesis(self) -> Fdfa:
        """The hypothesis of the tables.  Each progress DFA is the one its
        table's last close built, so a table not closed again keeps the same
        object, which the teacher's memo of least periods checks for."""
        return Fdfa(self.leading, tuple([t.dfa for t in self.progress]),
                    labels=tuple(self.lead.reps), flavor=LIMIT)

    # --- counterexample analysis ------------------------------------------
    def analyze(self, h: Fdfa, ce: UpWord) -> None:
        w = normalize(h, ce)
        x, y = w.prefix, w.period
        q = self.leading_state(x)
        if self.mq(x, y) != self.mq(self.lead.reps[q], y):
            self._refine_leading(x, y)
        else:
            self._refine_progress(q, h.progress[q], y)

    def _refine_leading(self, x: Word, y: Word) -> None:
        s = [self.lead.reps[p] for p in _states_along(self.leading, x)]
        j = _breakpoint(lambda i: self.mq(s[i] + x[i:], y), len(x))
        if j is None:
            raise CounterexampleError("no breakpoint found in the leading scan")
        self.lead.add_exp((x[j:], y))
        self.close_leading()

    def _refine_progress(self, q: int, progress: Dfa, y: Word) -> None:
        table = self.progress[q]
        s = [table.reps[p] for p in _states_along(progress.ts, y)]
        j = _breakpoint(lambda i: self._progress_cell(q, s[i] + y[i:]),
                        len(y))
        if j is None:
            raise CounterexampleError("no flip found in the progress scan")
        # s[j - 1] . y[j - 1] sits at s[j]'s leaf and e = y[j:] tells them
        # apart; e may already be asked at another node of the tree
        leaf, e = table.vecs[s[j]], y[j:]
        if e not in table.exps:
            table.exps.append(e)
        table.tree[leaf] = table.exps.index(e)
        self._close_progress(
            q, {row for row, vec in table.vecs.items() if vec == leaf})


def learn_limit_fdfa(teacher) -> tuple[Fdfa, LearnStats]:
    """Run the limit-FDFA learner to convergence against the teacher, and
    return the canonical limit form of the hypothesis it accepts."""
    session = _Session(teacher)
    h = session.hypothesis()
    stats = LearnStats()
    for iteration in range(MAX_ITERATIONS):
        stats.iterations = iteration + 1
        ce = teacher.eq(h)
        if ce is None:
            stats.mq = teacher.mq_count
            stats.eq = teacher.eq_count
            return limit_canonical_form(h), stats
        before = h
        session.analyze(h, ce)
        h = session.hypothesis()
        if _same_shape(h, before):
            raise CounterexampleError(
                "counterexample analysis did not change the hypothesis")
    raise LearnLimitExceeded(
        f"no convergence within {MAX_ITERATIONS} iterations")
