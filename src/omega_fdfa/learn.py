"""Active learning of limit FDFAs from membership and equivalence oracles:
observation tables, table closing, hypothesis construction, counterexample
analysis, and two teacher realizations."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from .core_automata import (
    Alphabet,
    AlphabetError,
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
    Lasso,
    ResourceLimitError,
    UpWord,
    Word,
    member_det_from,
    member_upword_det,  # noqa: F401  (fdfabench/spans.py counts it here)
    nba_dba_included,
    nba_dba_intersection_witness,
    nba_nba_intersection_witness,
    run_word,
    short_words,
)
from .fdfa import (
    Fdfa,
    LIMIT,
    accepts_decomposition,  # noqa: F401  (fdfabench/spans.py counts it here)
    accepts_from,
    accepts_upword,
    complement_finals,
    normalize,
)
from .translate import fdfa_to_nba

# Word budget of the bounded counterexample search: prefixes and periods are
# the words of the longest lengths whose whole length layers fit in it.
FALLBACK_WORDS = 360
# Membership queries one learning run may ask; read at call time.
MAX_MQ = 200_000


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


def _fallback_len(nletters: int) -> int:
    """Longest max_len for which short_words(nletters, max_len) holds at most
    FALLBACK_WORDS words."""
    max_len, total, layer = 0, 1, 1
    while total + layer * nletters <= FALLBACK_WORDS:
        layer *= nletters
        total += layer
        max_len += 1
    return max_len


class _Teacher:
    """Query plumbing shared by the teachers: counters, the optional log,
    membership, and equivalence queries that try the subclass' exact
    candidates and then a bounded enumeration.

    A verdict on u . v^omega depends on u only through the state s that u
    reaches in the reference's TS, so every query runs u there and asks
    ``member_from(s, v)``.  Exact candidates are validated against the
    hypothesis before being returned, so unsound intermediate constructions
    only cost time.  The bounded enumeration scans each pair (hypothesis
    leading state, reference state) once, at its first prefix in length-lex
    order, and memoizes each side's verdict per (state, period)."""

    def __init__(self, ref_ts: DetTS, member_from: Callable[[int, Word], bool],
                 log: QueryLog | None):
        self.ref_ts = ref_ts
        self.alphabet = ref_ts.alphabet
        self.member_from = member_from
        self.log = log
        self.mq_count = 0
        self.eq_count = 0

    def _exact_candidates(self, h: Fdfa) -> Iterator[Lasso]:
        raise NotImplementedError

    def mq(self, prefix: Word, period: Word) -> bool:
        """Membership of prefix . period^omega; a refused query is neither
        counted nor logged."""
        if not period:
            raise AutomatonError("period must be nonempty")
        s = run_word(self.ref_ts, self.ref_ts.initial, prefix)
        if min(period) < 0 or max(period) >= self.alphabet.size:
            raise AlphabetError("word letter outside alphabet")
        result = self.member_from(s, period)
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
        ts = self.ref_ts
        for lasso in self._exact_candidates(h):
            w = lasso.upword()
            s = run_word(ts, ts.initial, w.prefix)
            if accepts_upword(h, w) != self.member_from(s, w.period):
                return w
        return self._bounded_search(h)

    def _bounded_search(self, h: Fdfa) -> UpWord | None:
        k = self.alphabet.size
        words = short_words(k, _fallback_len(k))
        periods = words[1:]
        lead, ts = h.leading, self.ref_ts
        # hyp[q][j] and ref[s][j] are the verdicts for periods[j], or None
        hyp: dict[int, list[bool | None]] = {}
        ref: dict[int, list[bool | None]] = {}
        scanned: set[tuple[int, int]] = set()
        for u in words:
            q, s = run_word(lead, lead.initial, u), run_word(ts, ts.initial, u)
            if (q, s) in scanned:
                continue  # an earlier u with this pair found no counterexample
            scanned.add((q, s))
            hq = hyp.setdefault(q, [None] * len(periods))
            rs = ref.setdefault(s, [None] * len(periods))
            for j, v in enumerate(periods):
                if hq[j] is None:
                    hq[j] = accepts_from(h, q, v)
                if rs[j] is None:
                    rs[j] = self.member_from(s, v)
                if hq[j] != rs[j]:
                    return UpWord(u, v)
        return None


class DbaTeacher(_Teacher):
    """Oracle backed by a reference DBA."""

    def __init__(self, ref: DetOmega, log: QueryLog | None = None):
        if ref.polarity != BUCHI:
            raise AutomatonError("DbaTeacher expects a Buchi reference")
        super().__init__(ref.ts, partial(member_det_from, ref), log)
        self.ref = ref

    def _exact_candidates(self, h: Fdfa) -> Iterator[Lasso]:
        # everything the hypothesis NBA accepts must be in L(ref)
        verdict = nba_dba_included(fdfa_to_nba(h), self.ref)
        if verdict is not True:
            yield verdict
        # nothing in L(ref) may be accepted by the complement
        witness = nba_dba_intersection_witness(
            fdfa_to_nba(complement_finals(h)), self.ref)
        if witness is not None:
            yield witness


class FdfaTeacher(_Teacher):
    """Oracle backed by a saturated FDFA (for targets no DBA recognizes)."""

    def __init__(self, ref: Fdfa, log: QueryLog | None = None):
        super().__init__(ref.leading, partial(accepts_from, ref), log)
        self.ref = ref
        # the reference's NBA and its complement's, shared by every EQ
        self._ref_nba = fdfa_to_nba(ref)
        self._ref_complement_nba = fdfa_to_nba(complement_finals(ref))

    def _exact_candidates(self, h: Fdfa) -> Iterator[Lasso]:
        # hypothesis-not-included direction, then target-not-included
        witness = nba_nba_intersection_witness(
            fdfa_to_nba(h), self._ref_complement_nba)
        if witness is not None:
            yield witness
        witness = nba_nba_intersection_witness(
            self._ref_nba, fdfa_to_nba(complement_finals(h)))
        if witness is not None:
            yield witness


class _Table:
    """An observation table: rows, the representatives among them, and the
    experiments, with cells given by entry(row, exp).  The leading table and
    every progress table are instances.

    ``close`` visits the rows once each in length-lex order and evaluates
    each row's vector once: a row whose vector is new is promoted, and its
    successors, which sort after it, join the pass.  ``delta``, each
    representative's successor representatives by letter, is read off the
    same vectors."""

    def __init__(self, nletters: int, exps: list, entry):
        self.nletters = nletters
        self.rows: set[Word] = {()}
        self.reps: list[Word] = [()]
        self.exps = exps
        self.entry = entry
        self.delta: tuple[tuple[int, ...], ...] = ()

    def add_exp(self, exp) -> None:
        if exp in self.exps:
            raise CounterexampleError("experiment already present")
        self.exps.append(exp)

    def close(self) -> None:
        vecs: dict[Word, tuple[bool, ...]] = {}

        def vector(row: Word) -> tuple[bool, ...]:
            if row not in vecs:
                vecs[row] = tuple(self.entry(row, exp) for exp in self.exps)
            return vecs[row]

        # progress entries depend on the leading DFA, so representatives
        # promoted before a leading refinement may have collapsed; drop the
        # later duplicates (their rows stay, and closing re-promotes freely).
        # Leading entries are plain membership queries and never collapse.
        reps: dict[tuple[bool, ...], Word] = {}
        for rep in self.reps:
            reps.setdefault(vector(rep), rep)
        heap = [(len(w), w) for w in self.rows]
        heapq.heapify(heap)
        while heap:
            _, row = heapq.heappop(heap)
            if reps.setdefault(vector(row), row) != row:
                continue
            for a in range(self.nletters):
                if row + (a,) not in self.rows:
                    self.rows.add(row + (a,))
                    heapq.heappush(heap, (len(row) + 1, row + (a,)))
        self.reps = list(reps.values())
        index = {vec: i for i, vec in enumerate(reps)}
        self.delta = tuple(tuple(index[vecs[rep + (a,)]]
                                 for a in range(self.nletters))
                           for rep in self.reps)


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


def _shape(h: Fdfa) -> tuple:
    """Transitions and finals of a hypothesis, and with them its size."""
    return (h.leading.delta,
            tuple((p.ts.delta, tuple(sorted(p.finals))) for p in h.progress))


class _Session:
    """One learning run: the membership-query cache, the leading table, and
    one progress table per leading state.

    Leading entries are plain membership queries, so leading rows never
    collapse: representative ``lead.reps[q]`` keeps index q through every
    close, q is the leading state it reaches, and ``progress[q]`` is its
    table."""

    def __init__(self, teacher):
        self.teacher = teacher
        self.alphabet: Alphabet = teacher.alphabet
        self.cache: dict[tuple[Word, Word], bool] = {}
        k = self.alphabet.size
        self.lead = _Table(k, [((), (a,)) for a in range(k)],
                           lambda row, exp: self.mq(row + exp[0], exp[1]))
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

    def _progress_entry(self, q: int, x: Word, v: Word) -> bool:
        if run_word(self.leading, q, x + v) != q:
            return True
        return self.mq(self.lead.reps[q], x + v)

    def close_leading(self) -> None:
        """Close the leading table and rebuild the leading DFA; progress
        entries depend on it, so every progress table is re-closed."""
        self.lead.close()
        self.leading = DetTS(self.alphabet, len(self.lead.reps), 0,
                             self.lead.delta)
        for q in range(len(self.progress), len(self.lead.reps)):
            self.progress.append(_Table(
                self.alphabet.size, [()],
                lambda x, v, q=q: self._progress_entry(q, x, v)))
        for table in self.progress:
            table.close()

    def hypothesis(self) -> Fdfa:
        progress = []
        for t in self.progress:
            ts = DetTS(self.alphabet, len(t.reps), 0, t.delta)
            progress.append(Dfa(ts, frozenset(
                i for i, rep in enumerate(t.reps) if t.entry(rep, ()))))
        return Fdfa(self.leading, tuple(progress),
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
        s = [self.lead.reps[self.leading_state(x[:i])]
             for i in range(len(x) + 1)]
        j = _breakpoint(lambda i: self.mq(s[i] + x[i:], y), len(x))
        if j is None:
            raise CounterexampleError("no breakpoint found in the leading scan")
        self.lead.add_exp((x[j:], y))
        self.close_leading()

    def _refine_progress(self, q: int, progress: Dfa, y: Word) -> None:
        table = self.progress[q]

        def value(i: int) -> bool:
            s_i = table.reps[run_word(progress.ts, 0, y[:i])]
            return self._progress_entry(q, s_i, y[i:])

        j = _breakpoint(value, len(y))
        if j is None:
            raise CounterexampleError("no flip found in the progress scan")
        table.add_exp(y[j:])
        table.close()


def learn_limit_fdfa(teacher, *, max_iterations: int = 500
                     ) -> tuple[Fdfa, LearnStats]:
    """Run the limit-FDFA learner to convergence against the teacher."""
    session = _Session(teacher)
    h = session.hypothesis()
    stats = LearnStats()
    for iteration in range(max_iterations):
        stats.iterations = iteration + 1
        ce = teacher.eq(h)
        if ce is None:
            stats.mq = teacher.mq_count
            stats.eq = teacher.eq_count
            return h, stats
        before = _shape(h)
        session.analyze(h, ce)
        h = session.hypothesis()
        if _shape(h) == before:
            raise CounterexampleError(
                "counterexample analysis did not change the hypothesis")
    raise LearnLimitExceeded(
        f"no convergence within {max_iterations} iterations")
