"""Active learning of limit FDFAs from membership and equivalence oracles:
observation tables, table closing, hypothesis construction, counterexample
analysis, and two teacher realizations."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

from .core_automata import (
    Alphabet,
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
    member_upword_det,
    nba_dba_included,
    nba_dba_intersection_witness,
    nba_nba_intersection_witness,
    run_word,
    short_words,
)
from .fdfa import (
    Fdfa,
    LIMIT,
    accepts_decomposition,
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
    """Query plumbing shared by the teachers: counters, the optional log, and
    equivalence queries that try the subclass' exact candidates and then a
    bounded enumeration.  Every candidate is validated against the
    hypothesis' normalized acceptance before being returned, so unsound
    intermediate constructions only cost time.

    Whether u . v^omega is a counterexample depends on u only through the
    pair (hypothesis leading state, reference state) that u reaches, so the
    bounded enumeration scans each such pair once, at its first prefix in
    length-lex order.  Each verdict is asked of the state itself, without a
    prefix or a normalized word, and memoized per (state, period)."""

    def __init__(self, ref_ts: DetTS, log: QueryLog | None):
        self.ref_ts = ref_ts
        self.alphabet = ref_ts.alphabet
        self.log = log
        self.mq_count = 0
        self.eq_count = 0

    def _member(self, w: UpWord) -> bool:
        raise NotImplementedError

    def _member_from(self, s: int, v: Word) -> bool:
        """Membership of u . v^omega for every u that leads the reference's
        TS to s."""
        raise NotImplementedError

    def _exact_candidates(self, h: Fdfa) -> Iterator[Lasso]:
        raise NotImplementedError

    def _ref_state(self, u: Word) -> int:
        """The state of the reference's TS that u reaches; membership of
        u . v^omega depends on u only through it."""
        return run_word(self.ref_ts, self.ref_ts.initial, u)

    def mq(self, prefix: Word, period: Word) -> bool:
        self.mq_count += 1
        result = self._member(UpWord(prefix, period))
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
        for lasso in self._exact_candidates(h):
            w = lasso.upword()
            if accepts_decomposition(h, normalize(h, w)) != self._member(w):
                return w
        return self._bounded_search(h)

    def _bounded_search(self, h: Fdfa) -> UpWord | None:
        k = self.alphabet.size
        words = short_words(k, _fallback_len(k))
        periods = words[1:]
        lead = h.leading
        # hyp[q][j] and ref[s][j] are the verdicts for periods[j], or None
        hyp: dict[int, list[bool | None]] = {}
        ref: dict[int, list[bool | None]] = {}
        scanned: set[tuple[int, int]] = set()
        for u in words:
            q, s = run_word(lead, lead.initial, u), self._ref_state(u)
            if (q, s) in scanned:
                continue  # an earlier u with this pair found no counterexample
            scanned.add((q, s))
            hq = hyp.setdefault(q, [None] * len(periods))
            rs = ref.setdefault(s, [None] * len(periods))
            for j, v in enumerate(periods):
                if hq[j] is None:
                    hq[j] = accepts_from(h, q, v)
                if rs[j] is None:
                    rs[j] = self._member_from(s, v)
                if hq[j] != rs[j]:
                    return UpWord(u, v)
        return None


class DbaTeacher(_Teacher):
    """Oracle backed by a reference DBA."""

    def __init__(self, ref: DetOmega, log: QueryLog | None = None):
        if ref.polarity != BUCHI:
            raise AutomatonError("DbaTeacher expects a Buchi reference")
        super().__init__(ref.ts, log)
        self.ref = ref

    def _member(self, w: UpWord) -> bool:
        return member_upword_det(self.ref, w)

    def _member_from(self, s: int, v: Word) -> bool:
        return member_det_from(self.ref, s, v)

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
        super().__init__(ref.leading, log)
        self.ref = ref
        # the reference's NBA and its complement's, shared by every EQ
        self._ref_nba = fdfa_to_nba(ref)
        self._ref_complement_nba = fdfa_to_nba(complement_finals(ref))

    def _member(self, w: UpWord) -> bool:
        return accepts_upword(self.ref, w)

    def _member_from(self, s: int, v: Word) -> bool:
        return accepts_from(self.ref, s, v)

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
    one progress table per leading representative."""

    def __init__(self, teacher):
        self.teacher = teacher
        self.alphabet: Alphabet = teacher.alphabet
        self.cache: dict[tuple[Word, Word], bool] = {}
        k = self.alphabet.size
        self.lead = _Table(k, [((), (a,)) for a in range(k)],
                           lambda row, exp: self.mq(row + exp[0], exp[1]))
        self.progress: dict[Word, _Table] = {}
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

    def _progress_entry(self, u: Word, x: Word, v: Word) -> bool:
        q = self.leading_state(u)
        if run_word(self.leading, q, x + v) != q:
            return True
        return self.mq(u, x + v)

    def close_leading(self) -> None:
        """Close the leading table and rebuild the leading DFA; progress
        entries depend on it, so every progress table is re-closed."""
        self.lead.close()
        self.leading = DetTS(self.alphabet, len(self.lead.reps), 0,
                             self.lead.delta)
        for u in self.lead.reps:
            if u not in self.progress:
                self.progress[u] = _Table(
                    self.alphabet.size, [()],
                    lambda x, v, u=u: self._progress_entry(u, x, v))
            self.progress[u].close()

    def hypothesis(self) -> Fdfa:
        progress = []
        for u in self.lead.reps:
            t = self.progress[u]
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
        x_rep = self.lead.reps[q]
        if self.mq(x, y) != self.mq(x_rep, y):
            self._refine_leading(x, y)
        else:
            self._refine_progress(x_rep, h.progress[q], y)

    def _refine_leading(self, x: Word, y: Word) -> None:
        s = [self.lead.reps[self.leading_state(x[:i])]
             for i in range(len(x) + 1)]
        j = _breakpoint(lambda i: self.mq(s[i] + x[i:], y), len(x))
        if j is None:
            raise CounterexampleError("no breakpoint found in the leading scan")
        self.lead.add_exp((x[j:], y))
        self.close_leading()

    def _refine_progress(self, u: Word, progress: Dfa, y: Word) -> None:
        table = self.progress[u]

        def value(i: int) -> bool:
            s_i = table.reps[run_word(progress.ts, 0, y[:i])]
            return self._progress_entry(u, s_i, y[i:])

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
