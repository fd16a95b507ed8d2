"""Active learning of limit FDFAs from membership and equivalence oracles:
observation tables, table closing, hypothesis construction, counterexample
analysis, and two teacher realizations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .core_automata import (
    Alphabet,
    AutomatonError,
    DetOmega,
    DetTS,
    Dfa,
    Lasso,
    ResourceLimitError,
    UpWord,
    Word,
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
    Saturated,
    accepts_decomposition,
    accepts_upword,
    complement_finals,
    normalize,
)
from .translate import fdfa_to_nba

# Word budget of the bounded counterexample search: prefixes and periods are
# the words of the longest lengths whose whole length layers fit in it.
FALLBACK_WORDS = 360


class LearnLimitExceeded(ResourceLimitError):
    """The learner hit its iteration or membership-query cap."""


class CounterexampleError(AutomatonError):
    """The teacher returned a word that is not a counterexample."""


@dataclass(frozen=True)
class LearnerLimits:
    max_iterations: int = 500
    max_mq: int = 200_000


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


def _is_valid_counterexample(h: Fdfa, w: UpWord, member: bool) -> bool:
    return accepts_decomposition(h, normalize(h, w)) != member


class _Teacher:
    """Query plumbing shared by the teachers: counters, the optional log, and
    equivalence queries that try the subclass' exact candidates and then a
    bounded enumeration.  Every candidate is validated against the
    hypothesis' normalized acceptance before being returned, so unsound
    intermediate constructions only cost time."""

    def __init__(self, alphabet: Alphabet, log: QueryLog | None):
        self.alphabet = alphabet
        self.log = log
        self.mq_count = 0
        self.eq_count = 0

    def _member(self, w: UpWord) -> bool:
        raise NotImplementedError

    def _exact_candidates(self, h: Fdfa) -> Iterator[Lasso]:
        raise NotImplementedError

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
            if _is_valid_counterexample(h, w, self._member(w)):
                return w
        return self._bounded_search(h)

    def _bounded_search(self, h: Fdfa) -> UpWord | None:
        k = self.alphabet.size
        words = short_words(k, _fallback_len(k))
        for u in words:
            for v in words:
                if not v:
                    continue
                w = UpWord(u, v)
                if _is_valid_counterexample(h, w, self._member(w)):
                    return w
        return None


class DbaTeacher(_Teacher):
    """Oracle backed by a reference DBA."""

    def __init__(self, ref: DetOmega, log: QueryLog | None = None):
        super().__init__(ref.ts.alphabet, log)
        self.ref = ref

    def _member(self, w: UpWord) -> bool:
        return member_upword_det(self.ref, w)

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
        super().__init__(ref.leading.alphabet, log)
        self.ref = ref

    def _member(self, w: UpWord) -> bool:
        return accepts_upword(self.ref, w, Saturated())

    def _exact_candidates(self, h: Fdfa) -> Iterator[Lasso]:
        # hypothesis-not-included direction, then target-not-included
        pairs = (
            (fdfa_to_nba(h), fdfa_to_nba(complement_finals(self.ref))),
            (fdfa_to_nba(self.ref), fdfa_to_nba(complement_finals(h))),
        )
        for left, right in pairs:
            witness = nba_nba_intersection_witness(left, right)
            if witness is not None:
                yield witness


class _Session:
    """One learning run: leading and progress observation tables plus the
    membership-query cache."""

    def __init__(self, teacher, limits: LearnerLimits):
        self.teacher = teacher
        self.limits = limits
        self.alphabet: Alphabet = teacher.alphabet
        self.cache: dict[tuple[Word, Word], bool] = {}
        # leading table
        self.rows: list[Word] = [()]
        self.reps: list[Word] = [()]
        self.exps: list[tuple[Word, Word]] = [((), (a,))
                                              for a in range(self.alphabet.size)]
        # progress tables, keyed by leading representative word
        self.p_rows: dict[Word, list[Word]] = {}
        self.p_reps: dict[Word, list[Word]] = {}
        self.p_exps: dict[Word, list[Word]] = {}
        self.leading: DetTS | None = None

    # --- membership plumbing -------------------------------------------
    def mq(self, prefix: Word, period: Word) -> bool:
        if not period:
            return False  # the epsilon^omega convention
        key = (prefix, period)
        if key not in self.cache:
            if self.teacher.mq_count >= self.limits.max_mq:
                raise LearnLimitExceeded(
                    f"membership query cap {self.limits.max_mq} exceeded")
            self.cache[key] = self.teacher.mq(prefix, period)
        return self.cache[key]

    # --- leading table ---------------------------------------------------
    def _leading_vector(self, row: Word) -> tuple[bool, ...]:
        return tuple(self.mq(row + x, y) for x, y in self.exps)

    def close_leading(self) -> None:
        while True:
            row_set = set(self.rows)
            for rep in self.reps:
                for a in range(self.alphabet.size):
                    if rep + (a,) not in row_set:
                        row_set.add(rep + (a,))
                        self.rows.append(rep + (a,))
            rep_vecs = [self._leading_vector(r) for r in self.reps]
            promoted = False
            for row in sorted(self.rows, key=lambda w: (len(w), w)):
                vec = self._leading_vector(row)
                if vec not in rep_vecs:
                    self.reps.append(row)
                    rep_vecs.append(vec)
                    promoted = True
                    break
            if not promoted:
                break
        self._rebuild_leading()

    def _rebuild_leading(self) -> None:
        rep_vecs = {self._leading_vector(r): i for i, r in enumerate(self.reps)}
        delta = []
        for rep in self.reps:
            row = []
            for a in range(self.alphabet.size):
                vec = self._leading_vector(rep + (a,))
                if vec not in rep_vecs:
                    raise AutomatonError("leading table is not closed")
                row.append(rep_vecs[vec])
            delta.append(tuple(row))
        self.leading = DetTS(self.alphabet, len(self.reps), 0, tuple(delta))
        for rep in self.reps:
            if rep not in self.p_rows:
                self.p_rows[rep] = [()]
                self.p_reps[rep] = [()]
                self.p_exps[rep] = [()]

    def leading_state(self, w: Word) -> int:
        assert self.leading is not None
        return run_word(self.leading, 0, w)

    def rep_word(self, state: int) -> Word:
        return self.reps[state]

    # --- progress tables ---------------------------------------------------
    def _progress_entry(self, u: Word, x: Word, v: Word) -> bool:
        if self.leading_state(u + x + v) != self.leading_state(u):
            return True
        return self.mq(u, x + v)

    def _progress_vector(self, u: Word, row: Word) -> tuple[bool, ...]:
        return tuple(self._progress_entry(u, row, v) for v in self.p_exps[u])

    def close_progress(self, u: Word) -> None:
        rows, reps = self.p_rows[u], self.p_reps[u]
        # progress entries depend on the leading DFA, so representatives
        # promoted before a leading refinement may have collapsed; drop the
        # later duplicates (their rows stay, and closing re-promotes freely)
        seen_vecs: set[tuple[bool, ...]] = set()
        kept = []
        for rep in reps:
            vec = self._progress_vector(u, rep)
            if vec not in seen_vecs:
                seen_vecs.add(vec)
                kept.append(rep)
        reps[:] = kept
        while True:
            row_set = set(rows)
            for rep in reps:
                for a in range(self.alphabet.size):
                    if rep + (a,) not in row_set:
                        row_set.add(rep + (a,))
                        rows.append(rep + (a,))
            rep_vecs = [self._progress_vector(u, r) for r in reps]
            promoted = False
            for row in sorted(rows, key=lambda w: (len(w), w)):
                vec = self._progress_vector(u, row)
                if vec not in rep_vecs:
                    reps.append(row)
                    rep_vecs.append(vec)
                    promoted = True
                    break
            if not promoted:
                break

    def progress_dfa(self, u: Word) -> Dfa:
        reps = self.p_reps[u]
        rep_vecs = {self._progress_vector(u, r): i for i, r in enumerate(reps)}
        delta = []
        finals = set()
        for i, rep in enumerate(reps):
            row = []
            for a in range(self.alphabet.size):
                vec = self._progress_vector(u, rep + (a,))
                if vec not in rep_vecs:
                    raise AutomatonError("progress table is not closed")
                row.append(rep_vecs[vec])
            delta.append(tuple(row))
            if self._progress_entry(u, rep, ()):
                finals.add(i)
        ts = DetTS(self.alphabet, len(reps), 0, tuple(delta))
        return Dfa(ts, frozenset(finals))

    def refresh_progress(self) -> None:
        """Progress entries depend on the current leading DFA, so after any
        leading refinement every progress table is re-closed."""
        for u in self.reps:
            self.close_progress(u)

    # --- hypothesis ----------------------------------------------------
    def hypothesis(self) -> Fdfa:
        assert self.leading is not None
        progress = tuple(self.progress_dfa(u) for u in self.reps)
        return Fdfa(self.leading, progress, labels=tuple(self.reps),
                    flavor=LIMIT)

    def row_total(self) -> int:
        return len(self.reps) + sum(len(self.p_reps[u]) for u in self.reps)

    def fingerprint(self) -> tuple:
        h = self.hypothesis()
        return (h.leading.delta,
                tuple((p.ts.delta, tuple(sorted(p.finals))) for p in h.progress))

    # --- counterexample analysis ------------------------------------------
    def analyze(self, h: Fdfa, ce: UpWord) -> None:
        w = normalize(h, ce)
        x, y = w.prefix, w.period
        x_rep = self.rep_word(self.leading_state(x))
        if self.mq(x, y) != self.mq(x_rep, y):
            self._refine_leading(x, y)
        else:
            self._refine_progress(x_rep, y)

    def _refine_leading(self, x: Word, y: Word) -> None:
        n = len(x)
        s = [self.rep_word(self.leading_state(x[:i])) for i in range(n + 1)]
        prev = self.mq(s[0] + x, y)
        for j in range(1, n + 1):
            cur = self.mq(s[j] + x[j:], y)
            if cur != prev:
                exp = (x[j:], y)
                if exp in self.exps:
                    raise CounterexampleError(
                        "leading experiment already present")
                self.exps.append(exp)
                self.close_leading()
                self.refresh_progress()
                return
            prev = cur
        raise CounterexampleError("no breakpoint found in the leading scan")

    def _refine_progress(self, u: Word, y: Word) -> None:
        progress = self.progress_dfa(u)
        reps = self.p_reps[u]
        n = len(y)

        def value(i: int) -> bool:
            s_i = reps[run_word(progress.ts, 0, y[:i])]
            tail = s_i + y[i:]
            m_i = self.leading_state(u + tail) == self.leading_state(u)
            c_i = self.mq(u, tail)
            return (not m_i) or c_i

        prev = value(0)
        for j in range(1, n + 1):
            cur = value(j)
            if cur != prev:
                exp = y[j:]
                if exp in self.p_exps[u]:
                    raise CounterexampleError(
                        "progress experiment already present")
                self.p_exps[u].append(exp)
                self.close_progress(u)
                return
            prev = cur
        raise CounterexampleError("no flip found in the progress scan")


def learn_limit_fdfa(teacher, limits: LearnerLimits = LearnerLimits()
                     ) -> tuple[Fdfa, LearnStats]:
    """Run the limit-FDFA learner to convergence against the teacher."""
    session = _Session(teacher, limits)
    session.close_leading()
    session.refresh_progress()
    stats = LearnStats()
    for iteration in range(limits.max_iterations):
        stats.iterations = iteration + 1
        h = session.hypothesis()
        ce = teacher.eq(h)
        if ce is None:
            stats.mq = teacher.mq_count
            stats.eq = teacher.eq_count
            return h, stats
        before = (session.row_total(), session.fingerprint())
        session.analyze(h, ce)
        if (session.row_total(), session.fingerprint()) == before:
            raise CounterexampleError(
                "counterexample analysis did not change the hypothesis")
    raise LearnLimitExceeded(
        f"no convergence within {limits.max_iterations} iterations")
