"""Command-line workbench: text formats for automata and FDFAs plus the
canon / decide / translate / learn / bench-ln / accepts subcommands.

Exit codes: 0 success or Yes, 3 decision-No, 2 input error, 4 resource or
iteration cap.

``main(argv)`` may be called repeatedly in one process: the argument parser
is built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .congruence import build_canonical_fdfa
from .core_automata import (
    Alphabet,
    AutomatonError,
    BUCHI,
    COBUCHI,
    DetOmega,
    DetTS,
    Dfa,
    Nba,
    ResourceLimitError,
    UpWord,
    Word,
    member_upword_det,
    member_upword_nba,
)
from .decide import decide_dba_recognizable
from .fdfa import FLAVORS, Fdfa, LIMIT, accepts_upword, size_report
from .learn import (
    DbaTeacher,
    FdfaTeacher,
    QueryLog,
    learn_limit_fdfa,
)
from .translate import fdfa_to_dba, fdfa_to_ldba, fdfa_to_nba
from .zoo import gen_ln

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO = 3
EXIT_RESOURCE = 4

# Largest `states:` a block may declare: every declared state gets a table
# row before any transition is read.
MAX_STATES = 100_000


# --------------------------------------------------------------------------
# text formats

class ParseError(AutomatonError):
    pass


def _clean_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _read_block(lines: list[str], pos: int, alphabet: Alphabet | None,
                fdfa_block: str = "") -> tuple[Dfa | DetOmega | Nba, int]:
    """Read and build one automaton block starting at lines[pos]; returns
    the automaton and the next position.  Every field but ``trans:`` appears
    at most once, as does every (source, letter, target) of ``trans:``, and
    acc marks only in a buchi or cobuchi block.  An FDFA block
    (``fdfa_block`` "leading" or "progress") has no acceptance line and a
    leading block no finals; a progress block inherits ``alphabet`` and may
    restate it.  Partial tables are completed with a fresh rejecting sink,
    except a leading block's, which must be total."""
    fields: dict = {}
    trans: list[tuple[int, str, int, bool]] = []
    while pos < len(lines) and ":" in lines[pos]:
        line = lines[pos]
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "trans":
            parts = rest.split()
            if len(parts) not in (3, 4):
                raise ParseError(f"bad transition line {line!r}")
            if len(parts) == 4 and parts[3] != "acc":
                raise ParseError(f"bad transition flag {parts[3]!r}")
            trans.append((int(parts[0]), parts[1], int(parts[2]),
                          len(parts) == 4))
        elif key in fields:
            raise ParseError(f"repeated field {key!r}")
        elif key == "alphabet":
            fields[key] = Alphabet(tuple(rest.split()))
        elif key in ("states", "initial"):
            fields[key] = int(rest)
        elif key == "acceptance":
            if rest not in ("buchi", "cobuchi", "finals"):
                raise ParseError(f"unknown acceptance {rest!r}")
            fields[key] = rest
        elif key == "finals":
            fields[key] = tuple([int(t) for t in rest.split()])
        else:
            raise ParseError(f"unknown field {key!r}")
        pos += 1
    alphabet = fields.get("alphabet", alphabet)
    if alphabet is None:
        raise ParseError("missing alphabet")
    if "states" not in fields or "initial" not in fields:
        raise ParseError("missing states or initial")
    if fdfa_block and "acceptance" in fields:
        raise ParseError("FDFA blocks carry no acceptance line")
    acceptance = fields.get("acceptance", "finals")
    if acceptance == "finals" and any(t[3] for t in trans):
        raise ParseError("acc marks appear only in buchi and cobuchi blocks")

    n = fields["states"]
    if n < 1:
        raise ParseError("states must be >= 1")
    if n > MAX_STATES:
        raise ResourceLimitError(
            f"states: {n} exceeds the parser cap of {MAX_STATES}")
    initial = fields["initial"]
    if not 0 <= initial < n:
        raise ParseError("initial out of range")
    # checked before a sink is added, so finals name declared states only
    finals = fields.get("finals")
    if finals is not None:
        if fdfa_block == "leading":
            raise ParseError("the leading block carries no finals")
        if acceptance != "finals":
            raise ParseError(f"a {acceptance} block carries no finals")
        if not all(0 <= f < n for f in finals):
            raise ParseError("final state out of range")
    table: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for s, letter, t, acc in trans:
        a = alphabet.index(letter)
        if not (0 <= s < n and 0 <= t < n):
            raise ParseError("transition state out of range")
        targets = table.setdefault((s, a), [])
        if any(t == u for u, _ in targets):
            raise ParseError(f"repeated transition {s} {letter} {t}")
        targets.append((t, acc))

    if not all(len(v) == 1 for v in table.values()):
        if acceptance != "buchi":
            raise ParseError("nondeterminism requires buchi acceptance")
        edges = {(s, a, t, marked) for (s, a), targets in table.items()
                 for t, marked in targets}
        return Nba(alphabet, n, frozenset([initial]),
                   frozenset(e[:3] for e in edges),
                   frozenset(e[:3] for e in edges if e[3])), pos

    delta = [tuple([table[s, a][0][0] if (s, a) in table else n
                    for a in range(alphabet.size)]) for s in range(n)]
    if len(table) < n * alphabet.size:  # partial: add the sink, state n
        if fdfa_block == "leading":  # the sink would have no progress block
            s, a = next((s, a) for s in range(n) for a in range(alphabet.size)
                        if (s, a) not in table)
            letter = alphabet.letters[a]
            raise ParseError("the leading block must be total: state "
                             f"{s} has no transition on {letter!r}")
        delta.append((n,) * alphabet.size)
    ts = DetTS(alphabet, len(delta), initial, tuple(delta))
    if acceptance == "finals":
        return Dfa(ts, frozenset(finals or ())), pos
    acc_pairs = frozenset(sa for sa, [(_, marked)] in table.items() if marked)
    polarity = BUCHI if acceptance == "buchi" else COBUCHI
    return DetOmega(ts, acc_pairs, polarity), pos


def parse_automaton(text: str) -> Dfa | DetOmega | Nba:
    lines = _clean_lines(text)
    if lines[:1] == ["fdfa"]:
        raise ParseError("expected an automaton, got an FDFA file")
    obj, pos = _read_block(lines, 0, None)
    if pos != len(lines):
        raise ParseError(f"trailing content: {lines[pos]!r}")
    return obj


def parse_fdfa(text: str) -> Fdfa:
    lines = _clean_lines(text)
    if not lines or lines[0] != "fdfa":
        raise ParseError("expected an 'fdfa' header")
    pos = 1
    flavor = None
    if pos < len(lines) and lines[pos].startswith("flavor:"):
        flavor = lines[pos].split(":", 1)[1].strip()
        if flavor not in FLAVORS:
            raise ParseError(f"unknown flavor {flavor!r}")
        pos += 1
    if pos >= len(lines) or lines[pos] != "leading":
        raise ParseError("expected a 'leading' block")
    leading_dfa, pos = _read_block(lines, pos + 1, None, "leading")
    leading = leading_dfa.ts

    progress: dict[int, Dfa] = {}
    while pos < len(lines):
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != "progress":
            raise ParseError(f"expected a 'progress <state>' block: {lines[pos]!r}")
        state = int(parts[1])
        if state in progress:
            raise ParseError(f"repeated progress block {state}")
        progress[state], pos = _read_block(lines, pos + 1, leading.alphabet,
                                           "progress")
    if sorted(progress) != list(range(leading.state_count)):
        raise ParseError("need exactly one progress block per leading state")
    return Fdfa(leading,
                tuple([progress[i] for i in range(leading.state_count)]),
                flavor=flavor)


def _format_block(obj: Dfa | DetOmega | Nba | DetTS,
                  fdfa_block: str = "") -> list[str]:
    """The lines of one block, the inverse of ``_read_block``: a Dfa,
    DetOmega, Nba, or an FDFA leading block's DetTS.  An FDFA block gets no
    acceptance line, and a progress block no alphabet line."""
    if isinstance(obj, Nba):
        if len(obj.initials) != 1:
            raise AutomatonError("the text format carries a single initial")
        alphabet, n, [initial] = obj.alphabet, obj.state_count, obj.initials
        acceptance, trans, marked = BUCHI, sorted(obj.trans), obj.acc
    else:
        ts = obj if isinstance(obj, DetTS) else obj.ts
        alphabet, n, initial = ts.alphabet, ts.state_count, ts.initial
        trans = [(s, a, t) for s, row in enumerate(ts.delta)
                 for a, t in enumerate(row)]
        omega = isinstance(obj, DetOmega)
        acceptance = obj.polarity if omega else "finals"
        marked = {(s, a, ts.delta[s][a]) for s, a in obj.acc} if omega else ()
    out = [f"states: {n}", f"initial: {initial}"]
    if fdfa_block != "progress":
        out.insert(0, "alphabet: " + " ".join(alphabet.letters))
    if not fdfa_block:
        out.append(f"acceptance: {acceptance}")
    out += [f"trans: {s} {alphabet.letters[a]} {t}"
            + (" acc" if (s, a, t) in marked else "") for s, a, t in trans]
    if isinstance(obj, Dfa):
        out.append("finals: " + " ".join(str(s) for s in sorted(obj.finals)))
    return out


def format_automaton(obj: Dfa | DetOmega | Nba) -> str:
    return "\n".join(_format_block(obj)) + "\n"


def format_fdfa(f: Fdfa) -> str:
    lines = ["fdfa"]
    if f.flavor:
        lines.append(f"flavor: {f.flavor}")
    lines.append("leading")
    lines.extend(_format_block(f.leading, "leading"))
    for i, p in enumerate(f.progress):
        lines.append(f"progress {i}")
        if f.labels is not None:
            lines.append(f"# rep: {f.leading.alphabet.format_word(f.labels[i])}")
        lines.extend(_format_block(p, "progress"))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# commands

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_dba(path: str) -> DetOmega:
    obj = parse_automaton(_read(path))
    if not isinstance(obj, DetOmega) or obj.polarity != BUCHI:
        raise ParseError("a deterministic Buchi automaton is required")
    return obj


def _parse_word(alphabet: Alphabet, text: str) -> Word:
    if text in ("", "-"):
        return ()
    return alphabet.parse_word(text)


def cmd_canon(args: argparse.Namespace) -> int:
    f = build_canonical_fdfa(_load_dba(args.input), args.flavor)
    _write_out(format_fdfa(f), args.out)
    report = size_report(f)
    sizes = ",".join(str(s) for s in report.progress)
    print(f"leading={report.leading} progress={sizes} total={report.total}")
    return EXIT_OK


def cmd_decide(args: argparse.Namespace) -> int:
    f = parse_fdfa(_read(args.input))
    result = decide_dba_recognizable(f)
    if result.recognizable:
        print("recognizable: yes")
        return EXIT_OK
    print("recognizable: no")
    print(f"reason: {result.reason}")
    if result.witness is not None:
        alphabet = f.leading.alphabet
        prefix = alphabet.format_word(result.witness.prefix) or "-"
        period = alphabet.format_word(result.witness.period)
        print(f"witness: {prefix} {period}")
    return EXIT_NO


def _single_initial(nba: Nba) -> Nba:
    """Equivalent NBA with one initial state.  The text format carries a
    single initial, so a fresh start state inherits the outgoing transitions
    of every initial; with transition-based acceptance this preserves the
    language."""
    if len(nba.initials) == 1:
        return nba
    start = nba.state_count
    trans = set(nba.trans)
    acc = set(nba.acc)
    for i in nba.initials:
        for s, a, t in nba.trans:
            if s == i:
                trans.add((start, a, t))
                if (s, a, t) in nba.acc:
                    acc.add((start, a, t))
    return Nba(nba.alphabet, start + 1, frozenset([start]),
               frozenset(trans), frozenset(acc))


def cmd_translate(args: argparse.Namespace) -> int:
    f = parse_fdfa(_read(args.input))
    if args.to == "nba":
        out = format_automaton(_single_initial(fdfa_to_nba(f)))
    elif args.to == "ldba":
        out = format_automaton(_single_initial(fdfa_to_ldba(f).nba))
    else:
        out = format_automaton(fdfa_to_dba(f))
    _write_out(out, args.out)
    return EXIT_OK


def cmd_learn(args: argparse.Namespace) -> int:
    kind, _, path = args.teacher.partition(":")
    if kind == "dba" and path:
        ref = _load_dba(path)
        alphabet, make_teacher = ref.ts.alphabet, DbaTeacher
    elif kind == "fdfa" and path:
        ref = parse_fdfa(_read(path))
        alphabet, make_teacher = ref.leading.alphabet, FdfaTeacher
    else:
        raise ParseError("teacher must be dba:FILE or fdfa:FILE")
    log = QueryLog(alphabet) if args.log else None
    hypothesis, stats = learn_limit_fdfa(make_teacher(ref, log=log))
    if args.out:
        _write_out(format_fdfa(hypothesis), args.out)
    if log is not None:
        _write_out("\n".join(log.lines) + "\n", args.log)
    report = size_report(hypothesis)
    print(f"leading={report.leading} progress_total={sum(report.progress)} "
          f"mq={stats.mq} eq={stats.eq}")
    return EXIT_OK


def cmd_bench_ln(args: argparse.Namespace) -> int:
    if args.max_n < 1 or args.max_n > 12:
        raise ParseError("--max-n must be between 1 and 12")
    flavors = args.flavors.split(",")
    for flavor in flavors:
        if flavor not in FLAVORS:
            raise ParseError(f"unknown flavor {flavor!r}")
    print("n\tflavor\tleading\tprogress_total\ttotal\tmillis")
    for n in range(1, args.max_n + 1):
        for flavor in flavors:
            start = time.perf_counter()
            f = build_canonical_fdfa(gen_ln(n), flavor)
            millis = int((time.perf_counter() - start) * 1000)
            report = size_report(f)
            print(f"{n}\t{flavor}\t{report.leading}\t"
                  f"{sum(report.progress)}\t{report.total}\t{millis}")
    return EXIT_OK


def cmd_accepts(args: argparse.Namespace) -> int:
    if args.v == "":
        raise ParseError("the period must be nonempty")
    text = _read(args.input)
    if _clean_lines(text)[:1] == ["fdfa"]:
        obj = parse_fdfa(text)
        alphabet, member = obj.leading.alphabet, accepts_upword
    else:
        obj = parse_automaton(text)
        if isinstance(obj, Dfa):
            raise ParseError("membership needs an omega-automaton or FDFA")
        if isinstance(obj, DetOmega):
            alphabet, member = obj.ts.alphabet, member_upword_det
        else:
            alphabet, member = obj.alphabet, member_upword_nba
    w = UpWord(_parse_word(alphabet, args.u), _parse_word(alphabet, args.v))
    print("member" if member(obj, w) else "non-member")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The workbench's argument parser, built once per process on first use
    (``build_parser.__wrapped__()`` builds a fresh one)."""
    parser = argparse.ArgumentParser(
        prog="omega-fdfa",
        description="canonical FDFA workbench for omega-regular languages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="build a canonical FDFA from a DBA")
    p.add_argument("input")
    p.add_argument("--flavor", choices=FLAVORS, default=LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("decide", help="decide DBA-recognizability")
    p.add_argument("input")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("translate", help="translate an FDFA to an automaton")
    p.add_argument("input")
    p.add_argument("--to", choices=("nba", "ldba", "dba"), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("learn", help="learn a limit FDFA from a teacher")
    p.add_argument("--teacher", required=True, metavar="dba:FILE|fdfa:FILE",
                   help="a DBA, or an FDFA that must be saturated, which "
                   "the first equivalence-query step relies on")
    p.add_argument("--log")
    p.add_argument("--out")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("bench-ln", help="size/time table for the L_n family")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--flavors", default=",".join(FLAVORS))
    p.set_defaults(func=cmd_bench_ln)

    p = sub.add_parser("accepts", help="membership of u.v^omega")
    p.add_argument("input")
    p.add_argument("u", help="prefix; '-' for the empty word")
    p.add_argument("v", help="period (nonempty)")
    p.set_defaults(func=cmd_accepts)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (AutomatonError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
