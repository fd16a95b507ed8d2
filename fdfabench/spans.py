"""Span recorder for the traced run.

The recorder replaces public functions of the ``omega_fdfa`` modules at the
module attribute through which their callers reach them (the import site),
so that ``omega_fdfa.congruence.periodic_lang_dfa`` is timed whether the CLI
or ``progress_dfa`` calls it.  Each call becomes a span with a name, start,
end, parent and a few sizes read off its arguments and result; spans stay in
memory until the run ends.  Per-word helpers called millions of times (such
as ``member_upword_det`` inside the learner's fallback search) only count
calls, and per-letter helpers (``run_word``) are not wrapped at all.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _states(dfa) -> dict:
    return {"states": dfa.ts.state_count}


def _minimize(args, kwargs, result) -> dict:
    return {"in": args[0].ts.state_count, "out": result.ts.state_count}


def _upword(lasso_or_other):
    upword = getattr(lasso_or_other, "upword", None)
    if upword is None:
        return None
    w = upword()
    return (tuple(w.prefix), tuple(w.period))


def _inclusion(args, kwargs, result) -> dict:
    return {"nba": args[0].state_count, "dba": args[1].ts.state_count,
            "witness": _upword(result)}


def _nba(args, kwargs, result) -> dict:
    return {"states": result.state_count, "transitions": len(result.trans)}


def _eq(args, kwargs, result) -> dict:
    if result is None:
        return {"ce": None}
    return {"ce": (tuple(result.prefix), tuple(result.period))}


def _learned(args, kwargs, result) -> dict:
    h = result[0]
    return {"states": h.leading.state_count
            + sum(p.ts.state_count for p in h.progress)}


def _decided(args, kwargs, result) -> dict:
    return {"sink_no": not result.recognizable and result.witness is None}


# (module, attribute at that module, span name, sizer).  The span name is the
# module that defines the function, so self time lands on the right layer.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_automaton", "cli.parse", None),
    ("cli", "parse_fdfa", "cli.parse", None),
    ("cli", "format_automaton", "cli.format", None),
    ("cli", "format_fdfa", "cli.format", None),
    ("cli", "build_canonical_fdfa", "congruence.build_canonical_fdfa", None),
    ("cli", "decide_dba_recognizable", "decide.decide_dba_recognizable",
     _decided),
    ("cli", "fdfa_to_nba", "translate.fdfa_to_nba", _nba),
    ("cli", "fdfa_to_ldba", "translate.fdfa_to_ldba",
     lambda a, k, r: _nba(a, k, r.nba)),
    ("cli", "fdfa_to_dba", "translate.fdfa_to_dba",
     lambda a, k, r: {"states": r.ts.state_count}),
    ("cli", "learn_limit_fdfa", "learn.learn_limit_fdfa", _learned),
    ("congruence", "compute_leading", "congruence.compute_leading",
     lambda a, k, r: {"classes": r.leading.state_count}),
    ("congruence", "dba_state_equiv", "core_automata.dba_state_equiv", None),
    ("congruence", "periodic_lang_dfa", "congruence.periodic_lang_dfa",
     lambda a, k, r: _states(r)),
    ("congruence", "progress_dfa", "congruence.progress_dfa",
     lambda a, k, r: _states(r)),
    ("congruence", "dfa_minimize", "core_automata.dfa_minimize", _minimize),
    ("congruence", "dfa_product", "core_automata.dfa_product",
     lambda a, k, r: _states(r)),
    ("translate", "dfa_product", "core_automata.dfa_product",
     lambda a, k, r: _states(r)),
    ("decide", "extract_fb", "fdfa.extract_fb", None),
    ("decide", "fdfa_to_nba", "translate.fdfa_to_nba", _nba),
    ("decide", "fdfa_to_dba", "translate.fdfa_to_dba",
     lambda a, k, r: {"states": r.ts.state_count}),
    ("decide", "nba_dba_included", "core_automata.nba_dba_included",
     lambda a, k, r: {**_inclusion(a, k, r), "site": "decide"}),
    ("learn", "DbaTeacher.mq", "learn.mq", None),
    ("learn", "FdfaTeacher.mq", "learn.mq", None),
    ("learn", "DbaTeacher.eq", "learn.eq", _eq),
    ("learn", "FdfaTeacher.eq", "learn.eq", _eq),
    ("learn", "fdfa_to_nba", "translate.fdfa_to_nba", _nba),
    ("learn", "complement_finals", "fdfa.complement_finals", None),
    ("learn", "nba_dba_included", "core_automata.nba_dba_included",
     lambda a, k, r: {**_inclusion(a, k, r), "site": "learn"}),
    ("learn", "nba_dba_intersection_witness",
     "core_automata.nba_dba_intersection_witness",
     lambda a, k, r: {"witness": _upword(r)}),
    ("learn", "nba_nba_intersection_witness",
     "core_automata.nba_nba_intersection_witness",
     lambda a, k, r: {"witness": _upword(r)}),
]

# (module, attribute, counter name): wrapped to count calls only.
COUNTERS = [
    ("learn", "member_upword_det", "core_automata.member_det_calls"),
    ("learn", "normalize", "fdfa.normalize_calls"),
    ("learn", "accepts_decomposition", "fdfa.accepts_decomposition_calls"),
]

# Children of an equivalence query that make up its exact automata checks;
# the rest of the query is the bounded fallback plus candidate validation.
EXACT_EQ = {"translate.fdfa_to_nba", "fdfa.complement_finals",
            "core_automata.nba_dba_included",
            "core_automata.nba_dba_intersection_witness",
            "core_automata.nba_nba_intersection_witness"}
LAYERS = ("cli", "congruence", "core_automata", "fdfa", "decide",
          "translate", "learn")


class Span:
    __slots__ = ("name", "start", "end", "parent", "outer", "info", "error")

    def __init__(self, name: str, start: float, parent: int, outer: bool):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.outer = outer
        self.info: dict | None = None
        self.error: str | None = None


class Recorder:
    """Installs the wrappers, collects spans and counts, restores the
    original functions on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, module: str, attr: str):
        owner = importlib.import_module(f"omega_fdfa.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name

    def install(self) -> None:
        for module, attr, name, sizer in SPANS:
            owner, field = self._owner(module, attr)
            original = getattr(owner, field)
            self._saved.append((owner, field, original))
            setattr(owner, field, self._span_wrapper(original, name, sizer))
        for module, attr, name in COUNTERS:
            owner, field = self._owner(module, attr)
            original = getattr(owner, field)
            self._saved.append((owner, field, original))
            setattr(owner, field, self._count_wrapper(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, field, original = self._saved.pop()
            setattr(owner, field, original)

    def _span_wrapper(self, fn, name: str, sizer):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, depth[name] == 0)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            depth[name] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = clock()
                depth[name] -= 1
                stack.pop()
            if sizer is not None:
                span.info = sizer(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self, passes: int) -> dict[str, float]:
        return layer_metrics(self.spans, self.counts, passes)


def layer_metrics(spans: list[Span], counts: dict[str, int],
                  passes: int) -> dict[str, float]:
    """Per-layer figures per pass of the workload: times in seconds are
    durations of the outermost spans of a name, ``self_s`` is a layer's span
    time minus the time its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)

    def dur(sp: Span) -> float:
        return sp.end - sp.start

    def of(name: str) -> list[Span]:
        return [sp for sp in spans if sp.name == name]

    def total(name: str) -> float:
        return sum(dur(sp) for sp in of(name) if sp.outer)

    def info_sum(name: str, key: str, outer_only: bool = False) -> int:
        return sum(sp.info[key] for sp in of(name)
                   if sp.info is not None and (sp.outer or not outer_only))

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, sp in enumerate(spans):
        covered = sum(dur(spans[j]) for j in children[i])
        self_s[sp.name.split(".")[0]] += dur(sp) - covered

    profile = of("congruence.periodic_lang_dfa")
    cap_hits = sum(1 for sp in profile if sp.error == "ResourceLimitError")
    from omega_fdfa.congruence import PROFILE_CAP
    profile_states = info_sum("congruence.periodic_lang_dfa", "states") \
        + cap_hits * PROFILE_CAP
    progress_states = info_sum("congruence.progress_dfa", "states",
                               outer_only=True)

    inclusion = of("core_automata.nba_dba_included")
    decide_incl = [sp for sp in inclusion
                   if sp.info is not None and sp.info["site"] == "decide"]

    eqs = of("learn.eq")
    eq_s = sum(dur(sp) for sp in eqs)
    eq_exact_s = sum(dur(spans[j]) for i, sp in enumerate(spans)
                     if sp.name == "learn.eq" for j in children[i]
                     if spans[j].name in EXACT_EQ)
    ces = []
    for i, sp in enumerate(spans):
        if sp.name != "learn.eq" or sp.info is None or sp.info["ce"] is None:
            continue
        found = {spans[j].info.get("witness") for j in children[i]
                 if spans[j].info is not None}
        ces.append((sp.info["ce"], sp.info["ce"] in found))
    learn_spans = [i for i, sp in enumerate(spans)
                   if sp.name == "learn.learn_limit_fdfa"]
    table_s = sum(dur(spans[i]) - sum(dur(spans[j]) for j in children[i])
                  for i in learn_spans)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "cli.commands": len(of("cli.main")),
        "cli.main_s": total("cli.main"),
        "cli.parse_s": total("cli.parse"),
        "cli.format_s": total("cli.format"),
        "congruence.profile_s": total("congruence.periodic_lang_dfa"),
        "congruence.profile_builds": len(profile),
        "congruence.profile_states": profile_states,
        "congruence.progress_states": progress_states,
        "congruence.cap_hits": cap_hits,
        "congruence.leading_s": total("congruence.compute_leading"),
        "congruence.leading_classes": info_sum("congruence.compute_leading",
                                               "classes"),
        "congruence.state_equiv_calls": len(of("core_automata.dba_state_equiv")),
        "congruence.state_equiv_s": total("core_automata.dba_state_equiv"),
        "core_automata.minimize_s": total("core_automata.dfa_minimize"),
        "core_automata.minimize_in_states": info_sum(
            "core_automata.dfa_minimize", "in"),
        "core_automata.minimize_out_states": info_sum(
            "core_automata.dfa_minimize", "out"),
        "core_automata.product_s": total("core_automata.dfa_product"),
        "core_automata.product_states": info_sum("core_automata.dfa_product",
                                                 "states"),
        "core_automata.inclusion_s": sum(dur(sp) for sp in inclusion),
        "core_automata.intersection_s": total(
            "core_automata.nba_dba_intersection_witness") + total(
            "core_automata.nba_nba_intersection_witness"),
        "core_automata.member_det_calls": counts["core_automata.member_det_calls"],
        "fdfa.normalize_calls": counts["fdfa.normalize_calls"],
        "fdfa.accepts_decomposition_calls":
            counts["fdfa.accepts_decomposition_calls"],
        "translate.nba_s": total("translate.fdfa_to_nba"),
        "translate.nba_states": info_sum("translate.fdfa_to_nba", "states"),
        "translate.nba_transitions": info_sum("translate.fdfa_to_nba",
                                              "transitions"),
        "translate.ldba_s": total("translate.fdfa_to_ldba"),
        "translate.dba_s": total("translate.fdfa_to_dba"),
        "translate.dba_states": info_sum("translate.fdfa_to_dba", "states"),
        "decide.inclusion_nba_states": sum(sp.info["nba"] for sp in decide_incl),
        "decide.inclusion_dba_states": sum(sp.info["dba"] for sp in decide_incl),
        "decide.sink_check_no": sum(
            1 for sp in of("decide.decide_dba_recognizable")
            if sp.info is not None and sp.info["sink_no"]),
        "learn.mq": len(of("learn.mq")),
        "learn.eq": len(eqs),
        "learn.mq_s": total("learn.mq"),
        "learn.eq_s": eq_s,
        "learn.eq_exact_s": eq_exact_s,
        "learn.eq_rest_s": eq_s - eq_exact_s,
        "learn.table_s": table_s,
        "learn.hypothesis_states": info_sum("learn.learn_limit_fdfa", "states"),
    }
    m = {k: v / passes for k, v in m.items()}
    # ratios are taken over the whole run, not per pass
    m["congruence.profiles_per_kept_state"] = ratio(profile_states,
                                                    progress_states)
    m["learn.ce_len"] = ratio(sum(len(u) + len(v) for (u, v), _ in ces),
                              len(ces))
    m["learn.ce_exact_share"] = ratio(sum(1 for _, exact in ces if exact),
                                      len(ces))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] / passes
    m["trace.spans"] = len(spans) / passes
    return m


UNITS = {"_s": "s", "_share": "ratio", "_len": "letters",
         "_per_kept_state": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"
