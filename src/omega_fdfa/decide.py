"""Polynomial-time decision of DBA-recognizability from a limit FDFA."""

from __future__ import annotations

from dataclasses import dataclass

from .core_automata import AutomatonError, Lasso, nba_dba_included
from .fdfa import Fdfa, LIMIT, RECURRENT, SinkFinalMissing, extract_fb
from .translate import fdfa_to_dba, fdfa_to_nba


@dataclass(frozen=True)
class DecideResult:
    recognizable: bool
    reason: str
    witness: Lasso | None = None


def decide_dba_recognizable(f: Fdfa) -> DecideResult:
    """Three steps: (1) every progress DFA with finals must have a sink final
    (else No); (2) build the NBA of f and the DBA of its sink-final variant;
    (3) language inclusion decides the verdict, a failing lasso witnesses No.

    Recurrent-flavor inputs are refused: the algorithm is unsound for them.
    """
    if f.flavor == RECURRENT:
        raise AutomatonError(
            "the decision algorithm is unsound for recurrent FDFAs")
    if f.flavor != LIMIT:
        raise AutomatonError("a limit-flavor FDFA is required")

    try:
        fb = extract_fb(f)
    except SinkFinalMissing as err:
        return DecideResult(
            False,
            f"progress DFA of leading state {err.u_class} has final states "
            "but no sink final state (not co-safety)")
    nba = fdfa_to_nba(f)
    dba = fdfa_to_dba(fb)
    verdict = nba_dba_included(nba, dba)
    if verdict is True:
        return DecideResult(True, "UP(f) is recognized by the derived DBA")
    return DecideResult(
        False,
        "a word of UP(f) escapes every deterministic Buchi recognizer "
        "derived from the sink-final variant",
        witness=verdict)
