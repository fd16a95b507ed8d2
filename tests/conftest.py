"""Shared fixtures: the zoo automata and a CLI runner."""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from omega_fdfa import (
    Alphabet,
    BUCHI,
    DetOmega,
    DetTS,
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_sigma_star_aa,
)
from omega_fdfa.cli import main


@pytest.fixture
def fig1():
    return gen_fig1()


@pytest.fixture
def saa():
    return gen_sigma_star_aa()


@pytest.fixture
def fig5():
    return gen_fig5_fdfa()


@pytest.fixture
def ln2():
    return gen_ln(2)


@pytest.fixture
def escape_dba():
    """A 5-state DBA whose syntactic and recurrent families are
    sink-final-only, yet a^omega, which it accepts, is lost by their reset
    DBAs: both families reject every period that leaves its leading class."""
    delta = ((3, 2), (3, 2), (3, 0), (3, 3), (1, 4))
    acc = frozenset({(0, 0), (3, 0), (3, 1), (4, 0)})
    return DetOmega(DetTS(Alphabet(("a", "b")), 5, 0, delta), acc, BUCHI)


@pytest.fixture
def cli(capsys):
    """Run the CLI; returns (exit_code, stdout, stderr)."""

    def run(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
