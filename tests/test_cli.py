"""Tests for the command-line surface: text formats, round trips, commands,
and exit codes."""

import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from math import isqrt

import pytest

import omega_fdfa.congruence as congruence
import omega_fdfa.learn as learn
from omega_fdfa import (
    Alphabet,
    AutomatonError,
    BUCHI,
    DetOmega,
    DetTS,
    Dfa,
    FLAVORS,
    LIMIT,
    Nba,
    RECURRENT,
    SYNTACTIC,
    UpWord,
    accepts_upword,
    build_canonical_fdfa,
    fdfa_to_ldba,
    fdfa_to_nba,
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
    member_upword_nba,
)
from omega_fdfa.cli import (
    MAX_STATES,
    ParseError,
    _single_initial,
    build_parser,
    format_automaton,
    format_fdfa,
    main,
    parse_automaton,
    parse_fdfa,
)
from omega_fdfa.congruence import PAIR_CAP
from omega_fdfa.core_automata import det_to_nba

from helpers import split_fig1_periodic
from oracles import naive_member, words_upto


# --------------------------------------------------------------------------
# formats

# zoo and seeded random DBAs, their canonical families in every flavor,
# and the limit families' NBA and LDBA translations
DBAS = [gen_fig1(), gen_sigma_star_aa(), gen_ln(1), gen_ln(2), gen_ln(3)] \
    + [gen_random_dba(seed, 3 + seed % 5, 1 + seed % 3) for seed in range(12)]


def _families():
    return [build_canonical_fdfa(d, flavor)
            for d in DBAS for flavor in FLAVORS]


def _reread(obj):
    """parse_automaton(format_automaton(obj)).  A deterministic buchi block
    reads back as a DetOmega, so an Nba whose transitions happen to be
    deterministic and total comes back as the DetOmega of its table."""
    again = parse_automaton(format_automaton(obj))
    return det_to_nba(again) if isinstance(obj, Nba) \
        and isinstance(again, DetOmega) else again


def test_automaton_round_trip_dba():
    for d in DBAS:
        assert parse_automaton(format_automaton(d)) == d


def test_automaton_round_trip_keeps_letters_with_colons():
    ts = DetTS(Alphabet(("req", "a:b")), 1, 0, ((0, 0),))
    d = DetOmega(ts, frozenset({(0, 1)}), BUCHI)
    assert parse_automaton(format_automaton(d)) == d


def test_automaton_round_trip_dfa():
    text = """
    alphabet: a b
    states: 2
    initial: 0
    acceptance: finals
    trans: 0 a 1
    trans: 0 b 0
    trans: 1 a 1
    trans: 1 b 0
    finals: 1
    """
    dfa = parse_automaton(text)
    assert isinstance(dfa, Dfa)
    assert dfa.accepts((0,)) and not dfa.accepts((0, 1))
    assert parse_automaton(format_automaton(dfa)) == dfa
    for p in (p for f in _families() for p in f.progress):
        assert parse_automaton(format_automaton(p)) == p


def test_automaton_partial_table_gets_sink():
    text = """
    alphabet: a b
    states: 1
    initial: 0
    acceptance: buchi
    trans: 0 a 0 acc
    """
    d = parse_automaton(text)
    assert isinstance(d, DetOmega)
    assert d.ts.state_count == 2  # fresh sink added
    assert d.ts.delta[0][1] == 1 and d.ts.delta[1] == (1, 1)


def test_automaton_nondeterministic_becomes_nba():
    text = """
    alphabet: a
    states: 2
    initial: 0
    acceptance: buchi
    trans: 0 a 0
    trans: 0 a 1
    trans: 1 a 1 acc
    """
    nba = parse_automaton(text)
    assert isinstance(nba, Nba)
    assert parse_automaton(format_automaton(nba)) == nba
    for f in _families():
        if f.flavor == LIMIT:
            for made in (fdfa_to_nba(f), fdfa_to_ldba(f).nba):
                one = _single_initial(made)
                assert _reread(one) == one


def test_format_refuses_several_initials():
    nba = Nba(Alphabet(("a",)), 2, frozenset({0, 1}),
              frozenset({(0, 0, 1), (1, 0, 1)}), frozenset({(1, 0, 1)}))
    with pytest.raises(AutomatonError, match="single initial"):
        format_automaton(nba)


def test_automaton_parse_errors():
    with pytest.raises(ParseError):
        parse_automaton("states: 1\ninitial: 0")  # no alphabet
    with pytest.raises(ParseError):
        parse_automaton("alphabet: a\nstates: 1\ninitial: 3")
    with pytest.raises(ParseError):
        parse_automaton("alphabet: a\nstates: 1\ninitial: 0\nbogus: 1")
    with pytest.raises(ParseError):
        parse_automaton("alphabet: a\nstates: 2\ninitial: 0\n"
                        "acceptance: finals\ntrans: 0 a 0\ntrans: 0 a 1")
    # acc marks appear only in buchi and cobuchi blocks, never in a DFA
    # block, with or without its acceptance line
    for text in ("alphabet: a b\nstates: 2\ninitial: 0\n"
                 "acceptance: finals\ntrans: 0 a 1 acc\ntrans: 0 b 0\n"
                 "trans: 1 a 1\ntrans: 1 b 0\nfinals: 1",
                 "alphabet: a b\nstates: 2\ninitial: 0\ntrans: 0 a 1 acc\n"
                 "trans: 0 b 0\ntrans: 1 a 1\ntrans: 1 b 0\nfinals: 1"):
        with pytest.raises(ParseError, match="acc marks"):
            parse_automaton(text)
    # finals name declared states only: not the fresh sink of a partial
    # table, and not in a buchi or cobuchi block, in range or not
    for text in ("alphabet: a b\nstates: 1\ninitial: 0\ntrans: 0 a 0\n"
                 "finals: 1",
                 "alphabet: a\nstates: 1\ninitial: 0\ntrans: 0 a 0\n"
                 "finals: 0 2",
                 "alphabet: a\nstates: 1\ninitial: 0\nacceptance: buchi\n"
                 "trans: 0 a 0 acc\nfinals: 0",
                 "alphabet: a\nstates: 1\ninitial: 0\n"
                 "acceptance: cobuchi\ntrans: 0 a 0\nfinals: 7"):
        with pytest.raises(ParseError):
            parse_automaton(text)
    # every field but trans: appears at most once, even when the repeat
    # agrees with the first line
    dfa = "alphabet: a\nstates: 1\ninitial: 0\ntrans: 0 a 0\nfinals: 0\n"
    for field, repeat in (("finals", "finals:\n"), ("states", "states: 1\n"),
                          ("initial", "initial: 0\n"),
                          ("acceptance", "acceptance: finals\n"
                           "acceptance: finals\n"),
                          ("alphabet", "alphabet: a b\n")):
        with pytest.raises(ParseError, match=f"repeated field '{field}'"):
            parse_automaton(dfa + repeat)


def test_fdfa_round_trip():
    for f in _families():
        again = parse_fdfa(format_fdfa(f))
        assert again.leading == f.leading
        assert again.progress == f.progress
        assert again.flavor == f.flavor


def test_fdfa_round_trip_fig5(fig5):
    again = parse_fdfa(format_fdfa(fig5))
    assert again.leading == fig5.leading
    assert again.progress == fig5.progress


def test_fdfa_parse_errors():
    with pytest.raises(ParseError):
        parse_fdfa("alphabet: a\nstates: 1\ninitial: 0")
    with pytest.raises(ParseError):
        parse_fdfa("fdfa\nflavor: sideways\nleading\nalphabet: a\n"
                    "states: 1\ninitial: 0\ntrans: 0 a 0")
    with pytest.raises(ParseError):  # missing progress block
        parse_fdfa("fdfa\nleading\nalphabet: a\nstates: 1\ninitial: 0\n"
                    "trans: 0 a 0")


# --------------------------------------------------------------------------
# commands

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def fig1_file(tmp_path):
    return _write(tmp_path, "fig1.aut", format_automaton(gen_fig1()))


@pytest.fixture
def fig1_fdfa_file(tmp_path):
    f = build_canonical_fdfa(gen_fig1(), LIMIT)
    return _write(tmp_path, "fig1.fdfa", format_fdfa(f))


@pytest.fixture
def fig5_file(tmp_path):
    return _write(tmp_path, "fig5.fdfa", format_fdfa(gen_fig5_fdfa()))


def test_cmd_canon_ln3(cli, tmp_path):
    path = _write(tmp_path, "ln3.aut", format_automaton(gen_ln(3)))
    code, out, err = cli("canon", path, "--flavor", "limit")
    assert code == 0
    assert out.strip().splitlines()[-1] == \
        "leading=5 progress=2,2,1,2,2 total=14"
    code, out, err = cli("canon", path, "--flavor", "recurrent")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("total=26")


def test_cmd_canon_is_deterministic(cli, fig1_file, tmp_path):
    out1 = tmp_path / "a.fdfa"
    out2 = tmp_path / "b.fdfa"
    assert cli("canon", fig1_file, "--out", str(out1))[0] == 0
    assert cli("canon", fig1_file, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_canon_one_class_flavors_coincide(cli, tmp_path):
    # with a single leading class the four flavors coincide; the recurrent
    # output differs only in whether the (never-queried) empty period is final
    path = _write(tmp_path, "saa.aut", format_automaton(gen_sigma_star_aa()))
    outputs = {}
    for flavor in ("periodic", "syntactic", "recurrent", "limit"):
        out = tmp_path / f"{flavor}.fdfa"
        assert cli("canon", path, "--flavor", flavor, "--out", str(out))[0] == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("flavor")]
        outputs[flavor] = "\n".join(lines)
    assert outputs["periodic"] == outputs["syntactic"] == outputs["limit"]
    diff = set(outputs["recurrent"].splitlines()) \
        ^ set(outputs["limit"].splitlines())
    assert all(line.startswith("finals:") for line in diff)


def test_cmd_canon_rejects_bad_input(cli, tmp_path):
    path = _write(tmp_path, "bad.aut", "alphabet: a\n")
    assert cli("canon", path)[0] == 2
    assert cli("canon", str(tmp_path / "missing.aut"))[0] == 2


@pytest.mark.parametrize("letters, bad", [("a.b c", "a.b"), ("- a", "-")])
def test_letter_no_word_can_spell_exits_2(cli, tmp_path, letters, bad):
    # '.' separates letters and '-' is the empty word, so such a letter
    # could be read and written back but never queried
    path = _write(tmp_path, "bad.aut", f"alphabet: {letters}\nstates: 1\n"
                  "initial: 0\nacceptance: buchi\n")
    refusal = (2, "", f"error: letter {bad!r} cannot be spelled in a word: "
               "'-' and '.' are reserved\n")
    assert cli("accepts", path, "-", bad) == refusal
    assert cli("canon", path) == refusal


def test_fdfa_file_read_as_an_automaton_exits_2(cli, fig1_fdfa_file):
    # it used to fail on its first block with "missing alphabet"
    with open(fig1_fdfa_file, encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(ParseError, match="got an FDFA file"):
        parse_automaton(text)
    refusal = (2, "", "error: expected an automaton, got an FDFA file\n")
    assert cli("canon", fig1_fdfa_file) == refusal
    assert cli("learn", "--teacher", f"dba:{fig1_fdfa_file}") == refusal


def test_cmd_canon_profile_cap_exits_4(cli, tmp_path, monkeypatch):
    path = _write(tmp_path, "cap.aut",
                  format_automaton(gen_random_dba(2, 8, 2)))
    # periodic explores the whole monoid, which exceeds the real cap
    assert cli("canon", path, "--flavor", "periodic") == (
        4, "", "error: profile DFA exceeded cap of 200000 states\n")
    # the other flavors explore class-local monoids of 8-13 profiles each:
    # the first class fits a cap of 8, the second does not
    monkeypatch.setattr(congruence, "PROFILE_CAP", 8)
    for flavor in (LIMIT, SYNTACTIC, RECURRENT):
        assert cli("canon", path, "--flavor", flavor) == (
            4, "", "error: profile DFA exceeded cap of 8 states\n")


def test_formerly_capped_dba_builds_exact_limit_families(cli, tmp_path):
    # gen_random_dba(2, 8, 2) has a whole monoid above the cap but
    # class-local monoids of 8-13 profiles, so the flavors built on limit
    # stay below the default cap
    d = gen_random_dba(2, 8, 2)
    words = [UpWord(w[:i], w[i:]) for w in words_upto(2, 8)
             for i in range(len(w))]
    member = [naive_member(d, w) for w in words]
    assert 0 < sum(member) < len(words)
    for flavor in (LIMIT, SYNTACTIC, RECURRENT):
        f = build_canonical_fdfa(d, flavor)
        assert [accepts_upword(f, w) for w in words] == member, flavor
    path = _write(tmp_path, "was-capped.aut", format_automaton(d))
    limit = str(tmp_path / "limit.fdfa")
    assert cli("canon", path, "--flavor", "limit", "--out", limit)[::2] == \
        (0, "")
    # a DBA language is DBA-recognizable
    assert cli("decide", limit)[:2] == (0, "recognizable: yes\n")
    nba = tmp_path / "limit.nba"
    assert cli("translate", limit, "--to", "nba", "--out", str(nba))[::2] == \
        (0, "")
    nba = parse_automaton(nba.read_text())
    assert all(member_upword_nba(nba, w) == m for w, m in zip(words, member)
               if len(w.prefix) + len(w.period) <= 6)


def test_cmd_canon_many_declared_states_few_reachable(cli, tmp_path):
    # the parser completes the table with a sink; only state 0 and the sink
    # are reachable, so canon reads like the two-state automaton
    head = "alphabet: a b\nstates: {}\ninitial: 0\nacceptance: buchi\n"
    sparse = _write(tmp_path, "sparse.aut", head.format(MAX_STATES)
                    + "trans: 0 a 0 acc\n")
    small = _write(tmp_path, "small.aut", head.format(2)
                   + "trans: 0 a 0 acc\ntrans: 0 b 1\ntrans: 1 a 1\n"
                   "trans: 1 b 1\n")
    code, out, err = cli("canon", sparse)
    assert (code, err) == (0, "")
    assert out.endswith("\nleading=2 progress=2,1 total=5\n")
    assert cli("canon", small) == (code, out, err)


def test_cmd_canon_pair_cap_exits_4(cli, tmp_path):
    n = isqrt(PAIR_CAP) + 1
    text = "".join(f"trans: {s} a {(s + 1) % n}\n" for s in range(n))
    path = _write(tmp_path, "cycle.aut", f"alphabet: a\nstates: {n}\n"
                  f"initial: 0\nacceptance: buchi\n{text}")
    assert cli("canon", path) == (
        4, "", f"error: leading congruence exceeded cap of {PAIR_CAP} state "
        "pairs\n")


@pytest.mark.parametrize("command, name, text", [
    ("canon", "huge.aut", "alphabet: a\nstates: 1000000000000\ninitial: 0\n"
     "acceptance: buchi\ntrans: 0 a 0 acc\n"),
    ("decide", "huge.fdfa", "fdfa\nleading\nalphabet: a\nstates: 1\n"
     "initial: 0\ntrans: 0 a 0\nprogress 0\nstates: 1000000000000\n"
     "initial: 0\ntrans: 0 a 0\nfinals: 0\n"),
])
def test_huge_states_exits_4_before_allocating(cli, tmp_path, command, name,
                                               text):
    code, _, err = cli(command, _write(tmp_path, name, text))
    assert code == 4
    assert err == ("error: states: 1000000000000 exceeds the parser cap of "
                   f"{MAX_STATES}\n")


def test_cmd_canon_unwritable_out_exits_2(cli, fig1_file, tmp_path):
    out = tmp_path / "missing" / "x.fdfa"
    code, _, err = cli("canon", fig1_file, "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_cmd_decide_yes(cli, fig1_fdfa_file):
    code, out, _ = cli("decide", fig1_fdfa_file)
    assert code == 0
    assert out.strip() == "recognizable: yes"


def test_cmd_decide_no_with_witness(cli, fig5_file):
    code, out, _ = cli("decide", fig5_file)
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[0] == "recognizable: no"
    assert lines[-1] == "witness: 2 2"


def test_cmd_decide_refuses_recurrent(cli, tmp_path):
    f = build_canonical_fdfa(gen_fig1(), RECURRENT)
    path = _write(tmp_path, "rec.fdfa", format_fdfa(f))
    assert cli("decide", path)[0] == 2


def test_cmd_translate_round_trip(cli, fig1_fdfa_file, tmp_path):
    out = tmp_path / "fig1.nba"
    code, _, _ = cli("translate", fig1_fdfa_file, "--to", "nba",
                     "--out", str(out))
    assert code == 0
    nba = parse_automaton(out.read_text())
    assert isinstance(nba, Nba)
    # feed the emitted NBA back through accepts
    assert cli("accepts", str(out), "a", "a")[1].strip() == "member"
    assert cli("accepts", str(out), "-", "b")[1].strip() == "non-member"


def test_cmd_translate_dba_needs_sink_final_only(cli, fig5_file):
    assert cli("translate", fig5_file, "--to", "dba")[0] == 2
    assert cli("translate", fig5_file, "--to", "ldba")[0] == 0


def test_cmd_translate_dba_refuses_recurrent(cli, escape_dba, tmp_path):
    # the recurrent family is sink-final-only, but its reset DBA would
    # reject a^omega, which the DBA accepts
    dba = _write(tmp_path, "escape.aut", format_automaton(escape_dba))
    rec = str(tmp_path / "rec.fdfa")
    assert cli("canon", dba, "--flavor", "recurrent", "--out", rec)[0] == 0
    code, out, err = cli("translate", rec, "--to", "dba")
    assert (code, out) == (2, "")
    assert "unsound for recurrent" in err and "Traceback" not in err


def test_cmd_learn_stats_line(cli, fig1_file, tmp_path):
    log = tmp_path / "queries.log"
    out = tmp_path / "learned.fdfa"
    code, stdout, _ = cli("learn", "--teacher", f"dba:{fig1_file}",
                          "--log", str(log), "--out", str(out))
    assert code == 0
    assert stdout.startswith("leading=5 progress_total=9 ")
    assert "mq=" in stdout and "eq=" in stdout
    assert log.read_text().strip().endswith("EQ -> accept")
    learned = parse_fdfa(out.read_text())
    assert learned.leading.state_count == 5


def test_cmd_learn_fdfa_teacher(cli, fig5_file):
    code, stdout, _ = cli("learn", "--teacher", f"fdfa:{fig5_file}")
    assert code == 0
    assert stdout.startswith("leading=1 progress_total=4 ")


def test_cmd_learn_bad_teacher(cli):
    assert cli("learn", "--teacher", "nope")[0] == 2


def test_cmd_learn_iteration_cap(cli, fig1_file, monkeypatch):
    monkeypatch.setattr(learn, "MAX_ITERATIONS", 1)
    assert cli("learn", "--teacher", f"dba:{fig1_file}") == (
        4, "", "error: no convergence within 1 iterations\n")


def test_cmd_learn_dba_teacher_exits_4_at_the_profile_cap(cli, tmp_path):
    # the DBA teacher builds the canonical limit FDFA of its DBA before the
    # first query, and on gen_random_dba(101, 7, 3) that build exceeds the
    # profile cap, so learn refuses without asking anything
    src = _write(tmp_path, "capped.aut",
                 format_automaton(gen_random_dba(101, 7, 3)))
    log = tmp_path / "queries.log"
    assert cli("learn", "--teacher", f"dba:{src}", "--log", str(log)) == (
        4, "", "error: profile DFA exceeded cap of 200000 states\n")
    assert not log.exists()


@pytest.mark.parametrize("seed", [2061, 2115])
def test_learned_family_is_decided_recognizable(cli, tmp_path, seed):
    # learn once wrote these DBAs' learned progress DFAs, which differ from
    # the canonical ones on periods that leave their leading state, under
    # flavor: limit, and decide answered no
    src = tmp_path / "ref.aut"
    src.write_text(format_automaton(gen_random_dba(seed, 3, 2)))
    out = tmp_path / "learned.fdfa"
    assert cli("learn", "--teacher", f"dba:{src}", "--out", str(out))[0] == 0
    code, stdout, _ = cli("decide", str(out))
    assert code == 0 and "recognizable: yes" in stdout


def test_cmd_learn_saturation_check_exits_4_at_the_profile_cap(
        cli, tmp_path, monkeypatch):
    # the split family's leading DFA is not the residual quotient, so the
    # last equivalence query runs the saturation check
    split = _write(tmp_path, "split.fdfa", format_fdfa(split_fig1_periodic()))
    assert cli("learn", "--teacher", f"fdfa:{split}")[0] == 0
    monkeypatch.setattr(congruence, "PROFILE_CAP", 3)
    code, _, err = cli("learn", "--teacher", f"fdfa:{split}")
    assert code == 4
    assert err == "error: saturation check exceeded cap of 3 states\n"


def test_cmd_bench_ln(cli):
    code, out, _ = cli("bench-ln", "--max-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tflavor\tleading\tprogress_total\ttotal\tmillis"
    assert len(lines) == 1 + 2 * 4
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert row["n"] == "1" and row["leading"] == "3"


def test_cmd_bench_ln_validates_range(cli):
    for max_n in ("0", "13"):
        assert cli("bench-ln", "--max-n", max_n) == (
            2, "", "error: --max-n must be between 1 and 12\n")
    assert cli("bench-ln", "--flavors", "limit,nope") == (
        2, "", "error: unknown flavor 'nope'\n")


def test_cmd_accepts_dba(cli, fig1_file):
    assert cli("accepts", fig1_file, "a", "a")[1].strip() == "member"
    assert cli("accepts", fig1_file, "-", "b")[1].strip() == "non-member"
    assert cli("accepts", fig1_file, "aa", "b")[1].strip() == "non-member"


def test_cmd_accepts_fdfa(cli, fig1_fdfa_file, fig5_file):
    assert cli("accepts", fig1_fdfa_file, "aa", "b")[1].strip() == "non-member"
    assert cli("accepts", fig1_fdfa_file, "a", "b")[1].strip() == "member"
    assert cli("accepts", fig5_file, "-", "2")[1].strip() == "member"


def test_cmd_accepts_rejects_empty_period(cli, fig1_file, tmp_path):
    refusal = (2, "", "error: the period must be nonempty\n")
    assert cli("accepts", fig1_file, "a", "") == refusal
    # refused before the file is read
    assert cli("accepts", str(tmp_path / "missing.aut"), "a", "") == refusal


def test_cmd_accepts_rejects_plain_dfa(cli, tmp_path):
    path = _write(tmp_path, "plain.dfa",
                  "alphabet: a\nstates: 1\ninitial: 0\nacceptance: finals\n"
                  "trans: 0 a 0\nfinals: 0\n")
    assert cli("accepts", path, "a", "a")[0] == 2


# a limit FDFA over {a} whose one progress DFA accepts a^omega
A_OMEGA = ("fdfa\nflavor: limit\nleading\nalphabet: a\nstates: 1\ninitial: 0\n"
           "trans: 0 a 0\nprogress 0\nstates: 1\ninitial: 0\ntrans: 0 a 0\n"
           "finals: 0\n")


def test_cmd_accepts_well_formed_fdfa(cli, tmp_path):
    path = _write(tmp_path, "ok.fdfa", A_OMEGA)
    assert cli("accepts", path, "-", "a")[:2] == (0, "member\n")
    assert cli("decide", path)[0] == 0


@pytest.mark.parametrize("text, message", [
    (A_OMEGA + "progress 0\nstates: 1\ninitial: 0\nacceptance: buchi\n"
     "trans: 0 a 0 acc\n", "repeated progress block 0"),
    (A_OMEGA.replace("progress 0\n", "progress 0\nacceptance: finals\n"),
     "acceptance line"),
    (A_OMEGA.replace("trans: 0 a 0\nfinals", "trans: 0 a 0 acc\nfinals"),
     "acc marks"),
    (A_OMEGA.replace("trans: 0 a 0\nprogress", "trans: 0 a 0 acc\nprogress"),
     "acc marks"),
    # a progress block with no transitions gets a sink, state 1
    (A_OMEGA.replace("trans: 0 a 0\nfinals: 0\n", "finals: 1\n"),
     "final state out of range"),
    (A_OMEGA.replace("finals: 0\n", "finals: 0 3\n"),
     "final state out of range"),
    (A_OMEGA + "finals:\n", "repeated field"),
    # a partial leading block would get a sink with no progress block
    (A_OMEGA.replace("alphabet: a\n", "alphabet: a b\n"),
     "the leading block must be total: state 0 has no transition on 'b'"),
])
def test_malformed_fdfa_exits_2(cli, tmp_path, text, message):
    path = _write(tmp_path, "bad.fdfa", text)
    for argv in (("accepts", path, "-", "a"), ("decide", path)):
        code, out, err = cli(*argv)
        assert (code, out) == (2, "")
        assert message in err


ONE_STATE = "alphabet: a b\nstates: 1\ninitial: 0\n"


@pytest.mark.parametrize("argv, text", [
    # a DBA with one line written twice must not read as an NBA
    (("canon",), ONE_STATE + "acceptance: buchi\ntrans: 0 a 0 acc\n"
     "trans: 0 b 0\ntrans: 0 a 0 acc\n"),
    # nor the same repeat as nondeterminism outside buchi
    (("canon",), ONE_STATE + "acceptance: cobuchi\ntrans: 0 a 0 acc\n"
     "trans: 0 b 0\ntrans: 0 a 0 acc\n"),
    # nor an unmarked and a marked copy as one accepting edge
    (("accepts", "-", "a"), ONE_STATE + "acceptance: buchi\n"
     "trans: 0 a 0\ntrans: 0 a 0 acc\n"),
])
def test_repeated_transition_exits_2(cli, tmp_path, argv, text):
    path = _write(tmp_path, "repeat.aut", text)
    code, out, err = cli(argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert "repeated transition 0 a 0" in err


# --------------------------------------------------------------------------
# one parser per process

def _parse_exit(parse, argv, capsys):
    """Run a parse that must exit; returns (exit code, stdout, stderr)."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_build_parser_is_cached():
    assert build_parser() is build_parser()


def test_calls_sharing_the_parser_stay_independent(capsys, fig1_file,
                                                   tmp_path):
    build_parser.cache_clear()
    assert main(["canon", fig1_file]) == 0
    first = capsys.readouterr()
    out = tmp_path / "periodic.fdfa"
    assert main(["canon", fig1_file, "--flavor", "periodic",
                 "--out", str(out)]) == 0
    assert "flavor: periodic" in out.read_text(encoding="utf-8")
    capsys.readouterr()
    argv = ["learn", "--teacher", f"dba:{fig1_file}", "--log"]
    code, _, err = _parse_exit(main, argv, capsys)
    fresh = _parse_exit(build_parser.__wrapped__().parse_args, argv, capsys)
    assert (code, err) == (2, fresh[2])
    # an attribute only `accepts` sets must not reach the next command
    assert main(["accepts", fig1_file, "-", ""]) == 2
    capsys.readouterr()
    assert main(["canon", fig1_file]) == 0
    last = capsys.readouterr()
    assert "flavor: limit" in last.out
    assert (last.out, last.err) == (first.out, first.err)


@pytest.mark.parametrize("argv", [
    ["--help"],
    [],
    ["nope"],
    ["canon", "--help"],
    ["canon", "x", "--flavor", "nope"],
    ["decide", "--help"],
    ["decide"],
    ["translate", "--help"],
    ["translate", "x"],
    ["learn", "--help"],
    ["learn", "--teacher", "dba:x", "--log"],
    ["bench-ln", "--help"],
    ["bench-ln", "--max-n", "two"],
    ["accepts", "--help"],
    ["accepts", "x", "a"],
])
def test_cached_parser_prints_like_a_fresh_one(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    cached = _parse_exit(main, argv, capsys)
    fresh = _parse_exit(build_parser.__wrapped__().parse_args, argv, capsys)
    assert cached == fresh
    assert cached[0] == (0 if "--help" in argv else 2)


def test_learn_help_names_the_saturation_precondition(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _parse_exit(main, ["learn", "--help"], capsys)
    assert code == 0 and "must be saturated" in " ".join(out.split())


def _run_cli_under_hash_seed(seed, workdir):
    """Run canon in every flavor, decide, translate to each target and learn
    on workdir/ref.aut, each in its own interpreter under PYTHONHASHSEED=
    seed; returns every command's exit code, stdout and stderr, and every
    file the commands wrote."""
    src = str(pathlib.Path(congruence.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    commands = [["canon", "ref.aut", "--flavor", flavor, "--out",
                 f"{flavor}.fdfa"] for flavor in FLAVORS]
    commands += [["decide", "limit.fdfa"]]
    commands += [["translate", "limit.fdfa", "--to", to]
                 for to in ("nba", "ldba", "dba")]
    commands += [["learn", "--teacher", "dba:ref.aut", "--out",
                  "learned.fdfa", "--log", "learned.log"]]
    outputs = {}
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "omega_fdfa.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True)
        outputs[" ".join(argv)] = done.returncode, done.stdout, done.stderr
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_text(encoding="utf-8")
    return outputs


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Set and dict orders of strings change with PYTHONHASHSEED; no output
    may, here over letters longer than one character.  Seeds 0 and 1 happen
    to iterate {req, ack, nak} in the same order, and seed 2 does not."""
    d = gen_random_dba(1, 5, 3)
    d = replace(d, ts=replace(d.ts, alphabet=Alphabet(("req", "ack", "nak"))))
    runs = []
    for seed in (0, 1, 2):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        (workdir / "ref.aut").write_text(format_automaton(d), encoding="utf-8")
        runs.append(_run_cli_under_hash_seed(seed, workdir))
    # canon, decide, translate --to nba and ldba, and learn succeed; the
    # limit family is not sink-final-only, so --to dba refuses it
    codes = [out[0] for out in runs[0].values() if isinstance(out, tuple)]
    assert codes == [0] * 7 + [2, 0]
    assert len(runs[0]) == 16 and "req.ack" in runs[0]["learned.log"]
    assert runs[0] == runs[1] == runs[2]
