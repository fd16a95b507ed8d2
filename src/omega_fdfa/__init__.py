"""Canonical families of DFAs (FDFAs) for omega-regular languages:
construction from deterministic Buchi automata, DBA-recognizability
decision, translations to Buchi automata, and active learning."""

from .congruence import (
    LeadingQuotient,
    build_canonical_fdfa,
    compute_leading,
    periodic_lang_dfa,
    progress_dfa,
)
from .core_automata import (
    Alphabet,
    AlphabetError,
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
    dfa_lang_equal,
    dfa_minimize,
    dfa_product,
    member_upword_det,
    member_upword_nba,
    nba_dba_included,
    nba_dba_intersection_witness,
    nba_nba_intersection_witness,
    run_word,
)
from .decide import DecideResult, decide_dba_recognizable
from .fdfa import (
    FLAVORS,
    Fdfa,
    LIMIT,
    PERIODIC,
    RECURRENT,
    SYNTACTIC,
    SinkFinalMissing,
    SizeReport,
    accepts_decomposition,
    accepts_upword,
    complement_finals,
    extract_fb,
    normalize,
    returning_product,
    saturation_witness,
    sink_final_state,
    size_report,
)
from .learn import (
    CounterexampleError,
    DbaTeacher,
    FdfaTeacher,
    LearnLimitExceeded,
    LearnStats,
    QueryLog,
    learn_limit_fdfa,
)
from .translate import Ldba, fdfa_to_dba, fdfa_to_ldba, fdfa_to_nba
from .zoo import (
    gen_fig1,
    gen_fig5_fdfa,
    gen_ln,
    gen_random_dba,
    gen_sigma_star_aa,
)

__all__ = [name for name in dir() if not name.startswith("_")]
