"""Exact-arithmetic toolkit for charge-discharging finite automata.

The one ``Automaton`` type (a DFA, optionally with an output map and
discharge rules) lives in ``automata``; charge runs and their reduced forms
in ``discharge``; derived number sequences and their closed forms in
``sequences``; menu-based relation verification, search, and kernel
evidence in ``regularity``; the JSON file format in ``documents``; and the
command line in ``cli``.
"""

from .automata import (
    Automaton,
    ValidationReport,
    base_k_word,
    build_tm_dfa,
    build_tm_dfao,
    delta_star,
    dfao_output,
    parse_word,
    to_dot,
    validate_dfa,
)
from .discharge import (
    ChargeResult,
    DischargeRuleSet,
    ReducedResult,
    build_fr_ddfao,
    build_tm_ddfa,
    charge_step,
    charge_trajectory,
    degenerate_ddfa,
    delta_c,
    equal_split_rules,
    reduce_charge,
    validate_rules,
)
from .documents import (
    AutomatonDocument,
    DocumentError,
    corpus_path,
    parse_document,
    parse_spec_document,
    serialize_document,
    serialize_spec_document,
)
from .regularity import (
    AffineCombination,
    KernelReport,
    MissingMenuError,
    QuasiRegularitySpec,
    RelationMenu,
    RelationTerm,
    SearchResult,
    Sequence,
    SpecError,
    VerificationReport,
    describe_combination,
    k_kernel,
    search_relation_menus,
    validate_spec,
    verify_quasi_k_regular,
)
from .sequences import (
    a131271_triangle,
    a_recursion,
    b_file_text,
    builtin_sequence,
    charge_b_file_text,
    charge_sequence,
    d_shape_closed_form,
    e_sequence,
    scaled_charge_sequence,
    modified_b_sequence,
    read_b_file,
    thue_morse,
)

__version__ = "0.1.0"
