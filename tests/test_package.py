from inspect import ismodule

import ddfa

# Every public name of the package, so that an export added or removed shows
# in review. Submodules are left out: importing one (ddfa.cli, say) binds it.
PUBLIC_NAMES = [
    "AffineCombination", "Automaton", "ChargeResult", "DocumentError", "KernelReport",
    "MissingMenuError", "QuasiRegularitySpec", "ReducedResult", "RelationMenu",
    "RelationTerm", "SearchResult", "Sequence", "SpecError", "ValidationReport",
    "VerificationReport", "b_file_text", "build_fr_ddfao", "build_tm_ddfa",
    "build_tm_dfa", "build_tm_dfao", "builtin_sequence", "charge_b_file_text",
    "charge_sequence", "charge_step", "charge_trajectory", "corpus_path", "delta_c",
    "delta_star", "describe_combination", "equal_split_rules", "k_kernel",
    "parse_document", "parse_spec_document", "parse_word", "read_b_file",
    "reduce_charge", "search_relation_menus", "serialize_document",
    "serialize_spec_document", "to_dot", "validate_dfa", "validate_rules",
    "validate_spec", "verify_quasi_k_regular",
]


def test_public_names():
    names = sorted(name for name, value in vars(ddfa).items()
                   if not name.startswith("_") and not ismodule(value))
    assert names == PUBLIC_NAMES
