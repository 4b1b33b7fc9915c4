import os
import subprocess
import sys

import cayleynav
from cayleynav import abwords, bfs, compression, core, euclid, formats, modp, normalform

PUBLIC = {
    # the pipeline: letters, words, matrices, builders, evaluators, oracles
    "AB",
    "ELEMENTARY",
    "MatFp",
    "MatZ",
    "Word",
    "bfs_diameter",
    "compress_power",
    "eij_ab_word",
    "eletter",
    "eval_word_fp",
    "eval_word_z",
    "normal_form",
    "normal_form_result",
    "rewrite_word_ab",
    "word_for_modp",
    # the error classes
    "BudgetExceededError",
    "CayleyNavError",
    "DomainError",
    "InternalStateError",
    "InvalidGeneratorError",
    "NotInGroupError",
    "ParseError",
    "UnsupportedDimensionError",
}


def test_public_surface():
    assert sorted(cayleynav.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from cayleynav import *", namespace)
    assert PUBLIC <= namespace.keys()
    # wrappers that repeated an engine path, and paths no caller reached,
    # are gone from their modules
    for module, name in (
        (normalform, "column_clear_phase"),
        (normalform, "sign_fix_phase"),
        (normalform, "upper_clear_phase"),
        (modp, "diagonal_clear_gadget"),
        (normalform, "_fix_signs"),
        (modp, "_clear_pair"),
        (compression, "zeckendorf_power_word"),
        (core, "apply_letter"),
        (abwords, "band_word"),
        (abwords, "column_ones_word"),
        (bfs, "bfs_distance_fp"),
        (compression, "fib_power_word"),
        (formats, "word_from_json"),
        (formats, "matrix_from_json"),
        (formats, "matrix_to_json"),
        (formats, "format_matrix_text"),
        (euclid, "EuclidStep"),
        (euclid, "division_steps"),
        (euclid, "aux_index"),
        (abwords, "e1k_ab_word"),
        (compression, "_template"),
        (compression, "_power_letters"),
        (compression, "compress_power_modp"),
        (formats, "format_word_text"),
    ):
        assert not hasattr(module, name), name


def test_import_loads_no_introspection_or_random_modules():
    # a fresh interpreter without site, so that only the package's own imports count
    code = (
        "import sys, cayleynav; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'random'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(cayleynav.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
