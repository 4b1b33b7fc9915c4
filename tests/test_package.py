import os
import subprocess
import sys

import pytest

import cayleynav
from cayleynav import abwords, bfs, compression, core, euclid, formats, modp, normalform
from cayleynav.rowreduce import RowReducer

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
        (core, "mat_z_mod"),
        (RowReducer, "clear_diagonal"),
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


SRC = os.path.dirname(os.path.dirname(cayleynav.__file__))


def fresh(code: str, *args: str, stdin: str = "") -> str:
    """stdout of code run in a new interpreter without site, on this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        input=stdin, env=env, capture_output=True, text=True, check=True,
    ).stdout


LOADED = "' '.join(sorted(m for m in sys.modules if m.startswith('cayleynav.') or m == 'json'))"


def test_import_loads_only_the_errors_submodule():
    out = fresh(f"import sys, cayleynav; print({LOADED})")
    assert out.split() == ["cayleynav.errors"]


@pytest.mark.parametrize(
    "argv, stdin, used, unused",
    [
        (
            ["bfs-diameter", "3", "2"],
            "",
            {"bfs"},
            {"normalform", "modp", "euclid", "abwords", "rowreduce", "compression", "formats"},
        ),
        (["compress", "3", "1", "2", "100"], "", {"compression"}, {"bfs", "modp", "normalform"}),
        (["reduce-modp", "-"], "3 7\n1 1 0\n0 1 0\n0 0 1\n", {"modp"}, {"bfs", "normalform"}),
        (["zeckendorf", "100"], "", {"fibonacci"}, {"core"}),
    ],
)
def test_cli_subcommand_loads_only_what_it_uses(argv, stdin, used, unused):
    # the loaded modules go last on stdout, after the subcommand's own output
    code = f"import sys; from cayleynav.cli import main; main(sys.argv[1:]); print({LOADED})"
    loaded = set(fresh(code, *argv, stdin=stdin).splitlines()[-1].split())
    assert "json" not in loaded  # only --json needs it
    assert {f"cayleynav.{name}" for name in used} <= loaded
    assert not {f"cayleynav.{name}" for name in unused} & loaded, sorted(loaded)


def test_namespace_resolves_to_the_submodules_own_objects():
    # a fresh process, so that every first access goes through the package's __getattr__
    code = (
        "import pkgutil, sys, cayleynav\n"
        "subs = sorted(m.name for m in pkgutil.iter_modules(cayleynav.__path__))\n"
        "for name in subs:\n"
        "    assert getattr(cayleynav, name) is sys.modules['cayleynav.' + name], name\n"
        "for name in cayleynav.__all__:\n"
        "    obj = getattr(cayleynav, name)\n"
        # AB and ELEMENTARY are plain strings, which core defines
        "    home = sys.modules[getattr(obj, '__module__', 'cayleynav.core')]\n"
        "    assert getattr(home, name) is obj, name\n"
        "assert set(subs) | set(cayleynav.__all__) <= set(dir(cayleynav))\n"
        "print(len(subs))\n"
    )
    assert fresh(code).strip() == "12"
    assert cayleynav.AB is core.AB and cayleynav.ELEMENTARY is core.ELEMENTARY


def test_unknown_names_raise_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'cayleynav' has no attribute 'nope'$"):
        cayleynav.nope
    assert not hasattr(cayleynav, "_word")
    with pytest.raises(ImportError):
        exec("from cayleynav import nope", {})


def test_patched_submodule_function_is_seen_through_the_package(monkeypatch):
    # a tracer wraps functions where their submodule holds them; the package
    # keeps no binding of its own that would miss the wrapper
    original = cayleynav.normal_form_result

    def wrapper(m):
        return original(m)

    monkeypatch.setattr(normalform, "normal_form_result", wrapper)
    assert cayleynav.normal_form_result is wrapper
    monkeypatch.undo()
    assert cayleynav.normal_form_result is original


def test_modp_sees_a_determinant_wrapped_before_it_loads():
    # a tracer wraps core's functions as soon as core is loaded; modp, loaded
    # later by the lazy namespace, must still call through the wrapper
    code = (
        "from cayleynav import core\n"
        "calls = []\n"
        "original = core.determinant_fp\n"
        "core.determinant_fp = lambda m: calls.append(m) or original(m)\n"
        "from cayleynav.modp import word_for_modp\n"
        "word_for_modp(core.MatFp.identity(3, 7))\n"
        "print(len(calls))\n"
    )
    assert fresh(code).strip() == "1"


@pytest.mark.parametrize(
    "call",
    [
        # these two looped forever on a fractional remainder, so every call
        # runs in a child that a timeout ends
        "from cayleynav.fibonacci import zeckendorf; zeckendorf(5.5)",
        "from cayleynav.compression import compress_power; compress_power(3, 1, 2, 100.5)",
        "from cayleynav.compression import compress_power; compress_power(3, 1, 2, 10.5)",
        "from cayleynav.core import MatZ; MatZ.from_rows([[1, 2.7, 0], [0, 1, 0], [0, 0, 1]])",
        "from cayleynav.core import MatZ; MatZ.from_rows([['1', 0, 0], [0, 1, 0], [0, 0, 1]])",
        "from cayleynav.core import MatFp; MatFp.from_rows([[1, 2.7, 0], [0, 1, 0], [0, 0, 1]], 7)",
        "from cayleynav.euclid import subtractive_gcd; subtractive_gcd((5.5, 2))",
        "from fractions import Fraction; from cayleynav.euclid import subtractive_gcd; "
        "subtractive_gcd((Fraction(4), 2))",
        "from cayleynav.euclid import accelerated_reduce; accelerated_reduce((0, 5.5, 2))",
        "from cayleynav.core import Word; from cayleynav.euclid import replay_word_on_tuple; "
        "replay_word_on_tuple(Word(3, ()), (1, 2.5, 3))",
        "from cayleynav.bfs import row_move_distances; row_move_distances([(5.5, 2)], 2, box=8)",
    ],
)
def test_entry_points_take_exact_integers_only(call):
    code = f"try:\n    {call}\nexcept TypeError as exc:\n    print(exc)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True, timeout=20,
    ).stdout
    assert out.strip().endswith("object cannot be interpreted as an integer"), out


NON_INTEGER_CALLS = (
    "compress_power(3, 1.0, 2, 5)",
    "compress_power(3, 1, 2, 20, aux=3.0)",
    "eletter(1, 2, 1.0)",
    "eletter(Fraction(1), 2)",
    "eletter('1', 2)",
    "abletter('A', 1.0)",
    "GenLetter(ELEMENTARY, 1, 1.0, 2)",
    "Word(3.0, ())",
    "eij_ab_word(1, 2, 3.0)",
)


@pytest.mark.parametrize("integers_first", [False, True])
def test_a_non_integer_index_or_exponent_never_reaches_the_letter_cache(integers_first):
    # the letter cache keys on its fields, and 1.0 == 1 hashes alike: a float
    # cached first made every later e(1,2) carry i = 1.0, and an int cached
    # first let the float through; either order must raise TypeError
    code = (
        "from fractions import Fraction\n"
        "from cayleynav.abwords import eij_ab_word\n"
        "from cayleynav.compression import compress_power\n"
        "from cayleynav.core import ELEMENTARY, GenLetter, MatFp, MatZ, Word, abletter, eletter, eval_word_z\n"
        "from cayleynav.formats import word_to_json\n"
        "from cayleynav.modp import word_for_modp\n"
        "from cayleynav.normalform import normal_form\n"
        "def words():\n"
        "    m = MatZ.from_rows([[1, 7, 0], [0, 1, 0], [0, 0, 1]])\n"
        "    w = normal_form(m)\n"
        "    print(w.tokens(), eval_word_z(w) == m)\n"
        "    print(word_to_json(word_for_modp(MatFp.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 7))))\n"
        "    compress_power(3, 1, 2, 5), compress_power(3, 1, 2, 20, aux=3), eletter(1, 2, 1)\n"
        "    abletter('A', 1), Word(3, ()), eij_ab_word(1, 2, 3)\n"
        f"if {integers_first}:\n"
        "    words()\n"
        f"for call in {NON_INTEGER_CALLS!r}:\n"
        "    try:\n"
        "        print('accepted', call, repr(eval(call)))\n"
        "    except TypeError as exc:\n"
        "        print(type(exc).__name__)\n"
        "words()\n"
    )
    lines = fresh(code).splitlines()
    assert lines[-len(NON_INTEGER_CALLS) - 2 : -2] == ["TypeError"] * len(NON_INTEGER_CALLS)
    assert lines[-2:] == [
        " ".join(["e(1,2)"] * 7) + " True",
        "{'n': 3, 'alphabet': 'elementary', 'letters': [{'i': 1, 'j': 2, 'e': 1}]}",
    ]
