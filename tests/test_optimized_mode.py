"""Results must not depend on assert statements, which python -O strips.

Also checks what the library imports, that its packaging resolves, and
that the test modules share code only through contexts and oracles."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from realred.cartan import cartan_hasse, format_cartan_report, format_real_weyl, real_weyl
from realred.forms import format_real_form_menu
from realred.kgb import format_kgb, generate_kgb

from contexts import context

SRC = Path(__file__).resolve().parents[1] / "src" / "realred"

GROUPS = [
    ("B3", "s", None), ("A3", "c", "ad"), ("A3", "c", None), ("B4", "s", "ad"),
    ("D4", "s", "ad"), ("D5", "s", None),
]


def report(text, letters, kernel):
    """Real form menu, then the Cartan report, Cayley graph, component
    rank, real Weyl groups and KGB of every form."""
    ic = context(text, letters, kernel)
    lines = list(format_real_form_menu(ic))
    for form in range(len(ic.real_forms)):
        lines.extend(format_cartan_report(ic, form))
        lines.append(repr(cartan_hasse(ic, form)))
        lines.append(f"component rank {ic.component_rank(form)}")
        for c in ic.form_cartans(form):
            lines.extend(format_real_weyl(real_weyl(ic, form, c)))
        lines.extend(format_kgb(generate_kgb(ic, form)))
    return lines


def run_optimized(script):
    """stdout lines of script run by python -O, with src and tests importable."""
    return run_script(script, "-O")


def run_script(script, *options):
    """stdout lines of script run by python with options, src and tests importable."""
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, *options, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return run.stdout.splitlines()


def test_results_are_the_same_under_python_o():
    script = (
        "from test_optimized_mode import GROUPS, report\n"
        "print(__debug__)\n"
        "for g in GROUPS:\n"
        "    print('\\n'.join(report(*g)))\n"
    )
    expected = ["False"] + [line for g in GROUPS for line in report(*g)]
    assert run_optimized(script) == expected


def test_canonical_walk_failure_raises_under_python_o():
    script = (
        "from contexts import walk_from_corrupted_row\n"
        "print(__debug__)\n"
        "try:\n"
        "    walk_from_corrupted_row()\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    assert run_optimized(script) == ["False", "simple root 1 is not complex at involution 1"]


def test_class_checks_raise_under_python_o():
    script = (
        "from contexts import classes_from_walk_to_base\n"
        "print(__debug__)\n"
        "try:\n"
        "    classes_from_walk_to_base()\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    assert run_optimized(script) == ["False", "the canonical walk from 1 leaves its class"]


def test_fiber_square_check_raises_under_python_o():
    script = (
        "from contexts import fiber_from_corrupted_plus\n"
        "print(__debug__)\n"
        "try:\n"
        "    fiber_from_corrupted_plus()\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    assert run_optimized(script) == ["False", "fiber element squares outside its square class"]


def test_descent_checks_raise_under_python_o():
    script = (
        "from contexts import descent_from_a_point_off_every_fiber\n"
        "from contexts import descent_through_a_compact_candidate\n"
        "print(__debug__)\n"
        "for descend in (descent_from_a_point_off_every_fiber,\n"
        "                descent_through_a_compact_candidate):\n"
        "    try:\n"
        "        descend()\n"
        "    except RuntimeError as e:\n"
        "        print(e)\n"
    )
    assert run_optimized(script) == [
        "False", "strong involution admits no descent", "an inverse Cayley candidate is compact",
    ]


def test_malformed_strong_involutions_raise_under_python_o():
    # cross, cayley and x_key check their input without assert statements;
    # x_key checks an id it has no record for in lattice
    script = (
        "from contexts import context\n"
        "from realred.rootdata import InputError\n"
        "ic = context('A3', 'c')\n"
        "print(__debug__)\n"
        "reads = (lambda x: ic.cross(0, x), lambda x: ic.cayley(0, x), ic.x_key)\n"
        "for read, x in [(r, (0, (4, 0, 0, 1))) for r in reads] + [\n"
        "        (r, (-1, (2, 0, 0))) for r in reads] + [(reads[2], ('a', (2, 0, 0)))]:\n"
        "    try:\n"
        "        print(read(x))\n"
        "    except InputError as e:\n"
        "        print(str(e).split(': ')[1])\n"
    )
    strong = "there are 10 involutions, and torus parts have 3 entries"
    assert run_optimized(script) == [
        "False", strong, strong, "torus parts have 3 entries", strong, strong,
        "there are 10 involutions", "there are 10 involutions",
    ]


def test_bool_ids_are_refused_under_python_o():
    # lattice refuses a bool id on every call, also once the record of the
    # int it equals is built, without an assert statement
    script = (
        "from contexts import context\n"
        "from realred.rootdata import InputError\n"
        "ic = context('A3', 'c')\n"
        "print(__debug__)\n"
        "for build in (False, True):\n"
        "    if build:\n"
        "        ic.lattice(1)\n"
        "    for x in ((True, (4, 0, 0)), (False, (4, 0, 0))):\n"
        "        try:\n"
        "            print(ic.x_key(x))\n"
        "        except InputError as e:\n"
        "            print(e)\n"
    )
    refused = ["no involution True: there are 10 involutions",
               "no involution False: there are 10 involutions"]
    assert run_optimized(script) == ["False"] + refused + refused


def test_smith_form_progress_check_raises_under_python_o():
    script = (
        "from contexts import smith_form_with_a_pivot_of_two\n"
        "print(__debug__)\n"
        "try:\n"
        "    smith_form_with_a_pivot_of_two()\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    assert run_optimized(script) == ["False", "smith_form made no progress at pivot position 0"]


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_modules_stay_under_4096_parser_tokens():
    """Each library module has fewer than 4,096 tokens for the parser:
    every token but comments and NL.

    python -B compiles each module on every benchmark pass, and the
    largest compile sets a pass's peak RSS.  CPython's parser doubles its
    token array when it fills, allocating a token for every new slot, so
    a module's compile peak steps up past 4,096 and 8,192 tokens:
    rootdata.py compiled with a 1.36 MiB tracemalloc peak at 4,084 tokens
    and 1.70 MiB at 4,514, and involution.py with 2.69 MiB at 7,857 and
    3.23 MiB at 8,212.  Split by concept, involution.py (8,116 tokens,
    2.77 MiB) became involution.py, lattice.py, squares.py, fiber.py and
    forms.py, weyl.py (4,804, 1.79 MiB) gave delta.py its inner-class
    involution, and rootdata.py (4,514, 1.70 MiB) gave diagram.py its
    Dynkin diagrams.  Then the largest module was rootdata.py at 3,849
    tokens (1.29 MiB), and the realweyl workload's peak RSS fell from
    18.66 to 17.90 MiB, the medians of ten alternating pairs of fresh
    passes; three more such runs read 18.65-18.71 against 17.90-17.93.
    Comments and docstrings cost one token or none, so only code moves
    the count.
    """
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as f:
            skipped = (tokenize.COMMENT, tokenize.NL)
            counts[path.name] = sum(t.type not in skipped for t in tokenize.tokenize(f.readline))
    assert len(counts) > 10
    assert {name: n for name, n in counts.items() if n >= 4096} == {}


def test_library_imports_no_unused_name():
    # a deletion can strand an import; __future__ imports are directives
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.extend(
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        )
    assert found == []


def test_library_has_no_unreferenced_private_definition():
    # a deletion can strand a private helper that only its callers used
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {
        node.name for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert len(defined) > 40
    assert sorted(defined - used) == []


def imported_modules(path):
    """(line, module) of each module that the file at path imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
        elif isinstance(node, ast.ImportFrom):
            # from . import lin
            yield from ((node.lineno, alias.name) for alias in node.names)


def importers(module):
    """Names of the library files that import module."""
    return [
        path.name for path in sorted(SRC.glob("*.py"))
        for _, name in imported_modules(path) if name == module
    ]


def test_layers_below_the_inner_class_import_no_module_above():
    # InnerClass inherits from the classes of squares, fiber and forms, and
    # reads lattice, delta and diagram: an import of involution, cartan or
    # kgb from those modules, even under TYPE_CHECKING, would be a cycle
    lower = ["delta.py", "diagram.py", "fiber.py", "forms.py", "lattice.py", "squares.py"]
    assert all((SRC / name).exists() for name in lower)
    found = [
        f"{name}:{line} {module}"
        for name in lower
        for line, module in imported_modules(SRC / name)
        if module.split(".")[-1] in ("involution", "cartan", "kgb")
    ]
    assert found == []


def test_library_does_not_import_fractions():
    # kernel generators are (numerator, denominator) pairs, and the
    # lattice code computes with integer numerators only
    assert importers("fractions") == []


def test_library_does_not_import_dataclasses():
    # records are NamedTuples or plain classes: dataclasses imports inspect,
    # ast and dis, and its decorators exec generated code at every import
    assert importers("dataclasses") == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # a subprocess, as pytest itself loads both
    script = (
        "import sys\n"
        "import realred.lin, realred.rootdata, realred.weyl\n"
        "import realred.involution, realred.cartan, realred.kgb\n"
        "print('realred.kgb' in sys.modules)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert run_script(script) == ["True", "[]"]


def test_import_loads_neither_fractions_nor_decimal():
    # fractions loads decimal and numbers, a few ms of every fresh import
    script = (
        "import sys\n"
        "import realred.lin, realred.rootdata, realred.weyl\n"
        "import realred.involution, realred.cartan, realred.kgb\n"
        "print('realred.kgb' in sys.modules)\n"
        "print(sorted({'decimal', 'fractions'} & set(sys.modules)))\n"
    )
    assert run_script(script) == ["True", "[]"]


def test_console_scripts_resolve():
    # an installed script whose module or function is missing fails at start
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_no_test_module_imports_another():
    # tests share code through contexts and oracles, so one test file
    # runs without importing the others
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(Path(__file__).resolve().parent.glob("test_*.py"))
        for line, name in imported_modules(path) if name.startswith("test_")
    ]
    assert found == []
