"""Results must not depend on assert statements, which python -O strips."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from realred.cartan import cartan_hasse, format_cartan_report, format_real_weyl, real_weyl
from realred.involution import format_real_form_menu, inner_class
from realred.kgb import format_kgb, generate_kgb
from realred.rootdata import (
    adjoint_generators,
    build_root_datum,
    center_structure,
    parse_lie_type,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "realred"

GROUPS = [
    ("B3", "s", None), ("A3", "c", "ad"), ("A3", "c", None), ("B4", "s", "ad"),
    ("D4", "s", "ad"), ("D5", "s", None),
]


def report(text, letters, kernel):
    """Real form menu, then the Cartan report, Cayley graph, component
    rank, real Weyl groups and KGB of every form."""
    lt = parse_lie_type(text)
    gens = tuple(adjoint_generators(center_structure(lt))) if kernel == "ad" else ()
    ic = inner_class(letters, build_root_datum(lt, gens), lt)
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
        "from test_weyl import walk_from_corrupted_row\n"
        "print(__debug__)\n"
        "try:\n"
        "    walk_from_corrupted_row()\n"
        "except RuntimeError as e:\n"
        "    print(e)\n"
    )
    assert run_optimized(script) == ["False", "simple root 1 is not complex at involution 1"]


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


def importers(module):
    """Names of the library files that import module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if module in names:
                found.append(path.name)
    return found


def test_only_rootdata_imports_fractions():
    # rootdata reads kernel generators as fractions; the lattice code
    # computes with integer numerators only
    assert importers("fractions") == ["rootdata.py"]


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
