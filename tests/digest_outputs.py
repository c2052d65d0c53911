"""Digests of realred's outputs on a fixed set of contexts.

Each (context, output) pair is hashed with sha256 over the output's
lines; ``tests/data/digests.json`` holds the committed values and
``tests/test_digests.py`` recomputes them.  A change that alters an
output changes its digest, so every such change must be recorded, with
its reason, in CHANGES.md.

``kgb_smith_order`` and ``kgb_reps_smith_order`` digest the KGB listing
and reps renumbered by the Smith-form key of each involution
(``oracles.reference_kgb_order``): the numbering that KGB ids had while
every lattice record took its key rows from its own Smith form.  Their
committed values are the ``kgb`` and ``kgb_reps`` digests of that
numbering, so they show that moving to transported key rows only
renumbered KGB.

Regenerate the committed values, from the repository root, with::

    PYTHONPATH=src python tests/digest_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from realred.cartan import (
    cartan_hasse,
    format_cartan_report,
    format_real_weyl,
    real_weyl,
)
from realred.forms import format_real_form_menu, format_strong_real
from realred.kgb import format_kgb, generate_kgb

from contexts import context
from oracles import reference_kgb_order

DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"

GROUPS = [
    ("A1", "c"), ("A1", "s"), ("A2", "c"), ("A2", "s"),
    ("A3", "c"), ("A3", "s"), ("A4", "c"), ("A4", "s"),
    ("B2", "s"), ("B3", "s"), ("B4", "s"), ("C3", "s"), ("C4", "s"),
    ("D4", "s"), ("D4", "u"), ("G2", "s"), ("F4", "s"),
    ("A1.A1", "ss"), ("A1.A1", "C"), ("A2.A2", "C"),
    ("A1.T1", "ss"), ("A1.T1", "sc"), ("A3.T1", "ss"),
    ("A2.T1", "sc"), ("T2", "C"),
    ("D5", "s"), ("D6", "s"), ("E6", "s"), ("E6", "c"),
]

# intermediate quotients, by one kernel generator in the fractions that
# parse_kernel_generator reads
QUOTIENTS = [
    ("A3", "s", "1/2"), ("A3", "c", "1/2"),
    ("D4", "s", "1/2,0"), ("D4", "s", "1/2,1/2"),
    ("A5", "s", "1/3"), ("A5", "c", "1/2"),
    ("D5", "s", "1/2"),
    ("D6", "s", "1/2,0"), ("D6", "s", "1/2,1/2"),
    ("A1.A1", "ss", "1/2,1/2"),
]

# (type, letters, kernel) of every digested context; all have rank at
# most 6, so their KGB listings are cheap enough to digest
CONTEXTS = [
    (text, letters, kernel) for text, letters in GROUPS for kernel in ("sc", "ad")
] + QUOTIENTS


def label(text: str, letters: str, kernel: str) -> str:
    return f"{text} {letters} {kernel}"


def outputs(ic) -> dict[str, list[str]]:
    """Every digested output of one context, as lines of text."""
    forms = range(len(ic.real_forms))
    cartans = range(len(ic.table.classes))
    kgbs = [generate_kgb(ic, f) for f in forms]
    smith = [reference_kgb_order(ic, g) for g in kgbs]
    return {
        "menu": format_real_form_menu(ic),
        "reps": [repr(f) for f in ic.real_forms],
        "strong_real_forms": [
            line for c in cartans
            for line in [f"Cartan #{c}:", *format_strong_real(ic.strong_real_forms_at(c))]
        ],
        "cartan_orbits": [repr(o) for c in cartans for o in ic.cartan_orbits(c)],
        "cartan_reports": [
            line for f in forms for line in [f"form #{f}:", *format_cartan_report(ic, f)]
        ],
        "hasse": [repr(cartan_hasse(ic, f)) for f in forms],
        "component_rank": [str(ic.component_rank(f)) for f in forms],
        "real_weyl": [
            line for f in forms for c in ic.form_cartans(f)
            for line in [f"form #{f}, Cartan #{c}:", *format_real_weyl(real_weyl(ic, f, c))]
        ],
        "kgb": kgb_lines(kgbs),
        "kgb_reps": [repr(e.rep) for g in kgbs for e in g.elements],
        "kgb_smith_order": kgb_lines(smith),
        "kgb_reps_smith_order": [repr(e.rep) for g in smith for e in g.elements],
    }


def kgb_lines(kgbs) -> list[str]:
    return [line for g in kgbs for line in [f"form #{g.form}:", *format_kgb(g)]]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(ic) -> dict[str, str]:
    return {name: digest(lines) for name, lines in outputs(ic).items()}


def main() -> int:
    table = {label(*ctx): digests(context(*ctx)) for ctx in CONTEXTS}
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests of {len(table)} contexts to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
