"""One pass of one benchmark workload, in a fresh process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py WORKLOAD --seed N [--setup-only] [--trace SPANS_FILE]

The pass imports ``realred`` and builds one inner-class context per
input (``setup_s``), then runs the workload's queries once, one after
another (``query_s``).  Both are wall times corrected for the host's
speed (see ``timed``).  The last line of standard output is a JSON
object with those times, the uncorrected ones, the process's peak
resident memory and the outcome of every op: its output counts, or the
name of the exception it raised.  ``run.py`` checks the outcomes
against ``expected.json``.

The seed only shuffles the order of the inputs within the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# (Lie type, inner-class letters); every input is simply connected ("sc")
# unless the workload also lists the adjoint quotient ("ad").
WORKLOADS = {
    "structure": {
        "groups": [("D6", "s"), ("E6", "c"), ("D7", "s")],
        "kernels": ("sc",),
    },
    "kgb": {
        "groups": [("E6", "s"), ("D6", "s")],
        "kernels": ("sc",),
    },
    "realweyl": {
        "groups": [("B4", "s"), ("C4", "s"), ("F4", "s")],
        "kernels": ("sc",),
    },
    "catalog": {
        "groups": [
            ("A1", "c"), ("A1", "s"), ("A2", "c"), ("A2", "s"),
            ("A3", "c"), ("A3", "s"), ("A4", "c"), ("A4", "s"),
            ("B2", "s"), ("B3", "s"), ("B4", "s"), ("C3", "s"), ("C4", "s"),
            ("D4", "s"), ("D4", "u"), ("G2", "s"), ("F4", "s"),
            ("A1.A1", "ss"), ("A1.A1", "C"), ("A2.A2", "C"),
            ("A1.T1", "ss"), ("A1.T1", "sc"), ("A3.T1", "ss"),
            ("A2.T1", "sc"), ("T2", "C"),
        ],
        "kernels": ("sc", "ad"),
    },
}


def inputs(workload: str, seed: int) -> list[tuple[str, str, str]]:
    """The workload's (type, letters, kernel) inputs in seeded order."""
    spec = WORKLOADS[workload]
    out = [
        (text, letters, kernel)
        for text, letters in spec["groups"]
        for kernel in spec["kernels"]
    ]
    random.Random(seed).shuffle(out)
    return out


# -- ops: each yields (op name, thunk returning the op's output counts) ------


def _classes(ic) -> list[int]:
    table = ic.table
    canon = [table.canonical_member(c) for c in range(len(table.classes))]
    return [len(table), len(table.classes), sum(table.lengths[i] for i in canon)]


def _report(cartan, ic, form: int) -> list[int]:
    lines = cartan.format_cartan_report(ic, form)
    return [len(lines), sum(len(line) for line in lines)]


def _hasse(cartan, ic, form: int) -> list[int]:
    h = cartan.cartan_hasse(ic, form)
    return [len(h.nodes), len(h.edges), len(h.most_split)]


def _kgb(kgb, ic, form: int) -> list[int]:
    g = kgb.generate_kgb(ic, form)
    return [
        g.size,
        max(e.length for e in g.elements),
        sum(t is not None for e in g.elements for t in e.cayley),
    ]


def _real_weyl(cartan, ic, form: int, c: int) -> list[int]:
    dec = cartan.real_weyl(ic, form, c)
    return [dec.order, dec.a_rank]


def structure_ops(rr, ic):
    yield "classes", lambda: _classes(ic)
    yield "real_forms", lambda: [len(ic.real_forms)]
    yield "strong_count", lambda: [ic.strong_count()]
    for f in range(len(ic.real_forms)):
        yield f"cartan_report {f}", lambda f=f: _report(rr.cartan, ic, f)
        yield f"cartan_hasse {f}", lambda f=f: _hasse(rr.cartan, ic, f)


def kgb_ops(rr, ic):
    yield "real_forms", lambda: [len(ic.real_forms)]
    for f in range(len(ic.real_forms)):
        yield f"kgb {f}", lambda f=f: _kgb(rr.kgb, ic, f)


def realweyl_ops(rr, ic):
    yield "real_forms", lambda: [len(ic.real_forms)]
    for f in range(len(ic.real_forms)):
        yield f"form_cartans {f}", lambda f=f: [len(ic.form_cartans(f))]
        for c in ic.form_cartans(f):
            yield f"real_weyl {f} {c}", lambda f=f, c=c: _real_weyl(rr.cartan, ic, f, c)


def catalog_ops(rr, ic):
    yield "real_forms", lambda: [len(ic.real_forms)]
    yield "strong_count", lambda: [ic.strong_count()]
    for f in range(len(ic.real_forms)):
        yield f"cartan_report {f}", lambda f=f: _report(rr.cartan, ic, f)
        yield f"cartan_hasse {f}", lambda f=f: _hasse(rr.cartan, ic, f)
        yield f"kgb {f}", lambda f=f: _kgb(rr.kgb, ic, f)


OPS = {
    "structure": structure_ops,
    "kgb": kgb_ops,
    "realweyl": realweyl_ops,
    "catalog": catalog_ops,
}


# -- host speed -------------------------------------------------------------------

# On a host shared with other tenants, the same pure-Python work runs up
# to 1.6 times slower for stretches of 10-60 s.  A fixed reference burst,
# timed right before a phase, once a second during it and right after
# it, measures that speed; the phase's time is scaled to a host on which
# one burst takes REFERENCE_S.  The burst does what realred's hot loops
# do: products of small integer tuple matrices, hashed into a dict.
REFERENCE_S = 0.03
SAMPLE_EVERY_S = 1.0
_M = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(6)) for i in range(6))


def _burst() -> float:
    t0 = time.perf_counter()
    m, seen = _M, {}
    for _ in range(500):
        cols = tuple(zip(*m))
        m = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 7 for col in cols) for row in _M)
        seen[m] = True
    return time.perf_counter() - t0


def timed(fn, sample: bool = True):
    """(corrected seconds, wall seconds, result) of fn().

    Wall seconds exclude the bursts taken during the call.  With
    sample=False (the traced pass) no burst is taken and both times are
    the plain wall time.
    """
    if not sample:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        return wall, wall, result
    inside: list[float] = []
    before = _burst()
    old = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(_burst()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    wall = t1 - t0 - sum(inside)
    burst_s = statistics.mean([before, *inside, _burst()])
    return wall * REFERENCE_S / burst_s, wall, result


# -- the pass -----------------------------------------------------------------


class Realred:
    """The realred modules the pass calls, imported inside the timed setup."""

    def __init__(self):
        from realred import cartan, involution, kgb, lin, rootdata, weyl

        self.lin, self.rootdata, self.weyl = lin, rootdata, weyl
        self.involution, self.cartan, self.kgb = involution, cartan, kgb


def build_context(rr, text: str, letters: str, kernel: str):
    """parse_lie_type, build_root_datum, then inner_class (the table)."""
    rd_mod = rr.rootdata
    lt = rd_mod.parse_lie_type(text)
    gens = [] if kernel == "sc" else rd_mod.adjoint_generators(rd_mod.center_structure(lt))
    rd = rd_mod.build_root_datum(lt, gens)
    return rr.involution.inner_class(letters, rd, lt)


def run_ops(workload: str, rr, contexts, tracer) -> dict:
    """Runs every op of every context in order; returns op key -> outcome."""
    outcomes: dict[str, object] = {}
    for label, ic in contexts:
        try:
            for name, thunk in OPS[workload](rr, ic):
                key = f"{label}|{name}"
                try:
                    with tracer.op(key):
                        outcomes[key] = thunk()
                except Exception as exc:  # a failed op is counted, not fatal
                    outcomes[key] = {"raises": type(exc).__name__}
        except Exception as exc:  # listing the ops needs a query too
            outcomes[f"{label}|ops"] = {"raises": type(exc).__name__}
    return outcomes


class NoTracer:
    """Stands in for layers.Tracer when the pass is not traced."""

    def op(self, key: str):
        return contextlib.nullcontext()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, metavar="SPANS_FILE",
                    help="trace the pass and write its spans to this file")
    args = ap.parse_args()
    if not __debug__:
        print("run without python -O: realred's asserts are part of the checks",
              file=sys.stderr)
        return 2

    order = inputs(args.workload, args.seed)
    tracer = NoTracer()
    if args.trace:
        import layers

        tracer = layers.Tracer()

    def setup():
        rr = Realred()
        if args.trace:
            tracer.install(rr)
        contexts = []
        for text, letters, kernel in order:
            label = f"{text} {letters} {kernel}"
            with tracer.op(f"{label}|setup"):
                contexts.append((label, build_context(rr, text, letters, kernel)))
        return rr, contexts

    sample = not args.trace
    setup_s, setup_wall_s, (rr, contexts) = timed(setup, sample)
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if not args.setup_only:
        query_s, query_wall_s, result["ops"] = timed(
            lambda: run_ops(args.workload, rr, contexts, tracer), sample)
        result["query_s"], result["query_wall_s"] = query_s, query_wall_s
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            result["layers"] = tracer.metrics(rr)
            tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
