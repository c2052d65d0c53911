"""The benchmark's traced run patches realred by name; those names must exist."""

from __future__ import annotations

import functools
import importlib
import importlib.util
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve():
    layers = load_layers()
    rr = importlib.import_module("realred")
    for mod in layers.MODULES:
        importlib.import_module(f"realred.{mod}")
    for name, mod, cls, attr in layers.TIMED + layers.COUNTED:
        owner = getattr(rr, mod)
        if cls is None:
            assert callable(getattr(owner, attr, None)), name
        else:
            # the tracer replaces members found in the class dictionary
            assert attr in vars(getattr(owner, cls)), name
            # and can wrap only these two kinds: a property would become a function
            member = vars(getattr(owner, cls))[attr]
            assert isinstance(member, (types.FunctionType, functools.cached_property)), name
    assert hasattr(rr.weyl.piece_chain, "cache_info")
    lt = rr.rootdata.parse_lie_type("A1")
    rd = rr.rootdata.build_root_datum(lt, [])
    ic = rr.involution.inner_class("s", rd, lt)
    assert isinstance(ic._fibers, dict)
