"""The benchmark's tracer can wrap every function it names.

`bench/tracing.py` wraps each TARGETS entry by reading
``vars(owner)[attr]``, so a target that is renamed, moved to another owner
or only inherited breaks every traced benchmark run.  This guard loads the
tracer module from its file (without writing bytecode next to it) and
checks each entry in well under a second.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize(
    "owner, attr", [t[:2] for t in TARGETS],
    ids=[f"{t[0].__name__}.{t[1]}" for t in TARGETS])
def test_target_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)
