import pytest

from ccakit import fgroup


@pytest.fixture
def closure_calls(monkeypatch):
    """Arguments of every `fgroup.closure` call made while the test runs.

    Wraps the module attribute, which is what every listing calls and what
    the benchmark tracer's `fgroup.elements` span wraps.
    """
    calls = []
    closure = fgroup.closure

    def counting(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(fgroup, "closure", counting)
    return calls
