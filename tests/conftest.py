import contextlib
import signal

import pytest

from ccakit import fgroup, higman, permcore


@pytest.fixture
def closure_calls(monkeypatch):
    """Arguments of every `fgroup.closure` call made while the test runs,
    each as the pair (args, kwargs).

    Wraps the module attribute, which is what every listing calls and what
    the benchmark tracer's `fgroup.elements` span wraps.
    """
    calls = []
    closure = fgroup.closure

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return closure(*args, **kwargs)

    monkeypatch.setattr(fgroup, "closure", counting)
    return calls


@pytest.fixture
def chains_built(monkeypatch):
    """The arguments of every StabilizerChain construction while the test
    runs, each as the pair (args, kwargs)."""
    built = []
    init = permcore.StabilizerChain.__init__

    def counting(self, *args, **kwargs):
        built.append((args, kwargs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(permcore.StabilizerChain, "__init__", counting)
    return built


@pytest.fixture
def left_row_calls(monkeypatch):
    """The element of every `left_row` call made while the test runs, in
    call order: the rows computed directly rather than derived.

    Wraps `FiniteGroup.left_row` and the permutation and Higman groups'
    own.  A permutation group with a long base hands its call on to
    `FiniteGroup.left_row`, so only the outermost call is recorded.
    """
    calls = []
    depth = [0]
    for cls in (fgroup.FiniteGroup, permcore.PermutationGroup,
                higman.HigmanGroup):
        def counting(group, s, left_row=vars(cls)["left_row"]):
            if not depth[0]:
                calls.append(s)
            depth[0] += 1
            try:
                return left_row(group, s)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "left_row", counting)
    return calls


@pytest.fixture
def time_limit():
    """time_limit(seconds) is a context manager whose block raises
    TimeoutError once it has run for that many whole seconds (SIGALRM, so
    the block runs in the main thread)."""
    @contextlib.contextmanager
    def limit(seconds):
        def out_of_time(signum, frame):
            raise TimeoutError(f"the block ran past its {seconds} s limit")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return limit
