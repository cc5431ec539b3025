"""The benchmark's tracer can wrap every function it names, and every
benchmark job kind runs.

`bench/tracing.py` wraps each TARGETS entry by reading
``vars(owner)[attr]``, so a target that is renamed, moved to another owner
or only inherited breaks every traced benchmark run.  This guard loads the
tracer module from its file (without writing bytecode next to it) and
checks each entry in well under a second.  A target answered from a cache
is recorded only while its cache attribute is unset; the guard also checks
that each such predicate reads the attribute the method really sets, that
listing a permutation group still goes through the traced `fgroup.closure`,
and that the benchmark's decisions never call the traced `stab1` or
`aut_pm1`.

`bench/workloads.py` is loaded the same way.  The first job of each kind
in one pass of each workload, drawn at seed 12345, runs through the
benchmark's RUNNERS and passes its CHECKS, so a library change that breaks
a benchmark job path fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ccakit import colourauts, higman, triples
from ccakit import groupzoo as gz
from ccakit.cayley import ConnectionSet, build

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """The module bench/<name>.py, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first, as an import does: dataclasses look the module up
    sys.modules[spec.name] = module
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


TARGETS = load_bench("tracing").TARGETS
WORKLOADS = load_bench("workloads")


@pytest.mark.parametrize(
    "owner, attr", [t[:2] for t in TARGETS],
    ids=[f"{t[0].__name__}.{t[1]}" for t in TARGETS])
def test_target_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)


def small_instance(owner):
    """A fresh instance of a cached target's owner, nothing yet cached."""
    G = gz.symmetric_group(3)
    if owner.__name__ == "ColouredCayleyGraph":
        return build(G, ConnectionSet.from_elements(G, G.involutions()))
    return G


@pytest.mark.parametrize(
    "owner, attr, when", [(t[0], t[1], t[4]) for t in TARGETS if t[4]],
    ids=[f"{t[0].__name__}.{t[1]}" for t in TARGETS if t[4]])
def test_cache_predicate_records_the_first_call_only(owner, attr, when):
    # A predicate that reads a renamed cache attribute stays true, so every
    # cached call would be recorded and inflate the layer's time.
    obj = small_instance(owner)
    assert isinstance(obj, owner)
    assert when((obj,))
    getattr(obj, attr)()
    assert not when((obj,))


def test_permutation_listing_stays_inside_fgroup_closure(closure_calls):
    # The `fgroup.elements` span and its `fgroup.elements_n` count wrap the
    # module attribute; a listing that stopped calling it would drop out.
    assert len(gz.symmetric_group(4).elements()) == 24
    assert len(closure_calls) == 1


def test_decisions_do_not_call_stab1_or_aut_pm1(monkeypatch):
    # The tracer reads `.order` off the result of `colourauts.stab1`, which
    # runs the whole generator search: on the PSL2(17) dihedral:16
    # cross-check graph that takes minutes.  An exhaustive sweep and a
    # cross-check read only the decision, so they must call neither.
    def refuse(graph):
        raise AssertionError("a decision called stab1 or aut_pm1")

    monkeypatch.setattr(colourauts, "stab1", refuse)
    monkeypatch.setattr(colourauts, "aut_pm1", refuse)
    G = gz.symmetric_group(4)
    rep = colourauts.is_cca_group_exhaustive(G).to_json_dict(G)
    assert rep["witness_S"] == ["(1 2 3 4)", "(1 4 3 2)", "(1 3 4 2)",
                                "(1 2 4 3)"]
    assert rep["witness_alpha"] == [0, 7, 2, 3, 14, 5, 6, 1, 8, 20, 10, 22,
                                    12, 13, 4, 15, 16, 17, 18, 19, 9, 21, 11,
                                    23]
    G = gz.construct("higman:n=12,seed=1")
    _, trip = higman.theorem3_triple(G.params)
    assert triples.crosscheck_prop22(G, trip).verdict.stab1_checked == 1


@pytest.fixture(scope="module")
def first_job_of_each_kind():
    jobs = {}
    for workload in ("cca_verdict", "triple_certify"):
        for job in WORKLOADS.generate(workload, 12345, 1)[0]:
            jobs.setdefault(job.kind, job)
    return jobs


def test_the_workloads_draw_every_job_kind(first_job_of_each_kind):
    assert set(first_job_of_each_kind) == set(WORKLOADS.RUNNERS) \
        == set(WORKLOADS.CHECKS)


@pytest.mark.parametrize("kind", sorted(WORKLOADS.RUNNERS))
def test_benchmark_job_runs_and_passes_its_check(first_job_of_each_kind,
                                                  kind):
    job = first_job_of_each_kind[kind]
    G, out = WORKLOADS.RUNNERS[kind](*job.args)
    WORKLOADS.CHECKS[kind](G, out, *job.args)
