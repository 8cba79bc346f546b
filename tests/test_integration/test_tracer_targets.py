"""Every entry point the e2e tracer wraps by name still exists.

``benchmarks/e2e/tracing.py`` patches ~55 callables by ``(module, class,
attribute)``.  A rename leaves its bucket reading 0, which only the traced CI
steps (and ``run.py --selfcheck``) notice; this fails it in the tier-1 suite.
The tracer is imported read-only: nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    missing = []
    for bucket, module_name, class_name, attr in tracing.TARGETS:
        module = importlib.import_module(module_name)
        # As ``Tracer.install`` looks them up: a function on its module, a
        # method in its class's own namespace (an inherited one is not patched).
        owner = vars(getattr(module, class_name, None) or object) if class_name else vars(module)
        if not callable(owner.get(attr)):
            missing.append(f"{bucket}: {module_name}:{class_name or ''}.{attr}")
    assert not missing


def test_every_policy_method_resolves_to_a_wrapped_class(tracing):
    from repro.sched import POLICY_REGISTRY, SchedulingPolicy

    # The tracer wraps each override in the base and the registered classes'
    # own namespaces; a policy method defined anywhere else would go untraced.
    wrapped = {SchedulingPolicy, *POLICY_REGISTRY.values()}
    assert all(callable(vars(SchedulingPolicy).get(attr)) for attr in tracing.POLICY_METHODS)
    for name, policy in POLICY_REGISTRY.items():
        for attr in tracing.POLICY_METHODS:
            owner = next(cls for cls in policy.__mro__ if attr in vars(cls))
            assert owner in wrapped and callable(vars(owner)[attr]), (name, attr, owner)


def test_tallied_results_keep_their_type(tracing, tmp_path):
    # ``write_checkpoint_file`` is tallied through ``int(result)``: it must
    # keep returning the container size.
    from repro.persist.format import write_checkpoint_file

    path = tmp_path / "c.eqc"
    assert write_checkpoint_file(path, {"meta": {}}) == path.stat().st_size
    assert set(tracing.TALLIES) == {"execute_program", "write_checkpoint_file"}
