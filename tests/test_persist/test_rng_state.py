"""RNG bit-generator state round-trips (satellite of the durability PR).

Resume-exactness rests on one primitive: a NumPy ``Generator`` whose stream
position (:func:`repro._streams.generator_state`, four integers) is captured,
shipped through JSON or a checkpoint container, and restored — possibly in a
different process — continues with exactly the draws the original would have
produced.  These tests pin that primitive directly, in the same process,
across ``fork`` and ``spawn`` children, and through the fault injector's and
cloud provider's snapshot/restore surfaces.
"""

import json
import multiprocessing as mp

import numpy as np
import pytest

from repro._streams import generator_state, restore_generator
from repro.faults import FaultInjector, FaultPlan
from repro.persist.format import read_checkpoint_file, write_checkpoint_file


def _drain(state_json, n, queue):
    """Child-process body: restore a generator and report its next draws."""
    rng = np.random.default_rng()
    restore_generator(rng, json.loads(state_json))
    queue.put([float(v) for v in rng.uniform(size=n)])


class TestGeneratorRoundTrip:
    def test_same_process_round_trip(self):
        rng = np.random.default_rng(42)
        rng.uniform(size=17)  # advance mid-sequence
        state = generator_state(rng)
        expected = list(rng.uniform(size=8))

        fresh = np.random.default_rng()
        restore_generator(fresh, state)
        assert list(fresh.uniform(size=8)) == expected

    def test_state_survives_json(self):
        rng = np.random.default_rng(7)
        rng.standard_normal(size=5)
        state = json.loads(json.dumps(generator_state(rng)))
        expected = list(rng.uniform(size=4))

        fresh = np.random.default_rng()
        restore_generator(fresh, state)
        assert list(fresh.uniform(size=4)) == expected

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_restore_across_process_boundary(self, start_method):
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        rng = np.random.default_rng(123)
        rng.uniform(size=33)
        state_json = json.dumps(generator_state(rng))
        expected = [float(v) for v in rng.uniform(size=6)]

        ctx = mp.get_context(start_method)
        queue = ctx.Queue()
        child = ctx.Process(target=_drain, args=(state_json, 6, queue))
        child.start()
        got = queue.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert got == expected


class TestInjectorStreams:
    def make_injector(self, seed=5):
        plan = FaultPlan(transient_failure_rate=0.3, result_timeout_rate=0.2,
                         result_delay_seconds=60.0, seed=2)
        return FaultInjector(plan, seed=seed)

    def test_streams_resume_mid_sequence(self):
        injector = self.make_injector()
        # Consume unequal amounts from several labelled streams.
        for _ in range(13):
            injector.transient_failure("x2")
        for _ in range(5):
            injector.result_delay("Belem")
        snapshot = json.loads(json.dumps(injector.snapshot_streams()))
        expected = [injector.transient_failure("x2") for _ in range(20)] + [
            injector.result_delay("Belem") for _ in range(20)
        ]

        resumed = self.make_injector()
        resumed.restore_streams(snapshot)
        got = [resumed.transient_failure("x2") for _ in range(20)] + [
            resumed.result_delay("Belem") for _ in range(20)
        ]
        assert got == expected

    def test_uncreated_streams_need_no_capture(self):
        injector = self.make_injector()
        injector.transient_failure("x2")
        snapshot = injector.snapshot_streams()
        assert set(snapshot) == {"x2/transient"}
        # A label first drawn *after* restore derives from the seed tuple,
        # exactly as the original run would have derived it.
        original = self.make_injector()
        original.transient_failure("x2")
        expected = [original.transient_failure("Quito") for _ in range(10)]
        resumed = self.make_injector()
        resumed.restore_streams(snapshot)
        assert [resumed.transient_failure("Quito") for _ in range(10)] == expected


def through_container(tmp_path, value):
    """``value`` written as a checkpoint section and read back."""
    write_checkpoint_file(tmp_path / "c.eqc", {"section": value})
    return read_checkpoint_file(tmp_path / "c.eqc")["section"]


class TestProviderEndpointStreams:
    @staticmethod
    def make_provider():
        from repro.cloud.provider import CloudProvider
        from repro.devices import build_fleet

        return CloudProvider(build_fleet(("x2", "Belem")), seed=11)

    def test_endpoint_rng_resumes_mid_sequence(self, tmp_path):
        def drain(provider, n):
            results = []
            for name in provider.device_names:
                endpoint = provider._endpoint(name)
                results += [float(v) for v in endpoint.rng.uniform(size=n)]
                results += [float(v) for v in endpoint.qpu._rng.uniform(size=n)]
            return results

        a = self.make_provider()
        drain(a, 7)  # advance every endpoint stream mid-sequence
        snapshot = through_container(tmp_path, a.snapshot_rows())
        expected = drain(a, 9)

        b = self.make_provider()
        b.restore_rows(snapshot)
        assert drain(b, 9) == expected
        assert b.snapshot_state() == a.snapshot_state()

    def test_job_ids_continue_after_restore(self):
        a = self.make_provider()
        for _ in range(4):
            a._new_job_id()
        snapshot = a.snapshot_rows()
        b = self.make_provider()
        b.restore_rows(snapshot)
        assert b._new_job_id() == a._new_job_id()
