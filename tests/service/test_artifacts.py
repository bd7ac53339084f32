"""Tests for the on-disk artifact store and its invalidation wiring."""

import json


from repro.circuits.figures import figure2_circuit
from repro.incremental import AddGate, IncrementalEngine
from repro.service import (
    ArtifactStore,
    MetricsRegistry,
    circuit_fingerprint,
    cone_fingerprint,
    sequential_cone_chains,
)
from repro.service.artifacts import FORMAT_VERSION
from repro.service.hashing import safe_key


def _chains():
    circuit = figure2_circuit()
    return circuit, sequential_cone_chains(circuit, "f")


class TestRoundTrip:
    def test_put_then_get_is_identical(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path))
        store.put(key, "f", chains)
        assert store.get(key, "f") == chains

    def test_get_missing_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get("deadbeef", "f") is None

    def test_versions_survive_reopen(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path))
        store.put(key, "f", chains)
        store.invalidate(key)
        reopened = ArtifactStore(str(tmp_path))
        assert reopened.version(key) == 1
        assert reopened.get(key, "f") is None

    def test_artifacts_survive_reopen(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        ArtifactStore(str(tmp_path)).put(key, "f", chains)
        assert ArtifactStore(str(tmp_path)).get(key, "f") == chains

    def test_torn_artifact_is_a_miss(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path))
        path = store.put(key, "f", chains)
        path.write_text("{not json")
        assert store.get(key, "f") is None

    def test_format4_layout_round_trip(self, tmp_path):
        # One artifact per cone at <key>/v<version>/<output>.json: no
        # backend or kernels segment, no backend or kernels meta field.
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path))
        path = store.put(key, "f", chains)
        assert path == tmp_path / key[:2] / key / "v0" / f"{safe_key('f')}.json"
        meta = json.loads(path.read_text())["meta"]
        assert meta["format"] == FORMAT_VERSION == 4
        assert "backend" not in meta and "kernels" not in meta
        assert store.get(key, "f") == chains

    def test_v3_layout_file_is_a_counted_miss(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        metrics = MetricsRegistry()
        store = ArtifactStore(str(tmp_path), metrics=metrics)
        meta = {"format": 3, "circuit": key, "output": "f", "version": 0,
                "backend": "shared", "kernels": "python"}
        name = f"{safe_key('f')}.json"
        v3 = tmp_path / key[:2] / key / "v0" / "shared" / "python" / name
        v3.parent.mkdir(parents=True)
        v3.write_text(json.dumps({"meta": meta, "targets": chains}))
        assert store.get(key, "f") is None
        # The same v3 payload at the v4 path is still a miss.
        (v3.parents[2] / name).write_text(v3.read_text())
        assert store.get(key, "f") is None
        counters = metrics.snapshot()["counters"]
        assert counters["artifacts.misses"] == 2
        assert counters.get("artifacts.hits", 0) == 0


class TestInvalidation:
    def test_invalidate_bumps_version_and_hides_artifacts(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path))
        store.put(key, "f", chains)
        assert store.invalidate(key) == 1
        assert store.get(key, "f") is None
        # a fresh put under the new version serves again
        store.put(key, "f", chains)
        assert store.get(key, "f") == chains

    def test_invalidate_removes_old_version_dirs(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path))
        old = store.put(key, "f", chains)
        store.invalidate(key)
        assert not old.exists()

    def test_other_circuits_unaffected(self, tmp_path):
        circuit, chains = _chains()
        store = ArtifactStore(str(tmp_path))
        store.put("aaaa", "f", chains)
        store.put("bbbb", "f", chains)
        store.invalidate("aaaa")
        assert store.get("aaaa", "f") is None
        assert store.get("bbbb", "f") == chains

    def test_engine_edit_listener_invalidates(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path))
        store.put(key, "f", chains)
        engine = IncrementalEngine.from_circuit(circuit.copy(), "f")
        engine.add_edit_listener(store.listener_for(key))
        engine.apply(AddGate("extra", ("d",), "buf"))
        assert store.version(key) == 1
        assert store.get(key, "f") is None


class TestMetrics:
    def test_hit_miss_write_counters(self, tmp_path):
        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        metrics = MetricsRegistry()
        store = ArtifactStore(str(tmp_path), metrics=metrics)
        store.get(key, "f")
        store.put(key, "f", chains)
        store.get(key, "f")
        snap = metrics.snapshot()["counters"]
        assert snap["artifacts.misses"] == 1
        assert snap["artifacts.hits"] == 1
        assert snap["artifacts.writes"] == 1
        assert store.hit_ratio() == 0.5


class TestFingerprints:
    def test_fingerprint_ignores_name_and_insertion_order(self):
        a = figure2_circuit()
        b = figure2_circuit()
        b.name = "renamed"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_fingerprint_changes_on_structure(self):
        from repro.graph.node import NodeType

        a = figure2_circuit()
        b = figure2_circuit()
        b.add_gate("extra", NodeType.BUF, ["d"])
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_cone_fingerprint_ignores_other_cones(self):
        from repro.graph.node import NodeType

        a = figure2_circuit()
        b = figure2_circuit()
        # a second, disjoint output cone added to b only
        b.add_input("z")
        b.add_gate("zz", NodeType.BUF, ["z"])
        b.add_output("zz")
        assert circuit_fingerprint(a) != circuit_fingerprint(b)
        assert cone_fingerprint(a, "f") == cone_fingerprint(b, "f")

    def test_index_file_is_json(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.invalidate("abcd")
        data = json.loads((tmp_path / "index.json").read_text())
        assert data["versions"] == {"abcd": 1}


class TestConcurrentWriters:
    """Threaded hammer tests: the index must survive concurrent writers."""

    def test_invalidate_hammer_loses_no_bumps(self, tmp_path):
        import threading

        store = ArtifactStore(str(tmp_path))
        keys = [f"{i:02d}key{i}" for i in range(6)]
        rounds = 20
        errors = []

        def hammer(key):
            try:
                for _ in range(rounds):
                    store.invalidate(key)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(key,))
            for key in keys
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"concurrent invalidate raised: {errors[:3]}"
        for key in keys:
            assert store.version(key) == 3 * rounds
        # The on-disk index must agree after reopening.
        reopened = ArtifactStore(str(tmp_path))
        for key in keys:
            assert reopened.version(key) == 3 * rounds

    def test_two_stores_one_root_do_not_erase_each_other(self, tmp_path):
        # Two writer processes each hold their own store over one root
        # (the daemon + a CLI sweep, say): an invalidation through one
        # must not be erased by an index save through the other.
        a = ArtifactStore(str(tmp_path))
        b = ArtifactStore(str(tmp_path))
        a.invalidate("circuit-a")
        b.invalidate("circuit-b")
        reopened = ArtifactStore(str(tmp_path))
        assert reopened.version("circuit-a") == 1
        assert reopened.version("circuit-b") == 1

    def test_put_get_during_invalidation_storm(self, tmp_path):
        import threading

        circuit, chains = _chains()
        key = circuit_fingerprint(circuit)
        store = ArtifactStore(str(tmp_path), metrics=MetricsRegistry())
        errors = []
        stop = threading.Event()

        def writer():
            try:
                while not stop.is_set():
                    store.put(key, "f", chains)
                    got = store.get(key, "f")
                    assert got is None or got == chains
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        def invalidator():
            try:
                for _ in range(30):
                    store.invalidate(key)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        bumper = threading.Thread(target=invalidator)
        for t in writers:
            t.start()
        bumper.start()
        bumper.join()
        stop.set()
        for t in writers:
            t.join()
        assert not errors, f"writers raised during invalidation: {errors[:3]}"
        assert store.version(key) == 30
