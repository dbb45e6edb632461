"""Unit tests for scenario fingerprints and the on-disk result store.

The incremental-campaign contract has two halves: a
:meth:`~repro.sim.scenario.ScenarioSpec.fingerprint` that changes
whenever anything that could change the outcome changes (spec fields,
the code epoch), and a
:class:`~repro.sim.store.ResultStore` whose cache hits are exactly the
results that were written -- never torn, never mutated, never a stale
error.  Property-based coverage of the fingerprint lives in
``tests/property/test_property_fingerprint.py``; the campaign-level
integration is ``tests/integration/test_campaign_store.py``.
"""

import dataclasses
import json

import pytest

from repro.sim import ResultStore, ScenarioSpec, canonical_bytes, code_epoch
from repro.sim.runner import ScenarioResult
from repro.sim.scenario import EPOCH_ENV_VAR, EventSpec, FirmwareRef


def pox_spec(**overrides):
    base = dict(
        name="fp-probe",
        firmware=FirmwareRef.of("blinker"),
        mode="run",
        max_steps=100,
        events=(EventSpec("button_press", step=10),),
        expect={"crashed": False},
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestCanonicalBytes:
    def test_type_tags_keep_lookalikes_apart(self):
        lookalikes = [1, True, 1.0, "1", b"1", (1,), {1: 1}]
        encodings = [canonical_bytes(value) for value in lookalikes]
        assert len(set(encodings)) == len(lookalikes)

    def test_dict_encoding_is_order_insensitive(self):
        assert canonical_bytes({"a": 1, "b": 2}) \
            == canonical_bytes({"b": 2, "a": 1})

    def test_set_encoding_is_order_insensitive(self):
        assert canonical_bytes(frozenset([1, 2, 3])) \
            == canonical_bytes(frozenset([3, 1, 2]))

    def test_nested_structures_differ_from_flattened(self):
        assert canonical_bytes(((1, 2), 3)) != canonical_bytes((1, 2, 3))
        assert canonical_bytes(((1,), (2,))) != canonical_bytes(((1, 2),))

    def test_dataclasses_are_tagged_by_class(self):
        assert canonical_bytes(EventSpec("button_press", step=1)) \
            != canonical_bytes(FirmwareRef("button_press"))

    def test_unencodable_values_raise(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())
        with pytest.raises(TypeError):
            canonical_bytes(lambda: None)


class TestFingerprint:
    def test_deterministic_across_calls_and_instances(self):
        assert pox_spec().fingerprint() == pox_spec().fingerprint()

    def test_each_field_perturbation_changes_it(self):
        reference = pox_spec().fingerprint()
        perturbed = [
            pox_spec(name="other"),
            pox_spec(max_steps=101),
            pox_spec(firmware=FirmwareRef.of("sensor_logger")),
            pox_spec(events=(EventSpec("button_press", step=11),)),
            pox_spec(expect={"crashed": True}),
            pox_spec(meta={"sweep": 1}),
            pox_spec(config_overrides={"trace_enabled": False}),
        ]
        fingerprints = {spec.fingerprint() for spec in perturbed}
        assert reference not in fingerprints
        assert len(fingerprints) == len(perturbed)

    def test_code_epoch_invalidates(self, monkeypatch):
        before = pox_spec().fingerprint()
        monkeypatch.setenv(EPOCH_ENV_VAR, code_epoch() + "-bumped")
        assert pox_spec().fingerprint() != before


def result(**overrides):
    base = dict(
        name="r1",
        kind="pox",
        observations={"steps": 100, "crashed": False},
        meta={"sweep": "demo"},
        expected={"crashed": False},
        ok=True,
        elapsed_seconds=0.25,
    )
    base.update(overrides)
    return ScenarioResult(**base)


FP = "ab" + "0" * 62


class TestResultStore:
    def test_round_trip_preserves_every_field(self, tmp_path):
        store = ResultStore(tmp_path)
        original = result()
        assert store.put(FP, original)
        loaded = store.get(FP)
        assert loaded.cached is True
        assert dataclasses.replace(loaded, cached=False) == original
        assert loaded.row == original.row

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(FP) is None
        assert store.stats()["misses"] == 1
        assert FP not in store

    def test_errored_results_are_never_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.put(FP, result(ok=False, error="Traceback ..."))
        assert store.get(FP) is None
        assert store.stats()["skipped"] == 1

    def test_deterministic_failures_are_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        mismatch = result(ok=False, observations={"crashed": True})
        assert store.put(FP, mismatch)
        assert store.get(FP).ok is False

    def test_unrepresentable_observations_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        # JSON would silently decode the tuple back as a list; the
        # round-trip guard must refuse to cache the mutated form.
        assert not store.put(FP, result(observations={"pair": (1, 2)}))
        assert not store.put(FP, result(observations={"inf": float("inf")}))
        assert store.stats()["skipped"] == 2
        assert len(store) == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, result())
        store.path_for(FP).write_text("{ torn")
        assert store.get(FP) is None
        # The writeback then repairs it.
        store.put(FP, result())
        assert store.get(FP) is not None

    def test_wrong_fingerprint_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        other = "cd" + "0" * 62
        store.put(other, result())
        store.path_for(FP).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(FP).write_text(store.path_for(other).read_text())
        assert store.get(FP) is None

    def test_format_bump_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, result())
        payload = json.loads(store.path_for(FP).read_text())
        payload["format"] = -1
        store.path_for(FP).write_text(json.dumps(payload))
        assert store.get(FP) is None

    def test_no_temp_files_survive_a_put(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, result())
        assert not list(tmp_path.rglob("*.tmp"))

    def test_len_contains_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, result())
        store.put("cd" + "0" * 62, result(name="r2"))
        assert len(store) == 2 and FP in store
        assert store.clear() == 2
        assert len(store) == 0

    def test_prune_by_count_drops_oldest_first(self, tmp_path):
        import os

        store = ResultStore(tmp_path)
        fingerprints = ["%02x" % index + "0" * 62 for index in range(4)]
        for index, fingerprint in enumerate(fingerprints):
            store.put(fingerprint, result(name="r%d" % index))
            os.utime(store.path_for(fingerprint), (1000 + index, 1000 + index))
        assert store.prune(max_entries=2) == 2
        assert fingerprints[0] not in store and fingerprints[1] not in store
        assert fingerprints[2] in store and fingerprints[3] in store

    def test_prune_by_age(self, tmp_path):
        import os

        store = ResultStore(tmp_path)
        store.put(FP, result())
        os.utime(store.path_for(FP), (1000, 1000))
        assert store.prune(max_age_seconds=60, now=2000) == 1
        assert FP not in store

    def test_prune_rejects_negative_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).prune(max_entries=-1)

    def test_short_fingerprint_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).path_for("ab")
