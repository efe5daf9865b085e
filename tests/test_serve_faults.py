"""Tests of the deterministic fault-injection plane and crash-safe checkpoints."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from json_fuzz import JSON_VALUES, json_documents

from repro.nn.layers import Dense
from repro.nn.serialization import (
    CheckpointCorruptError,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.faults import (
    CONTENT_KINDS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    load_fault_plan_from_env,
)
from repro.serve.types import InvalidRequestError

TEXTS = [f"add r{i}, r{(i + 1) % 13}\nsub r{i}, 4" for i in range(64)]


def crash_plan(seed=11, probability=0.2, **kwargs):
    return FaultPlan(
        seed=seed, specs=(FaultSpec("crash", probability=probability, **kwargs),)
    )


class TestFaultPlan:
    def test_prone_selection_is_deterministic(self):
        plan_a = crash_plan(seed=11)
        plan_b = crash_plan(seed=11)
        assert plan_a.prone_texts("crash", TEXTS) == plan_b.prone_texts("crash", TEXTS)

    def test_prone_set_depends_on_seed(self):
        sets = {crash_plan(seed=seed).prone_texts("crash", TEXTS) for seed in range(5)}
        assert len(sets) > 1

    def test_probability_scales_the_band(self):
        none = crash_plan(probability=0.0).prone_texts("crash", TEXTS)
        some = crash_plan(probability=0.3).prone_texts("crash", TEXTS)
        everything = crash_plan(probability=1.0).prone_texts("crash", TEXTS)
        assert none == ()
        assert 0 < len(some) < len(TEXTS)
        assert everything == tuple(TEXTS)

    def test_event_kinds_are_never_content_prone(self):
        plan = FaultPlan(
            specs=(FaultSpec("queue_saturation", duration_events=5),)
        )
        assert plan.prone_texts("queue_saturation", TEXTS) == ()

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            specs=(
                FaultSpec("crash", probability=0.1),
                FaultSpec("hang", probability=0.05, delay_ms=1500.0),
                FaultSpec("queue_saturation", start_after_events=3, duration_events=2),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike")

    def test_rejects_duplicate_kinds(self):
        with pytest.raises(ValueError, match="more than once"):
            FaultPlan(specs=(FaultSpec("crash"), FaultSpec("crash")))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("crash", probability=1.5)

    def test_kind_taxonomy_is_complete(self):
        assert set(CONTENT_KINDS) < set(FAULT_KINDS)


class TestEnvLoading:
    def test_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert load_fault_plan_from_env() is None

    def test_inline_json(self, monkeypatch):
        plan = crash_plan(seed=3)
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        assert load_fault_plan_from_env() == plan

    def test_file_path(self, monkeypatch, tmp_path):
        plan = crash_plan(seed=4)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        assert load_fault_plan_from_env() == plan

    def test_unreadable_file_is_a_typed_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(tmp_path / "missing.json"))
        with pytest.raises(InvalidRequestError, match="REPRO_FAULT_PLAN"):
            load_fault_plan_from_env()


_SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(FAULT_KINDS) | JSON_VALUES},
    optional={
        "probability": st.floats(0.0, 1.0) | JSON_VALUES,
        "delay_ms": st.floats(0.0, 1e4) | JSON_VALUES,
        "max_incarnation": st.integers(0, 3) | JSON_VALUES,
        "start_after_events": st.integers(-1, 5) | JSON_VALUES,
        "duration_events": st.integers(-1, 5) | JSON_VALUES,
        "surprise": JSON_VALUES,
    },
)
_PLANS = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers() | JSON_VALUES,
        "specs": st.lists(_SPECS | JSON_VALUES, max_size=3) | JSON_VALUES,
    },
)
#: Set only inside the env-loader fuzz test.
_FUZZ_VARIABLE = "REPRO_TEST_FUZZ_FAULT_PLAN"


class TestFaultPlanJsonFuzz:
    @pytest.mark.parametrize(
        "text, field",
        [
            ("[]", "plan"),
            ('{"specs": 5}', "plan.specs"),
            ('{"seed": "7"}', "plan.seed"),
            ('{"specs": [{"kind": "crash", "odds": 1}]}', "plan.specs[0]"),
            ('{"specs": [{"kind": "crash", "probability": "high"}]}',
             "plan.specs[0].probability"),
            ('{"specs": [{"kind": "crash", "delay_ms": NaN}]}', "plan.specs[0].delay_ms"),
            ('{"specs": [{"probability": 0.5}]}', "plan.specs[0].kind"),
            ('{"specs": [{"kind": "meteor_strike"}]}', "plan.specs[0]"),
            ('{"specs": [{"kind": "crash"}, {"kind": "crash"}]}', "plan"),
            ('{"specs": [', "fault plan"),
        ],
    )
    def test_malformed_plan_names_the_field(self, text, field):
        with pytest.raises(InvalidRequestError) as raised:
            FaultPlan.from_json(text)
        assert str(raised.value).startswith(field)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=json_documents(_PLANS, "specs"))
    def test_every_document_loads_or_fails_typed(self, text):
        try:
            plan = FaultPlan.from_json(text)
        except InvalidRequestError:
            return
        assert FaultPlan.from_json(plan.to_json()) == plan

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=json_documents(_PLANS, "specs"), inline=st.booleans())
    def test_env_loader_loads_or_fails_typed(self, text, inline):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "plan.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            # Inline text that is no JSON object is read as a file path.
            os.environ[_FUZZ_VARIABLE] = text if inline else path
            try:
                plan = load_fault_plan_from_env(_FUZZ_VARIABLE)
            except InvalidRequestError:
                return
            finally:
                del os.environ[_FUZZ_VARIABLE]
        assert plan is None or isinstance(plan, FaultPlan)


class TestFaultInjector:
    def test_content_fault_fires_once_per_text(self):
        plan = crash_plan(probability=1.0)
        injector = FaultInjector(plan)
        assert injector.worker_fault([TEXTS[0]]) == ("crash", 0.0)
        assert injector.worker_fault([TEXTS[0]]) is None
        assert injector.worker_fault([TEXTS[1]]) is not None
        assert injector.counters()["crash"] == 2

    def test_incarnation_gate_protects_respawned_workers(self):
        plan = crash_plan(probability=1.0)
        respawned = FaultInjector(plan, incarnation=2)
        assert respawned.worker_fault(TEXTS[:4]) is None

    def test_hang_reports_its_delay(self):
        plan = FaultPlan(
            specs=(FaultSpec("hang", probability=1.0, delay_ms=1500.0),)
        )
        kind, delay_s = FaultInjector(plan).worker_fault([TEXTS[0]])
        assert kind == "hang"
        assert delay_s == pytest.approx(1.5)

    def test_priority_order_is_stable(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("slow_reply", probability=1.0, delay_ms=5.0),
                FaultSpec("crash", probability=1.0),
            )
        )
        kind, _ = FaultInjector(plan).worker_fault([TEXTS[0]])
        assert kind == "crash"

    def test_event_window_saturation(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "queue_saturation", start_after_events=2, duration_events=3
                ),
            )
        )
        injector = FaultInjector(plan)
        fired = [injector.on_submit() for _ in range(8)]
        assert fired == [False, False, True, True, True, False, False, False]
        assert injector.counters()["queue_saturation"] == 3

    def test_corrupt_preserves_shape_and_dtype(self):
        payload = {"haswell": np.array([1.0, 2.0], dtype=np.float32)}
        corrupted = FaultInjector(crash_plan()).corrupt(payload)
        assert corrupted["haswell"].shape == (2,)
        assert corrupted["haswell"].dtype == np.float32
        assert np.isnan(corrupted["haswell"]).all()


class TestCrashSafeCheckpoints:
    @pytest.fixture()
    def module(self):
        return Dense(4, 3, np.random.default_rng(5))

    def test_save_is_atomic_under_injected_write_failure(self, module, tmp_path):
        path = str(tmp_path / "model.npz")
        save_checkpoint(module, path)
        before = open(path, "rb").read()

        def explode(temp_path):
            raise OSError("injected checkpoint write failure")

        with pytest.raises(OSError, match="injected"):
            save_checkpoint(module, path, fault_hook=explode)
        assert open(path, "rb").read() == before
        assert not os.path.exists(path + ".tmp")

    def test_corruption_detected_on_load(self, module, tmp_path):
        path = str(tmp_path / "model.npz")
        save_checkpoint(module, path)
        with open(path, "r+b") as handle:
            handle.seek(80)
            handle.write(b"\x00" * 32)
        with pytest.raises(CheckpointCorruptError):
            checkpoint_to_dict(path)

    def test_load_falls_back_to_last_good(self, module, tmp_path):
        path = str(tmp_path / "model.npz")
        save_checkpoint(module, path)
        save_checkpoint(module, path)  # demotes the first save to .bak
        with open(path, "r+b") as handle:
            handle.seek(80)
            handle.write(b"\x00" * 32)
        clone = Dense(4, 3, np.random.default_rng(6))
        used = load_checkpoint(clone, path)
        assert used.endswith(".bak")
        np.testing.assert_allclose(clone.weight.data, module.weight.data)

    def test_both_corrupt_raises(self, module, tmp_path):
        path = str(tmp_path / "model.npz")
        save_checkpoint(module, path)
        save_checkpoint(module, path)
        for victim in (path, path + ".bak"):
            with open(victim, "r+b") as handle:
                handle.seek(80)
                handle.write(b"\x00" * 32)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(Dense(4, 3, np.random.default_rng(7)), path)

    def test_extensionless_path_round_trips(self, module, tmp_path):
        path = str(tmp_path / "model")
        landed = save_checkpoint(module, path)
        assert landed.endswith(".npz")
        state = checkpoint_to_dict(path)
        assert "__checksum__" not in state
        assert set(state) == {"weight", "bias"}

    def test_legacy_archives_without_checksum_still_load(self, module, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path, **module.state_dict())
        clone = Dense(4, 3, np.random.default_rng(8))
        load_checkpoint(clone, path)
        np.testing.assert_allclose(clone.weight.data, module.weight.data)

    def test_plan_json_checked_into_benchmarks_is_loadable(self):
        bench = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks", "BENCH_chaos.json"
        )
        if not os.path.exists(bench):
            pytest.skip("chaos benchmark numbers not generated yet")
        with open(bench, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert FaultPlan.from_dict(payload["fault_plan"]) is not None
