"""Tests for the unified Limits profile (repro.api.limits)."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.api import Limits
from repro.api.limits import CAPPABLE_FIELDS, KNOBS
from repro.api.types import OptimizationReport, report_fingerprint
from repro.pipeline import DEFAULT_LIMITS
from repro.server.config import ConfigError, ServeConfig

BENCH_DIR = Path(__file__).resolve().parents[2] / "liarbench"


class TestDefaults:
    def test_unified_profile(self):
        limits = Limits()
        assert limits.step_limit == 8
        assert limits.node_limit == 12_000
        assert limits.time_limit == 120.0

    def test_pipeline_defaults_derive_from_limits(self):
        assert DEFAULT_LIMITS == Limits().to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            Limits(step_limit=-1)
        with pytest.raises(ValueError):
            Limits(node_limit=0)
        with pytest.raises(ValueError):
            Limits(time_limit=0)


class TestEnvResolution:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEP_LIMIT", "3")
        monkeypatch.setenv("REPRO_NODE_LIMIT", "1234")
        monkeypatch.setenv("REPRO_TIME_LIMIT", "7.5")
        limits = Limits.from_env()
        assert limits == Limits(3, 1234, 7.5)

    def test_defaults_without_env(self, monkeypatch):
        for name in ("REPRO_STEP_LIMIT", "REPRO_NODE_LIMIT", "REPRO_TIME_LIMIT"):
            monkeypatch.delenv(name, raising=False)
        assert Limits.from_env() == Limits()

    def test_explicit_mapping(self):
        assert Limits.from_env({"REPRO_STEP_LIMIT": "2"}).step_limit == 2

    def test_pruning_knob(self):
        limits = Limits.from_env({"REPRO_RULE_PROFILE": "/tmp/p.json"})
        assert limits.rule_profile == "/tmp/p.json"
        # Empty string means unset, not "profile at path ''".
        assert Limits.from_env({"REPRO_RULE_PROFILE": ""}).rule_profile is None


class TestOverride:
    def test_partial_override(self):
        base = Limits()
        assert base.override(node_limit=99).node_limit == 99
        assert base.override(node_limit=99).step_limit == base.step_limit

    def test_noop_override_returns_self(self):
        base = Limits()
        assert base.override() is base

    def test_override_is_keyword_only(self):
        # Removing a knob must not shift positional arguments onto the
        # wrong field.
        with pytest.raises(TypeError):
            Limits().override(3)

    def test_round_trip(self):
        limits = Limits(5, 600, 30.0)
        assert Limits.from_dict(limits.to_dict()) == limits

    def test_key_is_hashable(self):
        assert hash(Limits().key()) == hash(Limits().key())
        assert Limits(5, 600, 30.0).key() != Limits().key()


class TestRetiredWorkerKnobs:
    """``search_workers`` / ``apply_workers`` were removed: saturation
    runs serially.  The names load only with the value 1."""

    @pytest.mark.parametrize("name", ["search_workers", "apply_workers"])
    @pytest.mark.parametrize("value", [0, 2, 4])
    def test_values_other_than_one_raise(self, name, value):
        with pytest.raises(ValueError, match=name):
            Limits(**{name: value})

    def test_one_is_accepted_and_invisible(self):
        limits = Limits(search_workers=1, apply_workers=1)
        assert limits == Limits()
        assert limits.key() == Limits().key()
        names = {f.name for f in dataclasses.fields(Limits)}
        assert not names & {"search_workers", "apply_workers"}
        assert not set(limits.to_dict()) & {"search_workers", "apply_workers"}
        # replace() must keep working with the init-only names present.
        assert dataclasses.replace(limits, node_limit=5).node_limit == 5

    def test_no_knob_surface_names_them(self):
        retired = {"search_workers", "apply_workers"}
        assert not {knob.field for knob in KNOBS} & retired
        assert not set(CAPPABLE_FIELDS) & retired
        assert not any("WORKERS" in knob.env for knob in KNOBS)

    def test_benchmark_pinned_limits_still_load(self):
        spec = importlib.util.spec_from_file_location(
            "liarbench_common", BENCH_DIR / "common.py"
        )
        common = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(common)
        limits = Limits(**common.SATURATE_LIMITS)
        assert limits.node_limit == common.SATURATE_LIMITS["node_limit"]

    def test_benchmark_serve_toml_still_loads(self):
        config = ServeConfig.load(BENCH_DIR / "serve.toml")
        assert config.limits is not None
        assert config.limits.node_limit == 2000

    def test_serve_config_rejects_workers_other_than_one(self):
        with pytest.raises(ConfigError, match="search_workers"):
            ServeConfig.from_dict({"limits": {"search_workers": 2}})
        config = ServeConfig.from_dict(
            {"limits": {"apply_workers": 1, "node_limit": 77}}
        )
        assert config.limits.node_limit == 77

    def test_pre_removal_report_dicts_still_load(self):
        # Disk-cache entries written while the knobs existed carry them
        # with whatever value the run used.
        old_limits = dict(Limits().to_dict(), search_workers=4,
                          apply_workers=2)
        assert Limits.from_dict(old_limits) == Limits()
        current = OptimizationReport(
            kernel="vsum", target="blas", limits=Limits().to_dict(),
            solution=None, solution_summary="(no library calls)",
        )
        old = dict(current.to_dict(), limits=old_limits)
        assert report_fingerprint(old) == report_fingerprint(current)
        assert report_fingerprint(OptimizationReport.from_dict(old)) == \
            report_fingerprint(current)
