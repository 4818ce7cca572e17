"""Tests for the session API: RunConfig round-trips, CaratSession, and
the ``tests.support`` veneers."""

import argparse

import pytest

from repro.machine.session import CaratSession, RunConfig
from tests import support

from .conftest import LINKED_LIST_SOURCE, SUM_SOURCE


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_dict_roundtrip_is_lossless(self):
        config = RunConfig(
            mode="traditional",
            engine="fast",
            max_steps=123,
            name="roundtrip",
            sanitize=True,
            inject_faults="copy-data:crash",
            max_retries=5,
            trace=True,
            trace_detail="fine",
            profile=True,
            trace_out="/tmp/t",
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunConfig fields"):
            RunConfig.from_dict({"mode": "carat", "warp_speed": True})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mode", "paging"),
            ("guard_mechanism", "segfault"),
            ("engine", "turbo"),
            ("trace_detail", "verbose"),
        ],
    )
    def test_validation_rejects_unknown_choices(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})

    def test_from_args_maps_cli_namespace(self):
        # The exact shape `repro run` produces, including the --guard
        # alias for the guard_mechanism field.
        args = argparse.Namespace(
            mode="carat",
            guard="if_tree",
            engine="fast",
            max_steps=99,
            sanitize=True,
            inject_faults=None,
            fault_seed=7,
            max_retries=2,
            trace=True,
            trace_detail="normal",
            trace_out=None,
            profile=False,
            stats=True,  # ignored: not a config field
        )
        config = RunConfig.from_args(args, name="prog")
        assert config.guard_mechanism == "if_tree"
        assert config.engine == "fast"
        assert config.max_steps == 99
        assert config.max_retries == 2
        assert config.fault_seed == 7
        assert config.trace and not config.profile
        assert config.name == "prog"

    def test_from_args_overrides_win(self):
        args = argparse.Namespace(mode="both", engine="reference")
        config = RunConfig.from_args(args, mode="traditional")
        assert config.mode == "traditional"

    def test_replace_returns_new_frozen_config(self):
        config = RunConfig()
        other = config.replace(engine="fast")
        assert other.engine == "fast" and config.engine == "reference"
        with pytest.raises(Exception):
            config.engine = "fast"

    def test_derived_properties(self):
        assert not RunConfig().faulting
        assert RunConfig(max_retries=1).faulting
        assert RunConfig(inject_faults="random:1").faulting
        assert not RunConfig().tracing
        assert RunConfig(trace=True).tracing
        assert RunConfig(trace_out="x").tracing  # trace_out implies trace


#: Minimal argv per subcommand, plus the overrides its handler applies
#: before calling ``from_args`` (mirroring ``repro.cli._cmd_*``).
SUBCOMMAND_ARGV = {
    "run": (["run", "prog.c"], {"name": "prog"}),
    "run-name": (["run", "hpccg"], {"name": "hpccg"}),
    "run-json": (["run", "prog.c", "--json", "x"], {"name": "prog"}),
    "bench": (["bench", "hpccg"], {"mode": "baseline", "name": "hpccg"}),
    "policy": (["policy", "hpccg"], {"mode": "carat", "name": "hpccg"}),
    "smp": (["smp", "hpccg"], {"mode": "carat", "name": "hpccg"}),
    "soak": (["soak"], {"mode": "carat", "name": "kvservice"}),
}


class TestFromArgsAliasAudit:
    """Every subcommand's namespace must map onto RunConfig without
    drift: each namespace attribute naming a field (directly or via
    ``_ARG_ALIASES``) lands verbatim, and the result survives a
    ``to_dict``/``from_dict`` round trip losslessly."""

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
    def test_namespace_roundtrip_is_lossless(self, command):
        import dataclasses

        from repro.cli import _build_parser

        argv, overrides = SUBCOMMAND_ARGV[command]
        args = _build_parser().parse_args(argv)
        config = RunConfig.from_args(args, **overrides)
        assert RunConfig.from_dict(config.to_dict()) == config

        fields = {f.name for f in dataclasses.fields(RunConfig)}
        for attr, value in vars(args).items():
            field = RunConfig._ARG_ALIASES.get(attr, attr)
            if field not in fields or field in overrides:
                continue
            assert getattr(config, field) == value, (
                f"{command}: namespace attr {attr!r} drifted from "
                f"config field {field!r}"
            )

    def test_every_alias_names_a_real_field(self):
        import dataclasses

        fields = {f.name for f in dataclasses.fields(RunConfig)}
        for attr, field in RunConfig._ARG_ALIASES.items():
            assert field in fields, f"alias {attr!r} -> unknown {field!r}"
            assert attr not in fields, (
                f"alias {attr!r} shadows a field of the same name"
            )


# ---------------------------------------------------------------------------
# Session behavior
# ---------------------------------------------------------------------------


class TestCaratSession:
    def test_runs_all_three_modes(self):
        outputs = {}
        for mode in ("carat", "baseline", "traditional"):
            result = CaratSession(RunConfig(mode=mode)).run(SUM_SOURCE)
            assert result.exit_code == 0
            outputs[mode] = result.output
        assert outputs["carat"] == outputs["baseline"] == outputs["traditional"]

    def test_result_carries_config(self):
        config = RunConfig(engine="fast")
        result = CaratSession(config).run(SUM_SOURCE)
        assert result.config is config
        assert result.tracer is None and result.profile is None

    def test_session_is_reusable(self):
        session = CaratSession(RunConfig())
        first = session.run(SUM_SOURCE)
        second = session.run(SUM_SOURCE)
        assert first.fingerprint() == second.fingerprint()

    def test_faulting_config_wires_resilience(self):
        config = RunConfig(
            inject_faults="copy-data:crash", max_retries=2, fault_seed=9
        )
        result = CaratSession(config).run(SUM_SOURCE)
        kernel = result.kernel
        assert kernel.fault_injector is not None
        assert kernel.degradation is not None
        assert kernel.retry_policy.max_attempts == 2

    def test_sanitize_flag_attaches_sanitizer(self):
        result = CaratSession(RunConfig(sanitize=True)).run(SUM_SOURCE)
        assert result.sanitizer is not None
        assert result.sanitizer.ok
        assert result.sanitizer.checks_run > 0


# ---------------------------------------------------------------------------
# The tests.support veneers that replaced the removed legacy run_* shims
# ---------------------------------------------------------------------------


SUPPORT = {
    "carat": support.run_carat,
    "baseline": support.run_carat_baseline,
    "traditional": support.run_traditional,
}


class TestRemovedShims:
    @pytest.mark.parametrize("mode", sorted(SUPPORT))
    def test_support_veneer_matches_session_fingerprint(self, mode):
        veneer_result = SUPPORT[mode](LINKED_LIST_SOURCE)
        session_result = CaratSession(RunConfig(mode=mode)).run(
            LINKED_LIST_SOURCE
        )
        assert veneer_result.fingerprint() == session_result.fingerprint()

    def test_support_engine_kwarg_respected(self):
        result = support.run_carat(SUM_SOURCE, engine="fast")
        assert result.stats.compiled_blocks > 0

    def test_support_baseline_routes_caller_sanitizer(self):
        from repro.sanitizer import Sanitizer

        sanitizer = Sanitizer(raise_on_violation=False)
        result = support.run_carat_baseline(SUM_SOURCE, sanitizer=sanitizer)
        assert result.sanitizer is sanitizer
        assert sanitizer.checks_run > 0
        assert sanitizer.ok

    def test_support_carat_setup_hook_fires(self):
        seen = {}
        support.run_carat(
            SUM_SOURCE,
            setup=lambda interp: seen.setdefault("interp", interp),
        )
        assert "interp" in seen
