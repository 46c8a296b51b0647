"""Tests for :class:`SolveOptions` and the entry points that take it."""

import pytest

import repro
from repro.core.options import DEFAULT_OPTIONS, SolveOptions
from repro.resilience.policy import DeadlineBudget


class TestSolveOptions:
    def test_defaults(self):
        opts = SolveOptions()
        assert opts.deadline_s is None
        assert opts.parallel == 1
        assert opts.resume is False
        assert opts == DEFAULT_OPTIONS

    def test_accel_flags_round_trip(self):
        # No accelerator switch is left on the wire: a warm start
        # follows from a previous design alone, so a round trip carries
        # none, and a payload that still names one is refused.
        opts = SolveOptions(parallel=2)
        payload = opts.to_dict()
        assert "warm_start" not in payload
        assert SolveOptions.from_dict(payload) == opts
        with pytest.raises(ValueError, match="unknown option"):
            SolveOptions.from_dict({**payload, "warm_start": True})

    def test_incremental_flag_round_trips(self):
        # An incremental re-solve is signalled by ``previous=``, not by
        # an options field: the options round-trip without one, and a
        # payload that carries it is refused even at its old default.
        opts = SolveOptions(deadline_s=3.0)
        payload = opts.to_dict()
        assert "incremental" not in payload
        assert not hasattr(opts, "incremental")
        assert SolveOptions.from_dict(payload) == opts
        with pytest.raises(ValueError, match="unknown option"):
            SolveOptions.from_dict({**payload, "incremental": False})

    @pytest.mark.parametrize("bad", [
        {"deadline_s": -1.0},
        {"max_retries": -2},
        {"parallel": 0},
        {"resume": True},  # resume without checkpoint
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SolveOptions(**bad)

    def test_checkpoint_path_normalized(self, tmp_path):
        opts = SolveOptions(checkpoint=tmp_path / "c.jsonl")
        assert isinstance(opts.checkpoint, str)
        assert opts.checkpoint == str(tmp_path / "c.jsonl")

    def test_round_trip(self, tmp_path):
        opts = SolveOptions(
            deadline_s=12.5, max_retries=2, parallel=3,
            checkpoint=str(tmp_path / "c.jsonl"), resume=True,
            failures="k-link:1",
        )
        assert SolveOptions.from_dict(opts.to_dict()) == opts
        assert len(opts.to_dict()) == 6

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown option"):
            SolveOptions.from_dict({"deadline_s": 1.0, "bogus": True})
        # A field the layout no longer has is unknown too: refused, not
        # silently dropped, even at its old default.
        with pytest.raises(ValueError, match="unknown option"):
            SolveOptions.from_dict({"lazy_cuts": False})
        with pytest.raises(ValueError, match="unknown option"):
            SolveOptions.from_dict({"presolve": "off"})
        # A previous design is the only warm-start switch.
        with pytest.raises(ValueError, match="unknown option"):
            SolveOptions.from_dict({"warm_start": True})
        with pytest.raises(ValueError, match="unknown option"):
            SolveOptions.from_dict({"incremental": True})
        # Nothing read these: the transports arm telemetry from their
        # own flags, and every call shares an encode cache.
        for name, value in (
            ("cache", False), ("trace", "t.jsonl"), ("metrics", "m.prom"),
        ):
            with pytest.raises(ValueError, match="unknown option"):
                SolveOptions.from_dict({name: value})

    def test_derived_runtime_objects(self):
        opts = SolveOptions(deadline_s=5.0, max_retries=3)
        assert isinstance(opts.budget(), DeadlineBudget)
        assert opts.budget().remaining() == pytest.approx(5.0, abs=1.0)
        assert SolveOptions().budget() is None

    def test_replace(self):
        opts = SolveOptions(parallel=2)
        changed = opts.replace(deadline_s=1.0)
        assert changed.parallel == 2
        assert changed.deadline_s == 1.0
        assert opts.deadline_s is None  # frozen original untouched


class TestEntryPointsAcceptOptions:
    def test_explore_with_options_parallel(
        self, grid_instance, library, grid_requirements
    ):
        results = repro.explore(
            grid_instance.template, library, grid_requirements,
            objective=("cost", "energy"),
            options=SolveOptions(parallel=2),
        )
        assert len(results) == 2
        assert all(r.feasible for r in results)

    def test_explore_rejects_checkpoint_options(
        self, grid_instance, library, grid_requirements, tmp_path
    ):
        with pytest.raises(ValueError, match="checkpoint"):
            repro.explore(
                grid_instance.template, library, grid_requirements,
                options=SolveOptions(
                    checkpoint=str(tmp_path / "c.jsonl")
                ),
            )

    def test_explore_unknown_keyword_rejected(
        self, grid_instance, library, grid_requirements
    ):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.explore(
                grid_instance.template, library, grid_requirements,
                paralel=2,
            )
