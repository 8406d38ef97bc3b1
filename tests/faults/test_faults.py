"""Unit tests for the deterministic fault-injection plane (repro.faults)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import faults
from repro.faults import FaultInjected, FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _clean_plan():
    """Every test starts and ends with no installed plan."""
    faults.clear_installed()
    yield
    faults.clear_installed()


# ---------------------------------------------------------------------- #
# Spec / plan validation and serialization
# ---------------------------------------------------------------------- #
class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="x", kind="explode")

    @pytest.mark.parametrize("field,value", [("at", 0), ("times", 0), ("delay_s", -1.0)])
    def test_bad_counts_rejected(self, field, value):
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="error", **{field: value})

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="torn_write", fraction=fraction)

    def test_json_roundtrip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="mr.worker.*", kind="kill", at=2),
                FaultSpec(site="graph.snapshot", kind="bitflip", offset=17),
            ),
            seed=42,
            state_dir="/tmp/state",
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")


# ---------------------------------------------------------------------- #
# Activation and firing
# ---------------------------------------------------------------------- #
class TestActivation:
    def test_no_plan_is_noop(self):
        faults.inject("anything")  # must not raise

    def test_install_and_clear(self):
        FaultPlan(specs=(FaultSpec(site="s", kind="error"),)).install()
        assert faults.active_plan() is not None
        with pytest.raises(FaultInjected):
            faults.inject("s")
        faults.clear_installed()
        assert faults.active_plan() is None
        faults.inject("s")

    def test_file_indirection(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec(site="s", kind="error"),))
        path = plan.save(tmp_path / "plan.json")
        os.environ[faults.ENV_VAR] = f"@{path}"
        faults.reset_state()
        assert faults.active_plan() == plan

    def test_error_message_carries_site(self):
        FaultPlan(specs=(FaultSpec(site="io.read", kind="error", message="boom"),)).install()
        with pytest.raises(FaultInjected, match="io.read: boom"):
            faults.inject("io.read")

    def test_at_threshold_counts_hits(self):
        FaultPlan(specs=(FaultSpec(site="s", kind="error", at=3),)).install()
        faults.inject("s")
        faults.inject("s")
        with pytest.raises(FaultInjected):
            faults.inject("s")

    def test_times_caps_firings(self):
        FaultPlan(specs=(FaultSpec(site="s", kind="error", times=2),)).install()
        for _ in range(2):
            with pytest.raises(FaultInjected):
                faults.inject("s")
        faults.inject("s")  # budget spent: silent

    def test_fnmatch_site_patterns(self):
        FaultPlan(specs=(FaultSpec(site="suite.cell:*", kind="error", times=99),)).install()
        with pytest.raises(FaultInjected):
            faults.inject("suite.cell:table1/mesh")
        faults.inject("suite.runner")  # no match

    def test_hang_sleeps(self):
        import time

        FaultPlan(specs=(FaultSpec(site="s", kind="hang", delay_s=0.05),)).install()
        start = time.monotonic()
        faults.inject("s")
        assert time.monotonic() - start >= 0.04


class TestGlobalTickets:
    def test_state_dir_caps_across_processes(self, tmp_path):
        """times=2 with a state_dir fires exactly twice across 5 processes."""
        plan = FaultPlan(
            specs=(FaultSpec(site="s", kind="error", times=2),),
            state_dir=str(tmp_path / "state"),
        )
        code = (
            "import sys\n"
            "from repro import faults\n"
            "try:\n"
            "    faults.inject('s')\n"
            "except faults.FaultInjected:\n"
            "    sys.exit(3)\n"
            "sys.exit(0)\n"
        )
        env = dict(os.environ, REPRO_FAULT_PLAN=plan.to_json())
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.join(os.path.dirname(faults.__file__), "..", ".."),
            env.get("PYTHONPATH", ""),
        ]))
        fired = sum(
            subprocess.run([sys.executable, "-c", code], env=env).returncode == 3
            for _ in range(5)
        )
        assert fired == 2


# ---------------------------------------------------------------------- #
# File corruption
# ---------------------------------------------------------------------- #
class TestCorruptFile:
    def test_torn_write_truncates(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(256)) * 4)
        FaultPlan(specs=(FaultSpec(site="w", kind="torn_write", fraction=0.25),)).install()
        assert faults.corrupt_file("w", path)
        assert path.stat().st_size == 256

    def test_bitflip_changes_one_byte(self, tmp_path):
        path = tmp_path / "f.bin"
        original = bytes(range(256)) * 4
        path.write_bytes(original)
        FaultPlan(specs=(FaultSpec(site="w", kind="bitflip"),), seed=9).install()
        assert faults.corrupt_file("w", path)
        corrupted = path.read_bytes()
        assert len(corrupted) == len(original)
        assert sum(a != b for a, b in zip(original, corrupted)) == 1

    def test_bitflip_is_seed_deterministic(self, tmp_path):
        blob = bytes(range(256)) * 4
        flips = []
        for run in range(2):
            path = tmp_path / f"f{run}.bin"
            path.write_bytes(blob)
            FaultPlan(specs=(FaultSpec(site="w", kind="bitflip"),), seed=9).install()
            faults.corrupt_file("w", path)
            flips.append(path.read_bytes())
        assert flips[0] == flips[1]

    def test_explicit_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"\x00" * 64)
        FaultPlan(specs=(FaultSpec(site="w", kind="bitflip", offset=10),)).install()
        faults.corrupt_file("w", path)
        data = path.read_bytes()
        assert data[10] == 0x01 and data.count(0x01) == 1

    def test_no_plan_returns_false(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"data")
        assert not faults.corrupt_file("w", path)
        assert path.read_bytes() == b"data"

    def test_missing_file_is_silent(self, tmp_path):
        FaultPlan(specs=(FaultSpec(site="w", kind="bitflip"),)).install()
        assert not faults.corrupt_file("w", tmp_path / "nope.bin")


def test_env_var_round_trips_through_subprocess_env(tmp_path):
    """A plan installed in the parent is visible to children via the env."""
    plan = FaultPlan(specs=(FaultSpec(site="child.site", kind="error"),), seed=5)
    plan.install()
    raw = os.environ[faults.ENV_VAR]
    assert json.loads(raw)["seed"] == 5
    assert FaultPlan.from_json(raw) == plan
