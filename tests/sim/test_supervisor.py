"""Run-supervision tests: checkpoints, resume, and the wall-clock watchdog.

The acceptance bar is exact: a run interrupted by the supervisor and
resumed from its checkpoint must produce the same :class:`SimResult` as
an uninterrupted run, down to the last float (RNG streams, clock, and
fault-injector position all travel in the checkpoint).
"""

import os
import pickle

import pytest

from repro.common.errors import ConfigError, ResourceError
from repro.sim.faults import FaultPlan
from repro.sim.simulator import Simulator
from repro.sim.supervisor import (
    CHECKPOINT_VERSION,
    RunSupervisor,
    load_checkpoint,
    save_checkpoint,
)
from repro.workloads.suite import workload_by_name


def small_sim(**kwargs):
    workload = workload_by_name("mcf", max_accesses=6000, scale=0.12)
    return Simulator(workload, controller="tmcc", seed=3, **kwargs)


class SteppingClock:
    """Deterministic stand-in for time.monotonic: +1 s per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

def test_periodic_checkpoints_do_not_perturb_the_run(tmp_path):
    path = str(tmp_path / "ck.pkl")
    baseline = small_sim().run()
    supervisor = RunSupervisor(checkpoint_path=path, checkpoint_every=300)
    supervised = supervisor.run(small_sim())
    assert supervisor.checkpoints_written > 0
    assert supervised.as_dict() == baseline.as_dict()


def test_resume_from_mid_run_checkpoint_matches_uninterrupted(tmp_path):
    path = str(tmp_path / "ck.pkl")
    baseline = small_sim().run()
    RunSupervisor(checkpoint_path=path, checkpoint_every=300).run(small_sim())
    resumed = load_checkpoint(path).run()  # continues from the last 300
    assert resumed.as_dict() == baseline.as_dict()


def test_watchdog_truncation_then_resume_matches_uninterrupted(tmp_path):
    """The acceptance scenario: interrupt via wall-clock watchdog, write
    the final checkpoint, resume, and land on the identical result."""
    path = str(tmp_path / "ck.pkl")
    baseline = small_sim().run()
    supervisor = RunSupervisor(checkpoint_path=path, wall_clock_limit_s=5.0,
                               clock=SteppingClock())
    partial = supervisor.run(small_sim())
    assert partial.truncated
    assert "wall-clock limit" in partial.error
    assert partial.accesses < baseline.accesses
    assert supervisor.checkpoints_written == 1  # the truncation checkpoint
    resumed = load_checkpoint(path).run()
    assert not resumed.truncated
    assert resumed.as_dict() == baseline.as_dict()


def test_two_core_resume_from_mid_run_checkpoint_matches_uninterrupted(
        tmp_path):
    """Per-core positions and clocks travel in the checkpoint."""
    path = str(tmp_path / "ck.pkl")
    two_cores = {"cores": 2, "placement_drift": 0.0}
    baseline = small_sim(**two_cores).run()
    supervisor = RunSupervisor(checkpoint_path=path, checkpoint_every=300)
    supervised = supervisor.run(small_sim(**two_cores))
    assert supervised.as_dict() == baseline.as_dict()
    resumed = load_checkpoint(path)
    state = resumed._run_state
    assert state.index == len(resumed.workload.trace) // 300 * 300
    # Core c has replayed trace indices c, c + 2, ... below positions[c].
    assert sum((position - core) // 2
               for core, position in enumerate(state.positions)) == state.index
    assert resumed.run().as_dict() == baseline.as_dict()


def test_two_core_watchdog_truncation_then_resume_matches_uninterrupted(
        tmp_path):
    path = str(tmp_path / "ck.pkl")
    two_cores = {"cores": 2, "placement_drift": 0.0}
    baseline = small_sim(**two_cores).run()
    supervisor = RunSupervisor(checkpoint_path=path, wall_clock_limit_s=5.0,
                               clock=SteppingClock())
    partial = supervisor.run(small_sim(**two_cores))
    assert partial.truncated
    assert partial.accesses < baseline.accesses
    resumed = load_checkpoint(path).run()
    assert not resumed.truncated
    assert resumed.as_dict() == baseline.as_dict()


def test_truncated_result_still_carries_collected_metrics():
    supervisor = RunSupervisor(wall_clock_limit_s=3.0, clock=SteppingClock())
    partial = supervisor.run(small_sim())
    assert partial.truncated
    assert partial.metrics.get("tlb.total", 0) > 0


def test_faulted_run_resumes_identically(tmp_path):
    """Checkpoints capture the fault injector mid-sequence: the resumed
    half replays the exact same fault stream."""
    path = str(tmp_path / "ck.pkl")
    spec = "dram_read_error:0.02:2,stale_cte:0.02"
    baseline = small_sim(fault_plan=FaultPlan.parse(spec)).run()
    assert baseline.metrics["resilience.faults_injected"] > 0
    supervisor = RunSupervisor(checkpoint_path=path, checkpoint_every=250)
    first = supervisor.run(small_sim(fault_plan=FaultPlan.parse(spec)))
    assert first.as_dict() == baseline.as_dict()
    resumed = load_checkpoint(path).run()
    assert resumed.as_dict() == baseline.as_dict()


def test_checkpoint_detaches_then_restores_bus_subscribers(tmp_path):
    path = str(tmp_path / "ck.pkl")
    sim = small_sim()
    events = []
    sim.context.bus.subscribe_all(events.append)
    save_checkpoint(sim, path)
    assert sim.context.bus.active  # restored after the dump
    restored = load_checkpoint(path)
    assert not restored.context.bus.active  # but not pickled
    sim.run()
    assert events, "subscribers must keep firing after a checkpoint"


# ----------------------------------------------------------------------
# Durability and liveness
# ----------------------------------------------------------------------

def test_crash_between_write_and_replace_leaves_durable_tmp(
        tmp_path, monkeypatch):
    """A crash between the tmp write and the rename (simulated:
    os.replace raising) must never leave a torn final checkpoint, and
    the tmp file must already hold the complete fsynced payload."""
    path = str(tmp_path / "ck.pkl")
    fsynced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsynced.append(fd)
        return real_fsync(fd)

    def crash(src, dst):
        raise OSError("simulated crash between write and rename")

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(ResourceError, match="cannot write checkpoint"):
        save_checkpoint(small_sim(), path)
    assert not os.path.exists(path)  # the final path was never touched
    assert fsynced  # the payload hit disk before the rename attempt
    with open(path + ".tmp", "rb") as handle:
        record = pickle.load(handle)  # complete, not torn
    assert record["version"] == CHECKPOINT_VERSION


def test_checkpoint_write_fsyncs_file_then_directory(tmp_path,
                                                     monkeypatch):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    save_checkpoint(small_sim(), str(tmp_path / "ck.pkl"))
    assert len(calls) >= 2  # the tmp file's bytes, then the dir entry


def test_supervisor_heartbeat_fires_on_the_watchdog_stride():
    beats = []
    supervisor = RunSupervisor(heartbeat=lambda: beats.append(1))
    result = supervisor.run(small_sim())
    assert not result.truncated
    assert len(beats) >= result.accesses // 64


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

def test_load_checkpoint_missing_file_is_resource_error(tmp_path):
    with pytest.raises(ResourceError):
        load_checkpoint(str(tmp_path / "missing.pkl"))


def test_load_checkpoint_garbage_is_config_error(tmp_path):
    path = tmp_path / "garbage.pkl"
    path.write_text("this is not a pickle")
    with pytest.raises(ConfigError):
        load_checkpoint(str(path))


def test_load_checkpoint_rejects_wrong_version(tmp_path):
    path = tmp_path / "stale.pkl"
    path.write_bytes(pickle.dumps({"version": CHECKPOINT_VERSION + 1,
                                   "simulator": None}))
    with pytest.raises(ConfigError) as excinfo:
        load_checkpoint(str(path))
    assert "version" in str(excinfo.value)


def test_save_checkpoint_unwritable_path_is_resource_error(tmp_path):
    with pytest.raises(ResourceError):
        save_checkpoint(small_sim(), str(tmp_path / "no_dir" / "ck.pkl"))


def test_supervisor_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        RunSupervisor(checkpoint_every=-1)
    with pytest.raises(ConfigError):
        RunSupervisor(checkpoint_every=10)  # interval without a path
    with pytest.raises(ConfigError):
        RunSupervisor(wall_clock_limit_s=0.0)
