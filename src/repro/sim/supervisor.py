"""Run supervision: periodic checkpoints, resume, wall-clock watchdog.

The ROADMAP's production-scale north star needs long simulations that
survive faults instead of dying at access 3 million.  The supervisor
wraps :meth:`repro.sim.simulator.Simulator.run` with these behaviours:

- **Checkpointing** -- every ``checkpoint_every`` accesses the whole
  simulator object (controller, caches, DRAM queues, RNG streams, clock,
  and the loop's :class:`~repro.sim.simulator.RunProgress`) is pickled
  atomically to ``checkpoint_path``.  Restoring with
  :func:`load_checkpoint` and calling ``run()`` again continues the
  replay with bit-identical results: RNG state is part of the pickle.
  Access indices count the accesses executed so far, over every core
  of a multi-core run, whose per-core positions and clocks ride in
  ``RunProgress``.
- **Wall-clock watchdog** -- when ``wall_clock_limit_s`` elapses the run
  stops *gracefully*: a final checkpoint is written and a partial
  :class:`~repro.sim.results.SimResult` flagged ``truncated`` (with the
  stop reason in ``error``) is still returned, so ``--emit-json``
  consumers get every metric collected so far.
- **Batch cuts** -- the replay loop runs its batched front end only up
  to the next index at which :meth:`RunSupervisor.on_access` can act
  (:meth:`RunSupervisor.next_check`), so checkpoints and the watchdog
  see the simulator at exactly the access index they name.
- **Error structuring** -- checkpoint I/O failures surface as
  :class:`~repro.common.errors.ResourceError`; malformed checkpoint
  files as :class:`~repro.common.errors.ConfigError` (see the taxonomy
  in :mod:`repro.common.errors`).

Checkpoint format: a pickle of ``{"version", "workload", "controller",
"access_index", "simulator"}``.  The header fields exist so tools can
identify a checkpoint without unpickling the (large) simulator; the
version gate keeps stale files from resuming silently wrong.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Callable, Optional

from repro.common.errors import (  # noqa: F401  (re-exported taxonomy)
    ConfigError,
    ModelInvariantError,
    ResourceError,
    SimError,
    classify_error,
)
from repro.sim.results import SimResult
from repro.sim.simulator import RunProgress, Simulator

#: Bump when the pickled layout changes incompatibly.
CHECKPOINT_VERSION = 2

#: The watchdog samples the wall clock once per this many accesses --
#: cheap enough to leave on, coarse enough to stay off the hot path.
_WATCHDOG_STRIDE = 64


def save_checkpoint(sim: Simulator, path: str) -> None:
    """Atomically pickle the simulator (and its progress) to ``path``.

    Event-bus subscribers (closures over open trace files) are detached
    around the dump and restored afterwards; everything else the run
    depends on -- component state, RNG streams, fault-injector position,
    the clock -- is captured by value.
    """
    state = sim._run_state
    saved_subscribers = sim.context.bus.detach_subscribers()
    saved_owned = sim.context.detach_owned()
    try:
        payload = pickle.dumps({
            "version": CHECKPOINT_VERSION,
            "workload": sim.workload.name,
            "controller": sim.controller_name,
            "access_index": state.index if state is not None else 0,
            "simulator": sim,
        }, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise ResourceError(
            f"cannot serialize simulator state: {error}") from error
    finally:
        sim.context.restore_owned(saved_owned)
        sim.context.bus.restore_subscribers(saved_subscribers)
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
            # Durability, not just atomicity: the tmp file's bytes must
            # be on disk before the rename, and the rename itself must
            # be journalled (the directory fsync), or a power cut can
            # leave `path` pointing at a zero-length file.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        _fsync_directory(os.path.dirname(path) or ".")
    except OSError as error:
        raise ResourceError(
            f"cannot write checkpoint to {path!r}: {error}") from error


def _fsync_directory(path: str) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some platforms/filesystems refuse O_RDONLY directory
    fsync -- there the rename is as durable as the OS makes it."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_checkpoint(path: str) -> Simulator:
    """Restore a simulator saved by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
    except OSError as error:
        raise ResourceError(
            f"cannot read checkpoint {path!r}: {error}") from error
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as error:
        raise ConfigError(
            f"{path!r} is not a repro checkpoint: {error}") from error
    if not isinstance(record, dict) or "simulator" not in record:
        raise ConfigError(f"{path!r} is not a repro checkpoint")
    version = record.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint {path!r} has version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    return record["simulator"]


class RunSupervisor:
    """Drives a supervised (checkpointed, watchdogged) simulation run."""

    def __init__(
        self,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        wall_clock_limit_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint interval must be >= 0, got {checkpoint_every}")
        if checkpoint_every and not checkpoint_path:
            raise ConfigError(
                "checkpoint_every needs a checkpoint_path to write to")
        if wall_clock_limit_s is not None and wall_clock_limit_s <= 0:
            raise ConfigError(
                f"wall-clock limit must be > 0 s, got {wall_clock_limit_s}")
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.wall_clock_limit_s = wall_clock_limit_s
        self._clock = clock
        #: Liveness callback, invoked once per watchdog stride.  The
        #: sweep worker pool points this at its shared heartbeat slot
        #: so the parent can tell a slow job from a hung child.
        self.heartbeat = heartbeat
        self._deadline: Optional[float] = None
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    # Simulator-facing hook
    # ------------------------------------------------------------------

    def on_access(self, sim: Simulator,
                  state: RunProgress) -> Optional[str]:
        """Called before the run's first access and before every access
        :meth:`next_check` names; a non-None return stops the run."""
        if (self.checkpoint_every and state.index
                and state.index % self.checkpoint_every == 0):
            save_checkpoint(sim, self.checkpoint_path)
            self.checkpoints_written += 1
        if state.index % _WATCHDOG_STRIDE == 0:
            if self.heartbeat is not None:
                self.heartbeat()
            if (self._deadline is not None
                    and self._clock() >= self._deadline):
                return (f"wall-clock limit of {self.wall_clock_limit_s} s "
                        f"reached at access {state.index}")
        return None

    def next_check(self, index: int) -> int:
        """The first access index after ``index`` at which
        :meth:`on_access` acts: the next watchdog stride or checkpoint."""
        check = index - index % _WATCHDOG_STRIDE + _WATCHDOG_STRIDE
        every = self.checkpoint_every
        if every:
            check = min(check, index - index % every + every)
        return check

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, sim: Simulator,
            warmup_fraction: float = 0.2) -> SimResult:
        """Run (or resume) ``sim`` under supervision.

        On watchdog truncation a final checkpoint is written (when a
        path is configured) so ``--resume`` can pick the run back up,
        and the partial result comes back flagged ``truncated``.
        """
        if self.wall_clock_limit_s is not None:
            self._deadline = self._clock() + self.wall_clock_limit_s
        result = sim.run(warmup_fraction=warmup_fraction, supervisor=self)
        if result.truncated and self.checkpoint_path:
            save_checkpoint(sim, self.checkpoint_path)
            self.checkpoints_written += 1
        return result
