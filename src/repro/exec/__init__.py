"""``repro.exec`` — the unified execution core.

One :class:`ExecutionCore` owns the engine-drain / departure-routing
loop both serving frontends used to re-implement: untimed multi-hop
waves (:func:`repro.fabric.forwarding.process_batch`) and exact
event-driven fabric service
(:class:`repro.sim.fabric_timeline.FabricTimelineExperiment`, which
also runs the single-switch Fig. 10 timeline as a one-switch fabric).
The core is parameterized by topology (a fabric's members) and timing
policy (waves, or a :class:`repro.sim.kernel.Simulator`); frontends
are result shaping over an :class:`ExecutionSink`.

:class:`~repro.exec.records.LostRecord` is the shared typed currency
for link-down losses, so the untimed and timed paths report dropped
traffic in one comparable shape.

:mod:`repro.exec.parallel` shards either policy across worker
processes — one worker per switch, conservative time-sync on the
timeline path — selected per call (``backend="process"``) or via
``REPRO_EXEC_BACKEND``.
"""

from .core import ExecutionCore, ExecutionSink, vid_of
from .parallel import (
    EXEC_BACKENDS,
    FabricOp,
    LinkStateOp,
    TenantUpdateOp,
    default_backend,
    default_workers,
    resolve_backend,
)
from .records import LostRecord, summarize_lost

__all__ = [
    "ExecutionCore",
    "ExecutionSink",
    "vid_of",
    "LostRecord",
    "summarize_lost",
    "EXEC_BACKENDS",
    "FabricOp",
    "TenantUpdateOp",
    "LinkStateOp",
    "default_backend",
    "default_workers",
    "resolve_backend",
]
