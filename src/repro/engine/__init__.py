"""Batched execution engine with compiled per-tenant classification.

The scalar path (``pipeline.process`` / ``switch.process``) pushes one
packet at a time through parser, stages, and deparser. This package adds
the serving layer a production deployment needs:

* :class:`~repro.engine.batch.BatchEngine` — batched, per-VID-sharded
  execution over an existing :class:`~repro.core.pipeline.MenshenPipeline`,
  packet-for-packet identical to the scalar path;
* :class:`~repro.engine.classifier.CompiledClassifier` — each tenant's
  installed tables compiled into flat interval/hash match structures
  with pre-decoded actions, so packets skip the interpreted pipeline
  walk; the scalar walk remains the fallback and the oracle;
* :class:`~repro.engine.scheduler.EgressScheduler` — weighted-fair
  (PIFO/STFQ) egress with per-tenant token-bucket rate limiting, the
  batched path's default traffic manager (§3.5 bandwidth isolation);
* engine counters (compiled hits, fallbacks by reason, drops,
  per-tenant throughput).

Quick start::

    switch = Switch.build().create()
    ...admit tenants, install entries...
    engine = switch.engine()            # or BatchEngine(switch.pipeline)
    results = engine.process_batch(packets)
    print(engine.counters.compiled_hits)
"""

from .batch import (
    CERTIFY_MODES,
    FALLBACK_REASONS,
    BatchEngine,
    EngineCounters,
    EngineTenantCounters,
    certify_default_mode,
)
from .classifier import (
    ClassifierStats,
    CompiledClassifier,
    Fallback,
    compile_classifier,
)
from .scheduler import (
    Departure,
    EgressScheduler,
    SchedulerTenantCounters,
    TokenBucket,
)

__all__ = [
    "BatchEngine",
    "CERTIFY_MODES",
    "FALLBACK_REASONS",
    "certify_default_mode",
    "EngineCounters",
    "EngineTenantCounters",
    "ClassifierStats",
    "CompiledClassifier",
    "Fallback",
    "compile_classifier",
    "EgressScheduler",
    "SchedulerTenantCounters",
    "TokenBucket",
    "Departure",
]
