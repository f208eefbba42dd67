"""Batched execution over a Menshen pipeline with compiled classification.

:class:`BatchEngine` drives packets through an existing
:class:`~repro.core.pipeline.MenshenPipeline` in batches, preserving the
scalar path's observable behavior packet-for-packet while amortizing the
per-packet costs:

* **Per-VID sharded dispatch.** A batch is admitted in arrival order
  (filter verdicts, statistics, §3.2 packet-buffer slots), then executed
  shard-by-shard — one shard per tenant VID — and committed back to the
  traffic manager in arrival order. Tenants share no data-plane state
  (overlay config, segmented stateful memory), so per-shard execution
  is observationally identical to interleaved scalar execution.
* **Compiled classification.** Each packet is run through its tenant's
  :class:`~repro.engine.classifier.CompiledClassifier` — the installed
  configuration flattened at the current ``config_epoch`` into
  parse-plan copies, per-stage interval/hash match structures, and
  pre-decoded ALU op tuples. A compiled hit produces the same
  ``(merged, phv)`` the scalar walk would and skips the interpreted
  pipeline entirely. Any configuration write that lands through the
  daisy chain — every ``repro.api`` table insert/delete, transaction,
  module load/update/evict — bumps the epoch, so the classifier is
  rebuilt lazily before the next packet can observe stale rules;
  :meth:`BatchEngine.invalidate` additionally drops it eagerly.
* **Certification (``check_compiled``).** Every lazy classifier rebuild
  can be statically certified equivalent to the installed tables by
  :func:`repro.analysis.equiv.certify_classifier` — ``enforce`` refuses
  an uncertified compiled path (packets take the scalar oracle, counted
  under the ``uncertified`` fallback reason), ``warn`` emits an
  :class:`~repro.analysis.verify.AnalysisWarning`, ``off`` (default)
  skips the check. The mode defaults from ``REPRO_ENGINE_CERTIFY``;
  certificates are kept in :attr:`BatchEngine.certificates` per VID.
* **Stateful bypass.** Compiled leaves that would touch stateful memory
  bail to the scalar walk per packet (state-carrying modules like
  NetCache/NetChain take the full pipeline, as they must). This is also
  why register writes (``tenant.register(...).write``), which bypass
  the daisy chain, need no invalidation: no compiled leaf replays a
  stateful op.

The hot path is therefore two-level — compiled classification → scalar
pipeline fallback — with :class:`EngineCounters` attributing every
packet to one level (``compiled_hits``, or ``classifier_fallbacks`` by
reason) and ``compile_rebuilds`` counting epoch-driven recompiles.

Epoch granularity is a deliberate tradeoff: ``config_epoch`` is
pipeline-global because CAM/VLIW rows are physically shared (the
pipeline cannot attribute a row write to a tenant; only the controller's
partitioning makes rows tenant-owned). One tenant's rule churn therefore
recompiles — never corrupts — other tenants' classifiers; the API-level
:meth:`BatchEngine.invalidate` calls scope the *eager* drop per VID,
and the global epoch is the conservative backstop.

Mid-batch reconfiguration (Corundum mode, where configuration packets
arrive on the shared ingress) is honored exactly: the engine flushes all
pending shards before delivering a reconfiguration packet, so packets
behind it in the batch observe the new configuration and packets ahead
of it the old one — same as scalar processing.

Equivalence contract: for any packet sequence, ``process_batch`` yields
results equal field-for-field (output bytes, PHV, drop reason, egress,
multicast, statistics) to ``pipeline.process`` called packet by packet.
Traffic-manager state matches up to scheduling: with the plain FIFO TM
the queue contents are identical; with the weighted-fair
:class:`~repro.engine.scheduler.EgressScheduler` that
``switch.engine()`` installs by default, service order may interleave
*across* tenants (that is the scheduler's job) but per-port packet
multisets and per-(port, tenant) orderings are identical — exactly
what ``tests/test_engine_differential.py`` enforces across all eight
evaluated modules. The only exception is error paths: if execution
raises (e.g. a parse fault), the batch aborts mid-flight and
packet-buffer round-robin parity with the scalar path is not
guaranteed.
"""

from __future__ import annotations

import copy
import os
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.pipeline import MenshenPipeline
from ..core.stats import assign_counters, diff_counters, merge_counters
from ..net.packet import Packet
from ..rmt.pipeline import PipelineResult
from .classifier import (
    ClassifierStats,
    CompiledClassifier,
    Fallback,
    compile_classifier,
)

if TYPE_CHECKING:  # pragma: no cover — type-only; engine never imports
    from ..analysis.equiv import Certificate  # analysis eagerly

#: Certification modes for ``BatchEngine(check_compiled=...)``,
#: strictest first (mirrors the admission gate's VERIFY_MODES).
CERTIFY_MODES = ("enforce", "warn", "off")

#: Every reason the classifier level can hand a packet back to the
#: scalar oracle (the keys of ``EngineCounters.classifier_fallbacks``).
FALLBACK_REASONS = ("stateful", "unsupported-action", "uncompilable",
                    "parse-window", "uncertified")


def certify_default_mode() -> str:
    """Default for ``BatchEngine(check_compiled=None)``.

    The ``REPRO_ENGINE_CERTIFY`` environment variable selects the
    certification mode for compiled classifiers: ``enforce`` (also
    ``on``/``1``/``true``/``yes``) certifies on every lazy rebuild and
    refuses the compiled path on a violated certificate; ``warn``
    certifies but only emits an ``AnalysisWarning``; unset or
    ``off``/``0``/``false``/``no`` skips certification entirely.
    """
    value = os.environ.get("REPRO_ENGINE_CERTIFY")
    if value is None:
        return "off"
    normalized = value.strip().lower()
    if normalized in ("", "0", "off", "false", "no"):
        return "off"
    if normalized in ("1", "on", "true", "yes", "enforce"):
        return "enforce"
    if normalized == "warn":
        return "warn"
    raise ValueError(
        f"REPRO_ENGINE_CERTIFY={value!r} is not one of {CERTIFY_MODES}")


def classifier_default_enabled() -> bool:
    """Default for ``BatchEngine(enable_classifier=None)``.

    The ``REPRO_ENGINE_CLASSIFIER`` environment variable turns the
    compiled-classification level off (``off``/``0``/``false``/``no``)
    or on (anything else, including ``on``); unset means on. CI uses it
    to pin the differential suites with the classifier force-enabled.
    """
    value = os.environ.get("REPRO_ENGINE_CLASSIFIER")
    if value is None:
        return True
    return value.strip().lower() not in ("0", "off", "false", "no")


@dataclass
class EngineTenantCounters:
    """One tenant's slice of the engine counters."""

    packets: int = 0
    compiled_hits: int = 0
    drops: int = 0
    bytes_out: int = 0


@dataclass
class EngineCounters:
    """Engine-level accounting, overall and per tenant.

    ``compiled_hits`` counts packets the compiled classifier served;
    ``classifier_fallbacks`` histograms (by reason) the packets it
    handed back to the scalar pipeline. ``cache_hits`` is always 0:
    the engine has no exact-match cache level, and the field stays so
    readers of the hot-path level shares keep one schema.
    ``invalidation_calls`` counts :meth:`BatchEngine.invalidate` calls.

    Aggregation (:meth:`merge_from` / :meth:`delta_since` /
    :meth:`assign_from`) is introspected from the dataclass fields by
    :mod:`repro.core.stats`'s generic counter algebra — used by the
    parallel execution backend's per-switch result frames, and
    guaranteed by construction never to drop a newly added counter.
    """

    batches: int = 0
    packets: int = 0
    cache_hits: int = 0
    compiled_hits: int = 0
    early_drops: int = 0
    drops: int = 0
    reconfig_flushes: int = 0
    invalidation_calls: int = 0
    compile_rebuilds: int = 0
    classifier_fallbacks: Dict[str, int] = field(default_factory=dict)
    per_tenant: Dict[int, EngineTenantCounters] = field(default_factory=dict)

    def tenant(self, vid: int) -> EngineTenantCounters:
        counters = self.per_tenant.get(vid)
        if counters is None:
            counters = self.per_tenant[vid] = EngineTenantCounters()
        return counters

    def merge_from(self, other: "EngineCounters") -> None:
        """Add another engine's counters into this one (introspected;
        per-tenant sub-counters merge recursively)."""
        merge_counters(self, other)

    def snapshot(self) -> "EngineCounters":
        """An independent deep copy (a worker's start-of-run baseline)."""
        return copy.deepcopy(self)

    def delta_since(self, baseline: "EngineCounters") -> "EngineCounters":
        """A fresh ``EngineCounters`` holding ``self - baseline`` — the
        engine slice of a parallel worker's result frame."""
        return diff_counters(self, baseline)

    def assign_from(self, other: "EngineCounters") -> None:
        """Overwrite this object's counters in place (snapshot restore)."""
        assign_counters(self, other)


class _ModuleLayout:
    """Parse/deparse reach of one module at one epoch.

    ``max_end`` is the furthest byte the module's parse program reads
    or its deparse program writes; a packet shorter than that (or a
    parse window narrower) cannot take the compiled path.
    """

    __slots__ = ("epoch", "max_end")

    def __init__(self, epoch: int, max_end: int):
        self.epoch = epoch
        self.max_end = max_end


class BatchEngine:
    """High-throughput batched executor over one Menshen pipeline."""

    def __init__(self, pipeline: MenshenPipeline,
                 enable_classifier: Optional[bool] = None,
                 check_compiled: Optional[str] = None):
        """``enable_classifier`` turns the compiled level on or off
        (``None`` defers to ``REPRO_ENGINE_CLASSIFIER``, default on);
        off, every packet takes the scalar walk.

        ``check_compiled`` selects the certification mode for the
        compiled-classification level: every lazy rebuild is certified
        against the installed tables by
        :func:`repro.analysis.equiv.certify_classifier`. ``enforce``
        refuses the compiled path on a violated certificate (packets
        fall back to the scalar oracle, counted under ``uncertified``);
        ``warn`` emits an ``AnalysisWarning`` instead; ``off`` (the
        default) skips certification. ``None`` defers to the
        ``REPRO_ENGINE_CERTIFY`` environment variable.
        """
        if not isinstance(pipeline, MenshenPipeline):
            raise TypeError(
                f"BatchEngine drives a MenshenPipeline, got "
                f"{type(pipeline).__name__}")
        self.pipeline = pipeline
        if enable_classifier is None:
            enable_classifier = classifier_default_enabled()
        self.enable_classifier = enable_classifier
        if check_compiled is None:
            check_compiled = certify_default_mode()
        if check_compiled not in CERTIFY_MODES:
            raise ValueError(
                f"unknown check_compiled mode {check_compiled!r}; "
                f"expected one of {CERTIFY_MODES}")
        self.check_compiled = check_compiled
        self.counters = EngineCounters()
        self.certificates: Dict[int, "Certificate"] = {}
        self._refused: Dict[int, bool] = {}
        self._layouts: Dict[int, _ModuleLayout] = {}
        self._classifiers: Dict[int, CompiledClassifier] = {}

    # -- compiled-state management ----------------------------------------------

    def invalidate(self, vid: Optional[int] = None) -> None:
        """Drop compiled state (one tenant's, or everything).

        ``repro.api`` calls this when a tenant commits a transaction, is
        updated, or is evicted. The epoch check already keeps a stale
        classifier from serving; dropping it here also frees its
        layout, classifier, and certificate immediately.
        ``counters.invalidation_calls`` grows by one per call.
        """
        if vid is None:
            self._layouts.clear()
            self._classifiers.clear()
            self.certificates.clear()
            self._refused.clear()
        else:
            self._layouts.pop(vid, None)
            self._classifiers.pop(vid, None)
            self.certificates.pop(vid, None)
            self._refused.pop(vid, None)
        self.counters.invalidation_calls += 1

    def classifier_stats(self) -> Dict[int, ClassifierStats]:
        """Shape summaries of the currently compiled classifiers."""
        return {vid: clf.stats() for vid, clf in self._classifiers.items()}

    def _classifier(self, vid: int, epoch: int) -> CompiledClassifier:
        clf = self._classifiers.get(vid)
        if clf is None or clf.epoch != epoch:
            clf = compile_classifier(self.pipeline, vid, epoch)
            self._classifiers[vid] = clf
            self.counters.compile_rebuilds += 1
            if self.check_compiled != "off":
                self._certify(vid, clf)
        return clf

    def _certify(self, vid: int, clf: CompiledClassifier) -> None:
        # Lazy import: the engine must stay importable without dragging
        # the analysis layer in — only certifying engines pay for it.
        from ..analysis.equiv import certify_classifier

        certificate = certify_classifier(self.pipeline, clf, vid=vid)
        self.certificates[vid] = certificate
        if certificate.ok:
            self._refused.pop(vid, None)
            return
        if self.check_compiled == "enforce":
            self._refused[vid] = True
        elif self.check_compiled == "warn":
            from ..analysis.verify import AnalysisWarning

            warnings.warn(
                AnalysisWarning(
                    f"compiled classifier for vid {vid} failed "
                    f"certification:\n{certificate.render()}"),
                stacklevel=3)

    def _count_fallback(self, reason: str) -> None:
        fallbacks = self.counters.classifier_fallbacks
        fallbacks[reason] = fallbacks.get(reason, 0) + 1

    def _layout(self, vid: int) -> _ModuleLayout:
        layout = self._layouts.get(vid)
        epoch = self.pipeline.config_epoch
        if layout is None or layout.epoch != epoch:
            parse = self.pipeline.parser.read_program(vid)
            deparse = self.pipeline.deparser.read_program(vid)
            max_end = max((a.bytes_from_head + a.container.size_bytes
                           for a in (*parse, *deparse)), default=0)
            layout = _ModuleLayout(epoch, max_end)
            self._layouts[vid] = layout
        return layout

    # -- data plane ---------------------------------------------------------------

    def process(self, packet: Packet) -> PipelineResult:
        """Single-packet convenience wrapper around :meth:`process_batch`."""
        return self.process_batch([packet])[0]

    def process_batch(self, packets: Sequence[Packet]
                      ) -> List[PipelineResult]:
        """Process a batch; results are in submission order.

        Reconfiguration packets act as barriers: pending shards flush
        before the configuration write is delivered.
        """
        self.counters.batches += 1
        self.counters.packets += len(packets)
        results: List[Optional[PipelineResult]] = [None] * len(packets)
        run: List[int] = []
        is_reconfig = self.pipeline.packet_filter.is_reconfig_packet
        for i, packet in enumerate(packets):
            if is_reconfig(packet):
                self._flush(run, packets, results)
                run = []
                self.counters.reconfig_flushes += 1
                early, _vid = self.pipeline.admit(packet)
                results[i] = early
            else:
                run.append(i)
        self._flush(run, packets, results)
        return results  # type: ignore[return-value]

    # -- the three phases -------------------------------------------------------

    def _flush(self, run: List[int], packets: Sequence[Packet],
               results: List[Optional[PipelineResult]]) -> None:
        """Admit (in order) -> execute (per shard) -> commit (in order)."""
        if not run:
            return
        pipeline = self.pipeline
        assign_buffer = pipeline.packet_filter.assign_buffer

        shards: Dict[int, List[Tuple[int, Packet, int]]] = {}
        for i in run:
            packet = packets[i]
            early, vid = pipeline.admit(packet)
            if early is not None:
                results[i] = early
                self.counters.early_drops += 1
                if vid:
                    tenant = self.counters.tenant(vid)
                    tenant.packets += 1
                    tenant.drops += 1
                continue
            shards.setdefault(vid, []).append((i, packet, assign_buffer()))

        executed: Dict[int, Tuple[Optional[Packet], object, int]] = {}
        for vid, items in shards.items():
            for i, packet, slot in items:
                executed[i] = self._execute_one(vid, packet, slot)

        for i in run:
            if results[i] is not None:
                continue
            merged, phv, vid = executed[i]
            result = pipeline.commit(merged, phv, vid)
            results[i] = result
            tenant = self.counters.tenant(vid)
            tenant.packets += 1
            if result.forwarded:
                tenant.bytes_out += len(result.packet)
            else:
                tenant.drops += 1
                self.counters.drops += 1

    def _execute_one(self, vid: int, packet: Packet,
                     slot: int) -> Tuple[Optional[Packet], object, int]:
        """Serve one admitted packet: compiled, else the scalar walk."""
        pipeline = self.pipeline
        if self.enable_classifier:
            layout = self._layout(vid)
            window = min(len(packet), pipeline.params.parse_window_bytes)
            if layout.max_end <= window:
                clf = self._classifier(vid, pipeline.config_epoch)
                if self._refused.get(vid):
                    # Certification (enforce mode) found the compiled
                    # artifact inequivalent: refuse the compiled path
                    # entirely and let the scalar oracle serve.
                    self._count_fallback("uncertified")
                elif clf.ok:
                    outcome = clf.classify(packet, slot)
                    if type(outcome) is Fallback:
                        self._count_fallback(outcome.reason)
                    else:
                        self.counters.compiled_hits += 1
                        self.counters.tenant(vid).compiled_hits += 1
                        merged, phv = outcome
                        return (merged, phv, vid)
                else:
                    self._count_fallback("uncompilable")
            else:
                self._count_fallback("parse-window")

        # The scalar pipeline walk (the differential oracle).
        merged, phv = pipeline.execute(packet, vid, buffer_slot=slot)
        return (merged, phv, vid)
