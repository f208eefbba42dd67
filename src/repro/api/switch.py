"""The tenant-session facade: ``Switch``, ``Tenant``, and friends.

One coherent control surface over the four layers a caller used to
stitch together by hand (pipeline, controller, compiler, interface):

* :class:`SwitchBuilder` — ``Switch.build().stages(5).max_modules(32)
  .timing(...).create()`` constructs pipeline + interface + controller.
* :class:`Switch` — admits tenants, hosts the system-level module,
  processes packets, compiles against the switch's current target.
* :class:`Tenant` — an object-capability handle scoped to one VID.
  Every operation it exposes (tables, registers, counters, transactions,
  eviction, egress scheduling) can only ever touch that VID's
  resources; crossing the boundary raises
  :class:`~repro.errors.TenantIsolationError` at the API instead of
  corrupting a neighbor.
* :class:`Transaction` — batches table/register reconfiguration and
  applies it atomically under the §4.1 bitmap/counter protocol, rolling
  back applied operations if any step fails.

The facade also fronts the serving layer: :meth:`Switch.engine`
returns a batched :class:`~repro.engine.batch.BatchEngine` and (by
default) routes egress through the weighted-fair
:class:`~repro.engine.scheduler.EgressScheduler`, configured per
tenant via :meth:`Tenant.set_weight` / :meth:`Tenant.set_rate_limit`
/ :meth:`Tenant.clear_rate_limit`; every reconfiguration committed
through the facade drops the affected tenant's compiled classifier.
One switch is rarely the whole story — :mod:`repro.fabric` composes
many of these into leaf–spine topologies behind the same tenant
abstraction.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..compiler.target import TargetDescription
from ..core.pipeline import SYSTEM_MODULE_ID, MenshenPipeline
from ..analysis.findings import AnalysisReport
from ..analysis.verify import analyze_switch, check_mode
from ..engine.batch import BatchEngine
from ..engine.scheduler import EgressScheduler, SchedulerTenantCounters
from ..errors import (
    AdmissionError,
    RuntimeInterfaceError,
    TenantIsolationError,
    TransactionError,
)
from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, FieldSpec, Match, TableEntry
from ..rmt.params import DEFAULT_PARAMS, HardwareParams
from ..rmt.pipeline import PipelineResult
from ..runtime.controller import LoadedModule, MenshenController
from ..runtime.interface import SoftwareHardwareInterface
from .diagnostics import CompileResult, compile as compile_source

MatchLike = Union[Match, Mapping[str, FieldSpec]]
ActionLike = Union[ActionCall, str]


@dataclass(frozen=True)
class TenantCounters:
    """Per-tenant data-plane counters (the system-level statistics a
    tenant may read but never write).

    The egress fields are fed by the
    :class:`~repro.engine.scheduler.EgressScheduler` when one is
    installed (``switch.engine()`` does so by default) and stay zero on
    a pure-FIFO switch: ``egress_bytes_tx`` counts bytes actually
    transmitted on output links (dequeue-time semantics — queued is not
    transmitted), ``egress_queue_depth`` is the live §3.3 queue-length
    gauge for this tenant.
    """

    packets_in: int
    packets_out: int
    packets_dropped: int
    bytes_out: int
    egress_bytes_tx: int = 0
    egress_queue_depth: int = 0


class SwitchBuilder:
    """Fluent construction of a :class:`Switch`.

    Every knob that used to require knowing which of the four layers to
    poke lives here; ``create()`` assembles them in the right order.
    """

    def __init__(self) -> None:
        self._params: HardwareParams = DEFAULT_PARAMS
        self._num_ports = 8
        self._match_mode = "exact"
        self._enable_default_actions = False
        self._reconfig_from_dataplane = False
        self._policy = None
        self._max_load_retries = 5
        self._verify = "enforce"
        self._target: Optional[TargetDescription] = None
        self._t_sw_per_entry: Optional[float] = None
        self._t_daisy_per_packet: Optional[float] = None

    # -- hardware geometry ---------------------------------------------------

    def params(self, params: HardwareParams) -> "SwitchBuilder":
        """Start from a full :class:`HardwareParams` design point."""
        self._params = params
        return self

    def stages(self, num_stages: int) -> "SwitchBuilder":
        if num_stages < 1:
            raise ValueError(f"a pipeline needs >= 1 stage, got {num_stages}")
        self._params = replace(self._params, num_stages=num_stages)
        return self

    def max_modules(self, count: int) -> "SwitchBuilder":
        """Overlay depth = the number of concurrent tenants supported."""
        if not 1 <= count <= (1 << self._params.module_id_bits):
            raise ValueError(f"max_modules {count} does not fit the "
                             f"{self._params.module_id_bits}-bit module id")
        self._params = replace(
            self._params, parser_table_depth=count,
            key_extractor_depth=count, key_mask_depth=count,
            segment_table_depth=count)
        return self

    def ports(self, num_ports: int) -> "SwitchBuilder":
        self._num_ports = num_ports
        return self

    # -- pipeline personality ---------------------------------------------------

    def match_mode(self, mode: str) -> "SwitchBuilder":
        if mode not in ("exact", "ternary"):
            raise ValueError(f"match_mode must be 'exact' or 'ternary', "
                             f"got {mode!r}")
        self._match_mode = mode
        return self

    def ternary(self) -> "SwitchBuilder":
        """Appendix-B personality: TCAM stages, per-entry masks."""
        return self.match_mode("ternary")

    def default_actions(self, enabled: bool = True) -> "SwitchBuilder":
        self._enable_default_actions = enabled
        return self

    def reconfig_from_dataplane(self, enabled: bool = True) -> "SwitchBuilder":
        """Corundum-NIC mode: the shared ingress reaches the daisy chain."""
        self._reconfig_from_dataplane = enabled
        return self

    # -- control plane -----------------------------------------------------------

    def policy(self, policy) -> "SwitchBuilder":
        """Admission policy (e.g. :class:`repro.policy.DrfPolicy`)."""
        self._policy = policy
        return self

    def max_load_retries(self, retries: int) -> "SwitchBuilder":
        self._max_load_retries = retries
        return self

    def verify(self, mode: str = "enforce") -> "SwitchBuilder":
        """Static-verifier admission gate: ``"enforce"`` (default —
        ERROR findings reject the tenant), ``"warn"`` (admit, emitting
        :class:`repro.analysis.AnalysisWarning`), or ``"off"``."""
        self._verify = check_mode(mode)
        return self

    def target(self, target: TargetDescription) -> "SwitchBuilder":
        """Override the target user modules compile against (stage map,
        shared containers). Loading a system module re-derives it."""
        self._target = target
        return self

    def timing(self, t_sw_per_entry: Optional[float] = None,
               t_daisy_per_packet: Optional[float] = None) -> "SwitchBuilder":
        """Override the interface cost model (Fig. 9 / Fig. 12 scales)
        without touching :mod:`repro.runtime.interface` module globals."""
        if t_sw_per_entry is not None:
            self._t_sw_per_entry = t_sw_per_entry
        if t_daisy_per_packet is not None:
            self._t_daisy_per_packet = t_daisy_per_packet
        return self

    # -- assembly ---------------------------------------------------------------

    def create(self) -> "Switch":
        pipeline = MenshenPipeline(
            params=self._params,
            num_ports=self._num_ports,
            reconfig_from_dataplane=self._reconfig_from_dataplane,
            match_mode=self._match_mode,
            enable_default_actions=self._enable_default_actions)
        interface_kwargs = {}
        if self._t_sw_per_entry is not None:
            interface_kwargs["t_sw_per_entry"] = self._t_sw_per_entry
        if self._t_daisy_per_packet is not None:
            interface_kwargs["t_daisy_per_packet"] = self._t_daisy_per_packet
        interface = SoftwareHardwareInterface(pipeline, **interface_kwargs)
        controller = MenshenController(
            pipeline, interface=interface, policy=self._policy,
            max_load_retries=self._max_load_retries,
            verify=self._verify)
        if self._target is not None:
            controller._user_target = self._target
        return Switch(controller=controller)


class Switch:
    """One Menshen switch: the root object of the facade.

    Build a fresh one with :meth:`build`, or wrap an existing
    controller/pipeline (``Switch(controller=...)`` /
    ``Switch(pipeline=...)``) to adopt code written against the layered
    API.
    """

    def __init__(self, pipeline: Optional[MenshenPipeline] = None,
                 controller: Optional[MenshenController] = None):
        if controller is None:
            pipeline = pipeline or MenshenPipeline()
            controller = MenshenController(pipeline)
        elif pipeline is not None and controller.pipeline is not pipeline:
            raise ValueError(
                "controller belongs to a different pipeline; pass one "
                "or the other")
        self._controller = controller
        self._tenants: Dict[int, Tenant] = {}
        self._engines: List[BatchEngine] = []
        #: Per-tenant egress configuration, kept here so weights and
        #: rate limits set before the scheduler exists apply the moment
        #: one is installed (and survive a scheduler swap).
        self._egress_weights: Dict[int, float] = {}
        self._egress_rates: Dict[int, Tuple[float, Optional[float]]] = {}

    @staticmethod
    def build() -> SwitchBuilder:
        return SwitchBuilder()

    # -- layered escape hatches ------------------------------------------------

    @property
    def controller(self) -> MenshenController:
        return self._controller

    @property
    def pipeline(self) -> MenshenPipeline:
        return self._controller.pipeline

    @property
    def interface(self) -> SoftwareHardwareInterface:
        return self._controller.interface

    @property
    def params(self) -> HardwareParams:
        return self.pipeline.params

    # -- static analysis ---------------------------------------------------------

    def analyze(self, certify_classifiers: bool = True) -> AnalysisReport:
        """Run the config passes over everything currently loaded: the
        standing isolation proof (write-set disjointness, identity
        writes) for this switch's live configuration.

        With ``certify_classifiers`` (the default), each loaded tenant's
        compiled classifier is additionally certified equivalent to the
        installed tables (:mod:`repro.analysis.equiv`); any violated
        obligation lands in the report as an ``equiv-*`` ERROR finding.
        """
        report = analyze_switch(self._controller)
        if certify_classifiers:
            from ..analysis.equiv import certify_classifier
            for vid in self._controller.loaded_ids():
                certificate = certify_classifier(self.pipeline, vid=vid)
                report.merge(certificate.to_report())
        return report

    # -- system module ----------------------------------------------------------

    def install_system(self, source: Optional[str] = None,
                       vip_map: Optional[Dict[str, str]] = None,
                       routes: Optional[Dict[str, int]] = None,
                       mcast_routes: Iterable[Tuple[str, int]] = (),
                       counter_index: Optional[Dict[str, int]] = None
                       ) -> "Tenant":
        """Load the system-level module (§3.3) and install its entries.

        ``source`` defaults to the reference system program
        (:data:`repro.sysmod.SYSTEM_P4_SOURCE`). Returns the system
        tenant handle (VID 0) for counter reads and further entries.
        """
        from ..sysmod import system_module
        src = source if source is not None else system_module.SYSTEM_P4_SOURCE
        self._controller.load_system_module(src)
        system = Tenant(self, SYSTEM_MODULE_ID, "system")
        self._tenants[SYSTEM_MODULE_ID] = system
        for table, entry in system_module.system_entries(
                vip_map or {}, routes or {}, mcast_routes,
                counter_index or {}):
            system.table(table).insert(entry)
        return system

    # -- tenant lifecycle ---------------------------------------------------------

    def _free_vid(self) -> int:
        for vid in range(1, self.params.max_modules):
            if vid not in self._controller.modules:
                return vid
        raise AdmissionError(
            f"all {self.params.max_modules - 1} tenant VIDs are in use")

    def admit(self, name: str, source: str,
              vid: Optional[int] = None) -> "Tenant":
        """Compile, admission-check, and install a tenant's program.

        ``vid`` defaults to the lowest free VID. Returns the tenant
        handle that scopes all further operations.
        """
        if vid is None:
            vid = self._free_vid()
        self._controller.load_module(vid, source, name)
        tenant = Tenant(self, vid, name)
        self._tenants[vid] = tenant
        return tenant

    def tenant(self, vid_or_name: Union[int, str]) -> "Tenant":
        """Look up an admitted tenant by VID or name."""
        if isinstance(vid_or_name, int):
            if vid_or_name in self._tenants:
                return self._tenants[vid_or_name]
            # Adopt modules loaded through the layered API.
            loaded = self._controller._loaded(vid_or_name)
            tenant = Tenant(self, vid_or_name, loaded.name)
            self._tenants[vid_or_name] = tenant
            return tenant
        for tenant in [*self.tenants(), *self._tenants.values()]:
            if tenant.name == vid_or_name:
                return tenant
        raise RuntimeInterfaceError(f"no tenant named {vid_or_name!r}")

    def tenants(self) -> List["Tenant"]:
        """Handles for every loaded user module, in VID order."""
        return [self.tenant(vid) for vid in self._controller.loaded_ids()]

    # -- data plane ---------------------------------------------------------------

    def process(self, packet: Packet) -> PipelineResult:
        return self.pipeline.process(packet)

    def process_many(self, packets: List[Packet]) -> List[PipelineResult]:
        return self.pipeline.process_many(packets)

    def engine(self, scheduled: bool = True,
               line_rate_bps: Optional[float] = None,
               egress_queue_capacity: Optional[int] = None,
               enable_classifier: Optional[bool] = None,
               check_compiled: Optional[str] = None) -> BatchEngine:
        """A batched execution engine over this switch's pipeline.

        Engines obtained here are registered with the switch, so every
        transactional reconfiguration through the facade (transactions,
        ``tenant.update``, ``tenant.evict``) drops the affected
        tenant's compiled classifier the moment it commits, on top of
        the epoch check that already forces a rebuild.

        ``enable_classifier`` controls the compiled-classification level
        of the engine's hot path; ``None`` defers to the
        ``REPRO_ENGINE_CLASSIFIER`` environment variable (default on).
        ``check_compiled`` (``"enforce"`` / ``"warn"`` / ``"off"``)
        certifies every classifier rebuild against the installed tables
        (:mod:`repro.analysis.equiv`); ``None`` defers to
        ``REPRO_ENGINE_CERTIFY`` (default off).

        By default (``scheduled=True``) the switch's egress is routed
        through a weighted-fair :class:`~repro.engine.scheduler.
        EgressScheduler` instead of per-port FIFOs, so one bursty tenant
        can no longer starve the others on a shared output link.
        Configure it per tenant via :meth:`Tenant.set_weight` /
        :meth:`Tenant.set_rate_limit`; ``line_rate_bps`` gives the
        scheduler a transmission clock (needed for rate caps and the
        timeline's latency measurements). ``scheduled=False`` keeps the
        legacy FIFO path.
        """
        if scheduled:
            self.install_egress_scheduler(
                line_rate_bps=line_rate_bps,
                queue_capacity=egress_queue_capacity)
        engine = BatchEngine(self.pipeline,
                             enable_classifier=enable_classifier,
                             check_compiled=check_compiled)
        self._engines.append(engine)
        return engine

    @property
    def egress_scheduler(self) -> Optional[EgressScheduler]:
        """The installed egress scheduler, if any."""
        tm = self.pipeline.traffic_manager
        return tm if isinstance(tm, EgressScheduler) else None

    def install_egress_scheduler(self, line_rate_bps: Optional[float] = None,
                                 queue_capacity: Optional[int] = None
                                 ) -> EgressScheduler:
        """Swap the pipeline's FIFO traffic manager for a weighted-fair
        :class:`~repro.engine.scheduler.EgressScheduler`.

        Idempotent: an already-installed scheduler is kept (its line
        rate is upgraded if one is supplied here and none was set).
        Multicast groups and any queued packets carry over; pending
        per-tenant weights and rate limits recorded through tenant
        handles are applied.
        """
        old = self.pipeline.traffic_manager
        scheduler = self.egress_scheduler
        if scheduler is None:
            scheduler = EgressScheduler(
                num_ports=old.num_ports,
                queue_capacity=(queue_capacity if queue_capacity is not None
                                else old.queue_capacity),
                line_rate_bps=line_rate_bps,
                stats=self.pipeline.stats)
            from ..rmt.parser import extract_module_id

            def vid_of(packet) -> int:
                # Everything the pipeline forwarded carries a VLAN tag;
                # hand-enqueued odd packets fall back to the system VID.
                try:
                    return extract_module_id(packet)
                except Exception:
                    return 0

            for group_id, ports in old.mcast_groups().items():
                scheduler.set_mcast_group(group_id, ports)
            for port, packets in old.drain_all().items():
                for packet in packets:
                    # Re-attribute from the 802.1Q tag so carried-over
                    # packets keep their owner's weight, rate limit,
                    # and queue-depth accounting.
                    scheduler.enqueue(packet, port, module_id=vid_of(packet))
            self.pipeline.traffic_manager = scheduler
        elif line_rate_bps is not None and scheduler.line_rate_bps is None:
            scheduler.line_rate_bps = line_rate_bps
        for vid, weight in self._egress_weights.items():
            scheduler.set_weight(vid, weight)
        for vid, (rate, burst) in self._egress_rates.items():
            scheduler.set_rate_limit(vid, rate, burst)
        return scheduler

    def _notify_reconfigured(self, vid: int) -> None:
        """Drop attached engines' compiled state for one tenant."""
        for engine in self._engines:
            engine.invalidate(vid)

    # -- services -----------------------------------------------------------------

    def compile(self, source: str, name: str = "<module>") -> CompileResult:
        """Compile against this switch's *current* user target (stage
        map and shared containers reflect the loaded system module)."""
        return compile_source(source, name,
                              target=self._controller.compile_target())

    def stats(self) -> Dict[str, int]:
        return self.pipeline.stats.summary()


class Tenant:
    """Capability handle for one VID; the only sanctioned way in.

    Obtained from :meth:`Switch.admit`. Holding a handle is holding
    the authority over exactly that VID's tables, registers, egress
    configuration, and lifecycle. (:meth:`Tenant.attach` exists only
    as a compatibility shim for code still loading modules through the
    layered :class:`~repro.runtime.controller.MenshenController`.)
    """

    def __init__(self, switch: Switch, vid: int, name: str = ""):
        self._switch = switch
        self._controller = switch.controller
        self._vid = vid
        self._name = name or f"module{vid}"
        #: entries installed through this handle, for transactional undo
        self._entry_log: Dict[Tuple[str, int], TableEntry] = {}

    @classmethod
    def attach(cls, controller: MenshenController, vid: int) -> "Tenant":
        """Compatibility shim: adopt a module loaded through the
        layered API. New code should build a :class:`Switch` and use
        :meth:`Switch.admit` / :meth:`Switch.tenant` instead."""
        return Switch(controller=controller).tenant(vid)

    def __repr__(self) -> str:
        return f"Tenant(vid={self._vid}, name={self._name!r})"

    @property
    def vid(self) -> int:
        return self._vid

    @property
    def name(self) -> str:
        return self._name

    @property
    def switch(self) -> Switch:
        return self._switch

    def _loaded(self) -> LoadedModule:
        return self._controller._loaded(self._vid)

    # -- tables -------------------------------------------------------------------

    def tables(self) -> List[str]:
        return sorted(self._loaded().tables)

    def table(self, name: str) -> "TableHandle":
        """A handle on one of *this tenant's* tables.

        Naming a table owned by another tenant raises
        :class:`TenantIsolationError` — behavior isolation is a property
        of the API, not a convention callers must remember.
        """
        self._check_owned("table", name, self._loaded().tables,
                          self.tables())
        return TableHandle(self, name)

    def _check_owned(self, kind: str, name: str, owned, have: List[str]
                     ) -> None:
        """Raise the right error for a resource this tenant doesn't own:
        isolation error if another tenant owns one by that name, plain
        error otherwise."""
        if name in owned:
            return
        candidates = list(self._controller.modules.values())
        if self._controller.system_module is not None:
            candidates.append(self._controller.system_module)
        for other in candidates:
            names = (other.tables if kind == "table"
                     else other.compiled.registers)
            if other.module_id != self._vid and name in names:
                raise TenantIsolationError(
                    f"{kind} {name!r} belongs to tenant {other.name!r} "
                    f"(VID {other.module_id}); VID {self._vid} may not "
                    f"touch it")
        raise RuntimeInterfaceError(
            f"tenant {self._name!r} has no {kind} {name!r} (has: {have})")

    # -- registers -----------------------------------------------------------------

    def registers(self) -> List[str]:
        return sorted(self._loaded().compiled.registers)

    def register(self, name: str) -> "RegisterHandle":
        self._check_owned("register", name, self._loaded().compiled.registers,
                          self.registers())
        return RegisterHandle(self, name)

    # -- statistics ----------------------------------------------------------------

    def counters(self) -> TenantCounters:
        """This tenant's slice of the pipeline statistics."""
        stats = self._switch.pipeline.stats
        return TenantCounters(
            packets_in=stats.per_module_in[self._vid],
            packets_out=stats.per_module_out[self._vid],
            packets_dropped=stats.per_module_dropped[self._vid],
            bytes_out=stats.per_module_bytes_out[self._vid],
            egress_bytes_tx=stats.egress_bytes_tx.get(self._vid, 0),
            egress_queue_depth=stats.egress_queue_depth.get(self._vid, 0))

    # -- egress scheduling ---------------------------------------------------------

    def set_weight(self, weight: float) -> "Tenant":
        """This tenant's weighted-fair share of every output link.

        Backlogged tenants divide each port's bandwidth in proportion
        to their weights (STFQ ranks in the egress scheduler), so a
        bursty neighbor can no longer starve this tenant — §3.5's PIFO
        suggestion made default. Takes effect immediately on the
        installed scheduler and persists across scheduler swaps; set
        before ``switch.engine()`` it simply applies at installation.
        """
        if weight <= 0:
            raise ValueError(
                f"tenant {self._vid}: weight must be positive, got {weight}")
        self._switch._egress_weights[self._vid] = float(weight)
        scheduler = self._switch.egress_scheduler
        if scheduler is not None:
            scheduler.set_weight(self._vid, weight)
        return self

    def set_rate_limit(self, rate_bytes_per_s: float,
                       burst_bytes: Optional[float] = None) -> "Tenant":
        """Token-bucket cap on this tenant's egress throughput.

        ``rate_bytes_per_s`` refills the bucket against the scheduler's
        virtual clock; ``burst_bytes`` bounds how far it can save up
        (default: one second's worth, floored at one MTU).
        """
        if rate_bytes_per_s <= 0:
            raise ValueError(
                f"tenant {self._vid}: rate must be positive, "
                f"got {rate_bytes_per_s}")
        self._switch._egress_rates[self._vid] = (float(rate_bytes_per_s),
                                                 burst_bytes)
        scheduler = self._switch.egress_scheduler
        if scheduler is not None:
            scheduler.set_rate_limit(self._vid, rate_bytes_per_s,
                                     burst_bytes)
        return self

    def clear_rate_limit(self) -> "Tenant":
        """Remove this tenant's egress rate cap."""
        self._switch._egress_rates.pop(self._vid, None)
        scheduler = self._switch.egress_scheduler
        if scheduler is not None:
            scheduler.clear_rate_limit(self._vid)
        return self

    def scheduler_counters(self) -> SchedulerTenantCounters:
        """This tenant's egress-scheduler counters (zeros if the switch
        still runs the plain FIFO traffic manager)."""
        scheduler = self._switch.egress_scheduler
        if scheduler is None:
            return SchedulerTenantCounters()
        return scheduler.tenant(self._vid)

    def stats(self) -> Dict[str, object]:
        """Placement + usage + traffic in one structured report."""
        loaded = self._loaded()
        partitions = {
            stage: {"cam_rows": (alloc.match_start, alloc.match_end),
                    "stateful_words": (alloc.stateful_base,
                                       alloc.stateful_end)}
            for stage, alloc in loaded.allocation.stages.items()}
        report = {
            "vid": self._vid,
            "name": self._name,
            "stages": loaded.compiled.stages_used(),
            "tables": {t: loaded.tables[t].cam_count
                       for t in loaded.tables},
            "partitions": partitions,
            "counters": self.counters(),
        }
        scheduler = self._switch.egress_scheduler
        if scheduler is not None:
            report["egress"] = {
                "weight": scheduler.weight_of(self._vid),
                "rate_limit_bytes_per_s": scheduler.rate_limit_of(self._vid),
                "queue_depth": scheduler.queue_depth(self._vid),
                "scheduler": scheduler.tenant(self._vid),
            }
        return report

    # -- lifecycle -----------------------------------------------------------------

    def update(self, source: str) -> "Tenant":
        """Replace this tenant's program (hitless for other tenants)."""
        if self._vid == SYSTEM_MODULE_ID:
            raise RuntimeInterfaceError(
                "the system module cannot be replaced at runtime")
        self._controller.update_module(self._vid, source)
        self._entry_log.clear()
        self._switch._notify_reconfigured(self._vid)
        return self

    def evict(self) -> None:
        """Unload the module, zero its partitions, release its VID.

        A live eviction also scrubs the egress scheduler: the tenant's
        queued packets are purged (they must not transmit under a VID
        that no longer exists) and its weight/rate configuration is
        dropped, so the next tenant assigned this VID starts from a
        clean scheduler state.
        """
        if self._vid == SYSTEM_MODULE_ID:
            raise RuntimeInterfaceError("the system module cannot be evicted")
        self._controller.unload_module(self._vid)
        self._switch._tenants.pop(self._vid, None)
        self._switch._egress_weights.pop(self._vid, None)
        self._switch._egress_rates.pop(self._vid, None)
        scheduler = self._switch.egress_scheduler
        if scheduler is not None:
            scheduler.purge(self._vid)
        self._entry_log.clear()
        self._switch._notify_reconfigured(self._vid)

    @contextlib.contextmanager
    def updating(self):
        """§4.1 drop window: this tenant's packets drop, others flow."""
        self._controller.interface.set_module_updating(self._vid)
        try:
            yield self
        finally:
            self._controller.interface.clear_module_updating(self._vid)

    def transaction(self) -> "Transaction":
        """Batch reconfiguration; apply atomically, roll back on failure."""
        return Transaction(self)


class TableHandle:
    """One tenant-scoped table; insert/delete go through the daisy chain."""

    def __init__(self, tenant: Tenant, name: str):
        self._tenant = tenant
        self.name = name

    def _entry(self, match: Optional[MatchLike], action: Optional[ActionLike],
               params: Optional[Mapping[str, int]],
               entry: Optional[TableEntry]) -> TableEntry:
        if isinstance(match, TableEntry):  # insert(TableEntry) positional
            entry, match = match, None
        if entry is not None:
            if match is not None or action is not None or params:
                raise ValueError(
                    "pass either entry= or match=/action=/params=, not both")
            return entry
        if match is None or action is None:
            raise ValueError("insert needs match= and action= (or entry=)")
        return TableEntry.of(match, action, params)

    def insert(self, match: Optional[MatchLike] = None,
               action: Optional[ActionLike] = None,
               params: Optional[Mapping[str, int]] = None, *,
               entry: Optional[TableEntry] = None) -> int:
        """Install one entry; returns its handle.

        Accepts a full :class:`TableEntry`, or ``match=`` (dict or
        :class:`Match`) + ``action=`` (name or :class:`ActionCall`) +
        optional ``params=``.
        """
        typed = self._entry(match, action, params, entry)
        # Re-check ownership on every use: the handle may be stale.
        self._tenant.table(self.name)
        handle = self._tenant._controller.insert_entry(
            self._tenant.vid, self.name, typed)
        self._tenant._entry_log[(self.name, handle)] = typed
        return handle

    def delete(self, handle: int) -> None:
        self._tenant.table(self.name)
        self._tenant._controller.table_delete(self._tenant.vid, self.name,
                                              handle)
        self._tenant._entry_log.pop((self.name, handle), None)

    def handles(self) -> List[int]:
        """Handles of the live entries, in installation order."""
        state = self._tenant._loaded().table(self.name)
        return sorted(state.entries)

    @property
    def capacity(self) -> int:
        return self._tenant._loaded().table(self.name).cam_count

    def occupancy(self) -> int:
        return len(self._tenant._loaded().table(self.name).entries)


class RegisterHandle:
    """One tenant-scoped register, accessed through its segment."""

    def __init__(self, tenant: Tenant, name: str):
        self._tenant = tenant
        self.name = name

    @property
    def size(self) -> int:
        """Words in this register (valid addresses are
        ``0..size-1``) — what a full state snapshot iterates
        (:meth:`repro.chaos.RecoveryController` carries registers
        across a re-placement this way)."""
        return self._tenant._loaded().compiled.registers[self.name].size

    def read(self, addr: int = 0) -> int:
        return self._tenant._controller.register_read(
            self._tenant.vid, self.name, addr)

    def write(self, addr: int, value: int) -> None:
        self._tenant._controller.register_write(
            self._tenant.vid, self.name, addr, value)


class _TxnOp:
    """One queued operation: apply() returns an undo thunk."""

    def __init__(self, describe: str, apply_fn, label=None):
        self.describe = describe
        self.apply = apply_fn
        self.label = label


class PendingEntry:
    """The handle of an entry inserted inside a transaction.

    ``handle`` is ``None`` until the transaction commits.
    """

    def __init__(self, table: str):
        self.table = table
        self.handle: Optional[int] = None

    def __repr__(self) -> str:
        state = self.handle if self.handle is not None else "<pending>"
        return f"PendingEntry({self.table!r}, handle={state})"


class Transaction:
    """Transactional reconfiguration for one tenant.

    Operations queue until the ``with`` block exits cleanly, then apply
    as one batch inside the tenant's §4.1 drop window (bitmap bit set,
    every write through the daisy chain with counter-verified delivery,
    bitmap cleared). If any operation fails mid-batch, the already
    applied prefix is rolled back in reverse order and
    :class:`TransactionError` is raised — other tenants never observe a
    half-applied neighbor. Raising inside the ``with`` block discards
    the queue untouched.
    """

    def __init__(self, tenant: Tenant):
        self._tenant = tenant
        self._ops: List[_TxnOp] = []
        self._done = False

    # -- queueing -------------------------------------------------------------

    def table(self, name: str) -> "TxnTableHandle":
        self._tenant.table(name)  # ownership check at queue time
        return TxnTableHandle(self, name)

    def register(self, name: str) -> "TxnRegisterHandle":
        self._tenant.register(name)
        return TxnRegisterHandle(self, name)

    def _queue_insert(self, table: str, entry: TableEntry) -> PendingEntry:
        pending = PendingEntry(table)
        tenant = self._tenant

        def apply():
            handle = tenant._controller.insert_entry(tenant.vid, table,
                                                     entry)
            pending.handle = handle
            tenant._entry_log[(table, handle)] = entry

            def undo():
                tenant._controller.table_delete(tenant.vid, table, handle)
                tenant._entry_log.pop((table, handle), None)
                pending.handle = None
            return undo

        self._ops.append(_TxnOp(f"insert into {table!r}", apply, pending))
        return pending

    def _queue_delete(self, table: str, handle: int) -> None:
        tenant = self._tenant
        original = tenant._entry_log.get((table, handle))
        if original is None:
            raise TransactionError(
                f"cannot transactionally delete {table!r} handle {handle}: "
                f"the entry was not installed through this tenant handle, "
                f"so there is nothing to restore on rollback")

        def apply():
            tenant._controller.table_delete(tenant.vid, table, handle)
            tenant._entry_log.pop((table, handle), None)

            def undo():
                new_handle = tenant._controller.insert_entry(
                    tenant.vid, table, original)
                tenant._entry_log[(table, new_handle)] = original
            return undo

        self._ops.append(_TxnOp(f"delete {table!r}#{handle}", apply))

    def _queue_register_write(self, register: str, addr: int,
                              value: int) -> None:
        tenant = self._tenant

        def apply():
            before = tenant._controller.register_read(tenant.vid, register,
                                                      addr)
            tenant._controller.register_write(tenant.vid, register, addr,
                                              value)

            def undo():
                tenant._controller.register_write(tenant.vid, register,
                                                  addr, before)
            return undo

        self._ops.append(_TxnOp(f"write {register!r}[{addr}]", apply))

    # -- commit ---------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._ops.clear()   # nothing was applied; nothing to undo
            self._done = True
            return False
        self.commit()
        return False

    def commit(self) -> None:
        if self._done:
            raise TransactionError("transaction already finished")
        self._done = True
        if not self._ops:
            return
        tenant = self._tenant
        interface = tenant._controller.interface
        undos = []
        # Respect an enclosing drop window (tenant.updating()): only
        # open our own if the bit is not already set, and never clear a
        # bit someone else owns.
        filter_ = tenant._switch.pipeline.packet_filter
        owns_window = not filter_.is_module_updating(tenant.vid)
        if owns_window:
            interface.set_module_updating(tenant.vid)
        try:
            for op in self._ops:
                try:
                    undos.append(op.apply())
                except Exception as exc:
                    for undo in reversed(undos):
                        undo()
                    raise TransactionError(
                        f"transaction for tenant {tenant.name!r} failed at "
                        f"{op.describe} ({len(undos)} prior operations "
                        f"rolled back)") from exc
        finally:
            if owns_window:
                interface.clear_module_updating(tenant.vid)
            # Committed or rolled back, configuration writes happened:
            # drop this tenant's compiled state before its next packet.
            tenant._switch._notify_reconfigured(tenant.vid)
        self._ops.clear()


class TxnTableHandle:
    """Queueing proxy for one table inside a transaction."""

    def __init__(self, txn: Transaction, name: str):
        self._txn = txn
        self.name = name

    def insert(self, match: Optional[MatchLike] = None,
               action: Optional[ActionLike] = None,
               params: Optional[Mapping[str, int]] = None, *,
               entry: Optional[TableEntry] = None) -> PendingEntry:
        typed = TableHandle(self._txn._tenant, self.name)._entry(
            match, action, params, entry)
        return self._txn._queue_insert(self.name, typed)

    def delete(self, handle: int) -> None:
        self._txn._queue_delete(self.name, handle)


class TxnRegisterHandle:
    """Queueing proxy for one register inside a transaction."""

    def __init__(self, txn: Transaction, name: str):
        self._txn = txn
        self.name = name

    def write(self, addr: int, value: int) -> None:
        self._txn._queue_register_write(self.name, addr, value)
