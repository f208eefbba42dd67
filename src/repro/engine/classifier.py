"""Compiled per-tenant flow classification — the engine's fast level.

An exact-match result cache only helps traffic that *repeats* flows:
uniform or adversarial flow churn would degrade every packet to the
scalar stage-by-stage RMT walk. This module follows the NuevoMatchUp
direction ("Scaling Open vSwitch with a Computational Cache", NSDI '22):
compile each tenant's *installed configuration* at one ``config_epoch``
into a flat decision structure, so every packet — unseen flows and
ternary matches included — skips the interpreted pipeline walk.

A :class:`CompiledClassifier` is the whole data path of one module,
flattened over the parsed key-byte regions:

* a **parse plan** — ``(offset, size) -> flat container`` copies decoded
  once from the module's parser-table entry, instead of once per packet;
* one **stage plan** per pipeline stage the module actually uses, each a
  pre-masked key recipe (only the key slots the module's 193-bit key
  mask enables are read) plus a flattened match structure:

  - exact-match stages compile to a hash over stored CAM keys (each
    entry is a degenerate ``[key, key]`` interval, so a dict is the
    exact-match special case of the range structure);
  - ternary stages compile to sorted, non-overlapping **interval/range
    arrays** over the key space *compacted onto the extractor mask's
    set bits*: every prefix-style entry becomes ``[base, base | wild]``,
    address-order priority is resolved at compile time by interval
    subtraction, and classification is one :func:`bisect.bisect_right`.
    Entries whose masks are not contiguous in the compacted space fall
    back to a *residual* linear value/mask array — still compiled, still
    priority-ordered, never wrong;

* a **resolved action per leaf** — the matched entry's VLIW instruction
  pre-decoded into flat ALU op tuples executed with read-before-write
  (true VLIW) semantics over plain container ints;
* a **deparse plan** — the resolved write-back effect applied to a copy
  of the input packet, plus the final metadata (egress port, multicast
  group, discard).

The scalar pipeline stays the **differential oracle**: anything the
compiler cannot prove pure and decodable — stateful leaves
(``LOAD``/``STORE``/``LOADD``), actions the scalar path would fault on,
undecodable configuration words — yields a typed fallback and the
packet takes the interpreted walk, exactly as before. Compilation never
widens behavior; ``tests/test_engine_differential.py`` pins the
compiled path packet-for-packet against the oracle.

Classifiers are rebuilt lazily when ``config_epoch`` moves and purged by
:meth:`BatchEngine.invalidate`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.intervals import merge as _merge_claim
from ..core.intervals import subtract as _subtract
from ..core.pipeline import SYSTEM_MODULE_ID, MenshenPipeline
from ..net.packet import Packet
from ..rmt.action import AluOp, VliwInstruction
from ..rmt.key_extractor import CmpOp, KeyExtractEntry
from ..rmt.match_table import ExactMatchTable
from ..rmt.phv import PHV, ContainerRef, ContainerType


class Fallback:
    """A typed bail-out to the scalar oracle (also used per leaf)."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self) -> str:
        return f"Fallback({self.reason!r})"


#: The packet would touch stateful memory — never compiled (replaying a
#: memoized/compiled result would skip side effects and read stale state).
FALLBACK_STATEFUL = Fallback("stateful")
#: The matched action is one the scalar path faults on (e.g. a
#: container-writing op on the metadata ALU slot); the oracle must raise.
FALLBACK_UNSUPPORTED = Fallback("unsupported-action")

#: Compiled ALU op codes (first element of each op tuple).
_ADD, _SUB, _ADDI, _SUBI, _SET, _PORT, _MCAST, _DISCARD = range(8)

#: MSB-first key layout (Fig. 4): 6B1|6B2|4B1|4B2|2B1|2B2|flag.
#: ``(shift, width)`` of each slot inside the 193-bit key.
_KEY_SLOTS = ((145, 48), (97, 48), (65, 32), (33, 32), (17, 16), (1, 16))

#: Wrap mask per flat container index (B2: 0-7, B4: 8-15, B6: 16-23).
_WRAP = tuple((1 << (8 * size)) - 1
              for size in (2,) * 8 + (4,) * 8 + (6,) * 8)

#: Op tuple: (code, slot, a, b, wrap) — operand meaning depends on code.
_Op = Tuple[int, int, int, int, int]
_Leaf = Union[Tuple[_Op, ...], Fallback]


class _Uncompilable(Exception):
    """Raised during compilation when the module's configuration cannot
    be compiled faithfully; the classifier then defers every packet to
    the scalar oracle (which reproduces the original behavior, faults
    included)."""


@dataclass(frozen=True)
class ClassifierStats:
    """Shape summary of one tenant's compiled classifier."""

    vid: int
    epoch: int
    ok: bool
    reason: str           #: empty when ``ok``; why compilation bailed otherwise
    stages: int           #: stage plans kept (stages with entries/defaults)
    exact_keys: int       #: hash-compiled exact-match entries
    intervals: int        #: compiled ranges across all ternary stages
    residual_entries: int #: linear value/mask entries (non-contiguous masks)
    stateful_leaves: int  #: leaves that bail to the oracle


class _StagePlan:
    """One stage's compiled key recipe + flattened match structure."""

    __slots__ = ("kind", "key_slots", "flag_const", "pred", "exact",
                 "segments", "starts", "ends", "leaves", "residual",
                 "miss_ops")

    # kind: 0 = exact hash, 1 = interval arrays, 2 = residual linear
    def __init__(self) -> None:
        self.kind = 0
        self.key_slots: Tuple[Tuple[int, int, int], ...] = ()
        self.flag_const = 0
        self.pred: Optional[Tuple[int, Optional[int], int,
                                  Optional[int], int]] = None
        self.exact: Dict[int, _Leaf] = {}
        self.segments: Tuple[Tuple[int, int, int], ...] = ()
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.leaves: List[_Leaf] = []
        self.residual: Tuple[Tuple[int, int, _Leaf], ...] = ()
        self.miss_ops: Optional[_Leaf] = None


def _flat(ref: Optional[ContainerRef]) -> int:
    """Flat index of a data-container operand; bail if the scalar path
    would fault reading it (metadata is not ALU/key addressable)."""
    if ref is None:
        return 0
    if ref.ctype == ContainerType.META:
        raise _Uncompilable("metadata operand")
    return ref.flat_index


def _compile_ops(instruction: VliwInstruction) -> _Leaf:
    """Flatten one VLIW instruction into op tuples, or a Fallback."""
    ops: List[_Op] = []
    for slot, action in instruction.non_nop():
        op = action.opcode
        if op.is_stateful:
            return FALLBACK_STATEFUL
        if op.writes_container and slot == 24:
            return FALLBACK_UNSUPPORTED  # scalar raises ConfigError
        try:
            a = _flat(action.c1)
            b = _flat(action.c2)
        except _Uncompilable:
            return FALLBACK_UNSUPPORTED  # scalar raises reading metadata
        imm = action.immediate
        if op == AluOp.ADD:
            ops.append((_ADD, slot, a, b, _WRAP[slot]))
        elif op == AluOp.SUB:
            ops.append((_SUB, slot, a, b, _WRAP[slot]))
        elif op == AluOp.ADDI:
            ops.append((_ADDI, slot, a, imm, _WRAP[slot]))
        elif op == AluOp.SUBI:
            ops.append((_SUBI, slot, a, imm, _WRAP[slot]))
        elif op == AluOp.SET:
            ops.append((_SET, slot, 0, imm, _WRAP[slot]))
        elif op == AluOp.PORT:
            ops.append((_PORT, 0, a, imm, 0))
        elif op == AluOp.MCAST:
            ops.append((_MCAST, 0, a, imm, 0))
        elif op == AluOp.DISCARD:
            ops.append((_DISCARD, 0, 0, 0, 0))
        else:  # pragma: no cover — non-NOP opcodes are exhausted above
            return FALLBACK_UNSUPPORTED
    return tuple(ops)


def _mask_segments(mask: int) -> Tuple[Tuple[int, int, int], ...]:
    """Runs of set bits in ``mask`` as (shift, run_mask, out_shift).

    Compacting a key onto these segments (a software PEXT) maps the
    sparse 193-bit key space onto a dense integer space in which
    prefix-style ternary entries become contiguous ranges.
    """
    segments = []
    out = 0
    bit = 0
    while mask >> bit:
        if (mask >> bit) & 1:
            width = 0
            while (mask >> (bit + width)) & 1:
                width += 1
            segments.append((bit, (1 << width) - 1, out))
            out += width
            bit += width
        else:
            bit += 1
    return tuple(segments)


def _compact(key: int, segments: Tuple[Tuple[int, int, int], ...]) -> int:
    """Project ``key`` onto the compact space of :func:`_mask_segments`."""
    out = 0
    for shift, run_mask, out_shift in segments:
        out |= ((key >> shift) & run_mask) << out_shift
    return out


class CompiledClassifier:
    """One tenant's data path, compiled at one ``config_epoch``.

    Build via :func:`compile_classifier`. ``ok`` is ``False`` when the
    installed configuration could not be compiled faithfully — the
    caller must then route every packet to the scalar oracle, which
    reproduces the original behavior (including its faults) exactly.
    """

    __slots__ = ("vid", "epoch", "ok", "reason", "max_end", "_parse",
                 "_deparse", "_stages", "_params")

    def __init__(self, vid: int, epoch: int, params, ok: bool,
                 reason: str = ""):
        self.vid = vid
        self.epoch = epoch
        self.ok = ok
        self.reason = reason
        self.max_end = 0
        self._params = params
        self._parse: Tuple[Tuple[int, int, int], ...] = ()
        self._deparse: Tuple[Tuple[int, int, int, int], ...] = ()
        self._stages: Tuple[_StagePlan, ...] = ()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> ClassifierStats:
        exact_keys = sum(len(sp.exact) for sp in self._stages)
        intervals = sum(len(sp.starts) for sp in self._stages)
        residual = sum(len(sp.residual) for sp in self._stages)
        stateful = 0
        for sp in self._stages:
            leaves: List[_Leaf] = list(sp.exact.values()) + sp.leaves
            leaves += [leaf for _m, _p, leaf in sp.residual]
            if sp.miss_ops is not None:
                leaves.append(sp.miss_ops)
            stateful += sum(1 for leaf in leaves
                            if leaf is FALLBACK_STATEFUL)
        return ClassifierStats(vid=self.vid, epoch=self.epoch, ok=self.ok,
                               reason=self.reason, stages=len(self._stages),
                               exact_keys=exact_keys, intervals=intervals,
                               residual_entries=residual,
                               stateful_leaves=stateful)

    # -- the compiled hot path ---------------------------------------------------

    def classify(self, packet: Packet,
                 buffer_slot: int) -> Union[Tuple[Optional[Packet], PHV],
                                            Fallback]:
        """Run one admitted packet through the compiled data path.

        Returns ``(merged, phv)`` exactly as ``pipeline.execute`` would,
        or a :class:`Fallback` when the matched leaf must take the
        scalar oracle. The caller guarantees the parse/deparse window
        fits (``BatchEngine`` checks the module's parse/deparse reach).
        """
        buf = packet.buf
        vals = [0] * 24
        for off, end, flat in self._parse:
            vals[flat] = int.from_bytes(buf[off:end], "big")
        dst_port = 0
        mcast = 0
        discard = False

        for sp in self._stages:
            key = sp.flag_const
            pred = sp.pred
            if pred is not None:
                op, a_flat, a_imm, b_flat, b_imm = pred
                a = vals[a_flat] if a_flat is not None else a_imm
                b = vals[b_flat] if b_flat is not None else b_imm
                if op == 1:
                    hit = a == b
                elif op == 2:
                    hit = a != b
                elif op == 3:
                    hit = a > b
                elif op == 4:
                    hit = a < b
                elif op == 5:
                    hit = a >= b
                else:
                    hit = a <= b
                if hit:
                    key |= 1
            for shift, slot_mask, flat in sp.key_slots:
                key |= (vals[flat] & slot_mask) << shift

            kind = sp.kind
            if kind == 0:
                leaf = sp.exact.get(key)
            elif kind == 1:
                compact = _compact(key, sp.segments)
                i = bisect_right(sp.starts, compact) - 1
                leaf = (sp.leaves[i]
                        if i >= 0 and compact <= sp.ends[i] else None)
            else:
                leaf = None
                for mask, pattern, candidate in sp.residual:
                    if key & mask == pattern:
                        leaf = candidate
                        break
            if leaf is None:
                leaf = sp.miss_ops
                if leaf is None:
                    continue
            if type(leaf) is Fallback:
                return leaf

            # VLIW semantics: all operand reads observe the incoming
            # PHV, so container writes are buffered and applied after.
            pending = None
            for op_tuple in leaf:
                code = op_tuple[0]
                if code == _ADD:
                    value = (vals[op_tuple[2]] + vals[op_tuple[3]]) \
                        & op_tuple[4]
                elif code == _SUB:
                    value = (vals[op_tuple[2]] - vals[op_tuple[3]]) \
                        & op_tuple[4]
                elif code == _ADDI:
                    value = (vals[op_tuple[2]] + op_tuple[3]) & op_tuple[4]
                elif code == _SUBI:
                    value = (vals[op_tuple[2]] - op_tuple[3]) & op_tuple[4]
                elif code == _SET:
                    value = op_tuple[3] & op_tuple[4]
                elif code == _PORT:
                    dst_port = (vals[op_tuple[2]] + op_tuple[3]) & 0xFFFF
                    continue
                elif code == _MCAST:
                    mcast = (vals[op_tuple[2]] + op_tuple[3]) & 0xFFFF
                    continue
                else:  # _DISCARD
                    discard = True
                    continue
                if pending is None:
                    pending = [(op_tuple[1], value)]
                else:
                    pending.append((op_tuple[1], value))
            if pending is not None:
                for slot, value in pending:
                    vals[slot] = value

        phv = PHV.from_container_values(vals, self._params)
        meta = phv.metadata.buf
        if discard:
            meta[0] = 1  # FLAG_DISCARD
        meta[1] = 1 << buffer_slot
        meta[2] = dst_port >> 8
        meta[3] = dst_port & 0xFF
        src_port = packet.ingress_port
        meta[4] = (src_port >> 8) & 0xFF
        meta[5] = src_port & 0xFF
        pkt_len = len(buf)
        if pkt_len > 0xFFFF:
            pkt_len = 0xFFFF
        meta[6] = pkt_len >> 8
        meta[7] = pkt_len & 0xFF
        meta[8] = mcast >> 8
        meta[9] = mcast & 0xFF
        meta[18] = self.vid >> 8
        meta[19] = self.vid & 0xFF

        if discard:
            return None, phv
        merged = Packet(bytes(buf), packet.ingress_port,
                        packet.arrival_time)
        out = merged.buf
        for off, end, flat, size in self._deparse:
            out[off:end] = vals[flat].to_bytes(size, "big")
        return merged, phv


def compile_classifier(pipeline: MenshenPipeline, vid: int,
                       epoch: int) -> CompiledClassifier:
    """Compile ``vid``'s installed configuration at ``epoch``.

    Never raises: a configuration that cannot be compiled faithfully
    (undecodable words, metadata-addressing operands — everything the
    scalar path would fault on per packet) yields ``ok=False`` and the
    engine routes those packets to the scalar oracle, which reproduces
    the original behavior — faults included — exactly.
    """
    try:
        return _compile(pipeline, vid, epoch)
    except _Uncompilable as exc:
        return CompiledClassifier(vid, epoch, pipeline.params, ok=False,
                                  reason=str(exc))
    except Exception as exc:  # decode faults the scalar path replays
        return CompiledClassifier(
            vid, epoch, pipeline.params, ok=False,
            reason=f"{type(exc).__name__}: {exc}")


def _compile(pipeline: MenshenPipeline, vid: int,
             epoch: int) -> CompiledClassifier:
    params = pipeline.params
    clf = CompiledClassifier(vid, epoch, params, ok=True)

    parse_plan = []
    max_end = 0
    for action in pipeline.parser.read_program(vid):
        if action.container.ctype == ContainerType.META:
            raise _Uncompilable("parse targets metadata")
        size = action.container.size_bytes
        end = action.bytes_from_head + size
        max_end = max(max_end, end)
        parse_plan.append((action.bytes_from_head, end,
                           action.container.flat_index))

    deparse_plan = []
    for action in pipeline.deparser.read_program(vid):
        if action.container.ctype == ContainerType.META:
            raise _Uncompilable("deparse targets metadata")
        size = action.container.size_bytes
        end = action.bytes_from_head + size
        max_end = max(max_end, end)
        deparse_plan.append((action.bytes_from_head, end,
                             action.container.flat_index, size))

    stages = []
    for index, stage in enumerate(pipeline.stages):
        module = (SYSTEM_MODULE_ID if index in pipeline.system_stages
                  else vid)
        plan = _compile_stage(stage, module)
        if plan is not None:
            stages.append(plan)

    clf.max_end = max_end
    clf._parse = tuple(parse_plan)
    clf._deparse = tuple(deparse_plan)
    clf._stages = tuple(stages)
    return clf


def _compile_stage(stage, module: int) -> Optional[_StagePlan]:
    """Compile one stage for ``module``; ``None`` when the stage is a
    guaranteed no-op for it (no entries, no default action)."""
    entry = KeyExtractEntry.decode(stage.key_extract_table.read(module))
    mask = stage.key_mask_table.read(module)

    plan = _StagePlan()

    # Key recipe: only the byte slots the module's mask enables are read.
    flats = (16 + entry.idx_6b_1, 16 + entry.idx_6b_2,
             8 + entry.idx_4b_1, 8 + entry.idx_4b_2,
             entry.idx_2b_1, entry.idx_2b_2)
    key_slots = []
    for (shift, width), flat in zip(_KEY_SLOTS, flats):
        slot_mask = (mask >> shift) & ((1 << width) - 1)
        if slot_mask:
            key_slots.append((shift, slot_mask, flat))
    plan.key_slots = tuple(key_slots)

    # Predicate: the scalar extractor reads both operands on every
    # packet, so metadata operands fault there — refuse to compile.
    for operand in (entry.cmp_a, entry.cmp_b):
        if isinstance(operand, ContainerRef) and \
                operand.ctype == ContainerType.META:
            raise _Uncompilable("predicate reads metadata")
    flag_mask = mask & 1
    if flag_mask and entry.cmp_op == CmpOp.ALWAYS:
        plan.flag_const = 1
    elif flag_mask and entry.cmp_op != CmpOp.DISABLED:
        def operand(ref_or_imm) -> Tuple[Optional[int], int]:
            if isinstance(ref_or_imm, ContainerRef):
                return ref_or_imm.flat_index, 0
            return None, ref_or_imm
        a_flat, a_imm = operand(entry.cmp_a)
        b_flat, b_imm = operand(entry.cmp_b)
        plan.pred = (int(entry.cmp_op), a_flat, a_imm, b_flat, b_imm)

    # Default action (P4 default_action extension): runs on every miss.
    if stage.default_vliw_table is not None:
        word = stage.default_vliw_table.read(module)
        if word:
            plan.miss_ops = _compile_ops(VliwInstruction.decode(word))

    table = stage.match_table
    addresses = table.entries_of(module)
    if not addresses and plan.miss_ops is None:
        return None  # provably a no-op stage for this module

    leaves = {addr: _compile_ops(
        VliwInstruction.decode(stage.vliw_table.read(addr)))
        for addr in addresses}

    if isinstance(table, ExactMatchTable):
        plan.kind = 0
        for addr in addresses:
            # Lowest address wins on (impossible) duplicates, like the CAM.
            plan.exact.setdefault(table.read(addr).key, leaves[addr])
        return plan

    # Ternary: flatten to interval arrays over the compacted key space.
    # The lookup key is always a subset of the extractor mask, so the
    # compaction is lossless; prefix-style entry masks become contiguous
    # ranges there. Priority (lowest address wins) is resolved by
    # subtracting already-claimed ranges, so the final intervals are
    # disjoint and bisect gives the unique answer.
    segments = _mask_segments(mask)
    compact_bits = sum(run_mask.bit_length()
                       for _s, run_mask, _o in segments)
    full = (1 << compact_bits) - 1
    compiled_entries = []
    intervalizable = True
    for addr in addresses:
        tentry = table.read(addr)
        pattern = tentry.key & tentry.mask
        if pattern & ~mask:
            continue  # pattern bit outside the key space: never matches
        eff_mask = tentry.mask & mask
        c_mask = _compact(eff_mask, segments)
        c_pattern = _compact(pattern, segments)
        wild = full ^ c_mask
        if wild & (wild + 1):
            intervalizable = False  # wildcard bits not contiguous-low
        compiled_entries.append(
            (tentry.mask, tentry.key & tentry.mask, c_pattern, wild,
             leaves[addr]))

    if intervalizable:
        plan.kind = 1
        plan.segments = segments
        claimed: List[Tuple[int, int]] = []
        pieces = []
        for _mask, _pattern, c_pattern, wild, leaf in compiled_entries:
            lo, hi = c_pattern, c_pattern | wild
            for p_lo, p_hi in _subtract((lo, hi), claimed):
                pieces.append((p_lo, p_hi, leaf))
            _merge_claim(claimed, (lo, hi))
        pieces.sort(key=lambda p: p[0])
        plan.starts = [p[0] for p in pieces]
        plan.ends = [p[1] for p in pieces]
        plan.leaves = [p[2] for p in pieces]
    else:
        plan.kind = 2
        plan.residual = tuple((mask_, pattern, leaf)
                              for mask_, pattern, _cp, _w, leaf
                              in compiled_entries)
    return plan
