"""Equivalence certification (``repro.analysis.equiv``) end to end.

Four layers of guarantees:

* **Soundness on stock modules** — all eight evaluated modules certify
  equivalent (or correctly-reasoned fallback) with zero traffic: the
  certifier has no false positives on the honest compiler.
* **The mutation harness** — every seeded corruption a buggy compiler
  could plausibly produce (off-by-one interval bounds, swapped
  priorities, dropped residual entries, wrong op targets, swapped exact
  leaves, mislabelled fallback reasons) is caught, and for every
  behaviorally observable corruption the synthesized counterexample
  packet makes the mutant *actually disagree* with the scalar oracle.
* **Engine integration** — ``BatchEngine(check_compiled=...)`` /
  ``REPRO_ENGINE_CERTIFY`` certifies on every lazy rebuild: ``enforce``
  refuses the compiled path (counted under the ``uncertified`` fallback
  reason), ``warn`` emits an :class:`AnalysisWarning`, and
  ``invalidate`` clears the stored certificates.
* **Property coverage** — Hypothesis pins the interval utilities the
  compiler and certifier both build on (``_mask_segments`` compaction
  round-trip, ``subtract``/``merge`` partition algebra).
"""

import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Switch, Tenant
from repro.analysis.equiv import (
    CERTIFICATE_SCHEMA_VERSION,
    MUTATIONS,
    OBLIGATIONS,
    Certificate,
    apply_mutation,
    certify_classifier,
)
from repro.analysis.equiv.certify import _scatter
from repro.analysis.verify import AnalysisWarning
from repro.core import MenshenPipeline
from repro.core.intervals import merge, subtract
from repro.engine import BatchEngine, Fallback, compile_classifier
from repro.engine.batch import (
    CERTIFY_MODES,
    FALLBACK_REASONS,
    certify_default_mode,
)
from repro.engine.classifier import _compact, _mask_segments
from repro.modules import firewall
from repro.net.packet import Packet
from repro.runtime import MenshenController
from repro.traffic import workload

PROP_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

STOCK_MODULES = ("calc", "firewall", "load_balancer", "qos",
                 "source_routing", "netcache", "netchain", "multicast")


# ---------------------------------------------------------------------------
# Fixtures: one pipeline per compiled-stage shape
# ---------------------------------------------------------------------------

def _workload_pipeline(name, vid):
    switch = Switch.build().create()
    workload(name).admit(switch, vid=vid)
    return switch.pipeline, vid


def _ternary_pipeline(install, vid=2):
    pipe = MenshenPipeline(match_mode="ternary")
    ctl = MenshenController(pipe)
    ctl.load_module(vid, firewall.P4_SOURCE_TERNARY, "fw-ternary")
    install(ctl, vid)
    return pipe, vid


def _install_intervals(ctl, vid):
    firewall.install_prefix(
        Tenant.attach(ctl, vid),
        blocked_prefixes=[("10.66.0.0", 16), ("10.0.0.0", 8)],
        default_port=3)


def _install_residual(ctl, vid):
    from repro.net import Ipv4Address
    ctl.table_add(vid, "acl",
                  {"hdr.ipv4.srcAddr": int(Ipv4Address("10.0.10.0")),
                   "hdr.udp.dstPort": 0},
                  "block",
                  key_masks={"hdr.ipv4.srcAddr": 0xFF00FF00,
                             "hdr.udp.dstPort": 0})
    firewall.install_prefix(Tenant.attach(ctl, vid), default_port=5)


#: name -> () -> (pipeline, vid); each exercises a distinct stage shape.
FIXTURES = {
    "exact-firewall": lambda: _workload_pipeline("firewall", 3),
    "exact-calc": lambda: _workload_pipeline("calc", 5),
    "intervals": lambda: _ternary_pipeline(_install_intervals),
    "residual": lambda: _ternary_pipeline(_install_residual),
    "stateful-netcache": lambda: _workload_pipeline("netcache", 4),
}

#: (fixture, mutation, oracle_observable). Every mutation appears with
#: at least one fixture where it has an applicable site; observability
#: means the synthesized packet must make the mutant disagree with the
#: scalar oracle (a wrong *fallback reason* never changes behavior —
#: the engine bails to the correct oracle either way).
MUTATION_CASES = [
    ("exact-firewall", "swapped-exact-leaves", True),
    ("exact-calc", "swapped-exact-leaves", True),
    ("exact-calc", "wrong-op-target", True),
    ("intervals", "interval-bound-off-by-one", True),
    ("intervals", "swapped-priorities", True),
    ("residual", "swapped-priorities", True),
    ("residual", "dropped-residual-entry", True),
    ("stateful-netcache", "wrong-fallback-reason", False),
]


def _compile(pipeline, vid):
    return compile_classifier(pipeline, vid, pipeline.config_epoch)


def _oracle_disagrees(pipeline, clf, vid, packet_hex):
    """True when the classifier and the scalar pipeline walk produce
    different observable results for the counterexample packet."""
    packet = Packet(bytes.fromhex(packet_hex))
    outcome = clf.classify(packet.copy(), 0)
    merged_ref, phv_ref = pipeline.execute(packet.copy(), vid,
                                           buffer_slot=0)
    if type(outcome) is Fallback:
        return False  # mutant bails to the (correct) oracle: no change
    merged_mut, phv_mut = outcome
    if (merged_mut is None) != (merged_ref is None):
        return True
    if merged_mut is not None and \
            bytes(merged_mut.buf) != bytes(merged_ref.buf):
        return True
    return phv_mut != phv_ref


# ---------------------------------------------------------------------------
# Stock modules certify clean, with zero traffic
# ---------------------------------------------------------------------------

class TestStockModulesCertify:
    @pytest.mark.parametrize("name", STOCK_MODULES)
    def test_module_certifies_equivalent(self, name):
        pipeline, vid = _workload_pipeline(name, 3)
        before = (pipeline.stats.packets_in, pipeline.stats.packets_out,
                  pipeline.config_epoch)
        certificate = certify_classifier(pipeline, vid=vid)
        after = (pipeline.stats.packets_in, pipeline.stats.packets_out,
                 pipeline.config_epoch)
        assert certificate.ok, certificate.render()
        assert certificate.vid == vid
        assert certificate.epoch == pipeline.config_epoch
        assert before == after, "certification must be zero-traffic"

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_every_stage_shape_certifies(self, fixture):
        pipeline, vid = FIXTURES[fixture]()
        certificate = certify_classifier(pipeline, vid=vid)
        assert certificate.ok, certificate.render()

    def test_obligations_are_exhaustive_and_ordered(self):
        pipeline, vid = FIXTURES["intervals"]()
        certificate = certify_classifier(pipeline, vid=vid)
        names = [o.name for o in certificate.obligations]
        # Every catalog obligation appears (proved or skipped) ...
        assert set(names) == set(OBLIGATIONS)
        # ... in catalog order.
        order = {name: i for i, name in enumerate(OBLIGATIONS)}
        assert names == sorted(names, key=order.__getitem__)
        statuses = {o.status for o in certificate.obligations}
        assert statuses <= {"proved", "skipped"}

    def test_uncompilable_classifier_gets_reason_checked(self):
        """A refused compile is certified for *refusal accuracy*, not
        equivalence: the reason must match an independent recompile."""
        from repro.rmt.key_extractor import CmpOp, KeyExtractEntry
        from repro.rmt.phv import ContainerRef, ContainerType

        pipeline, vid = _workload_pipeline("firewall", 3)
        stage = pipeline.stages[0]
        entry = KeyExtractEntry(
            cmp_op=CmpOp.EQ,
            cmp_a=ContainerRef(ContainerType.META, 0), cmp_b=0)
        stage.key_extract_table.write(vid, entry.encode())
        clf = _compile(pipeline, vid)
        assert not clf.ok
        certificate = certify_classifier(pipeline, clf, vid=vid)
        assert certificate.ok, certificate.render()
        assert not certificate.compiled_ok
        assert certificate.reason == clf.reason
        by_name = {o.name: o for o in certificate.obligations}
        assert by_name["refusal-reason"].status == "proved"


# ---------------------------------------------------------------------------
# The mutation harness: every corruption caught, counterexamples real
# ---------------------------------------------------------------------------

class TestMutationHarness:
    @pytest.mark.parametrize("fixture,mutation,observable", MUTATION_CASES)
    def test_mutation_caught_with_counterexample(self, fixture, mutation,
                                                 observable):
        pipeline, vid = FIXTURES[fixture]()
        clf = _compile(pipeline, vid)
        assert certify_classifier(pipeline, clf, vid=vid).ok

        mutant, description = apply_mutation(clf, mutation)
        assert description is not None, \
            f"{mutation} found no applicable site in {fixture}"

        certificate = certify_classifier(pipeline, mutant, vid=vid)
        assert not certificate.ok, \
            f"{mutation} on {fixture} was not caught ({description})"
        assert certificate.violations()
        assert certificate.counterexamples, \
            f"{mutation} on {fixture}: no counterexample synthesized"

        if observable:
            packets = [ce.packet_hex for ce in certificate.counterexamples
                       if ce.packet_hex]
            assert packets, (f"{mutation} on {fixture}: no counterexample "
                             f"packet reached the wire")
            assert any(_oracle_disagrees(pipeline, mutant, vid, hexstr)
                       for hexstr in packets), \
                (f"{mutation} on {fixture}: oracle agrees with the "
                 f"mutant on every synthesized packet")

    def test_every_mutation_exercised(self):
        covered = {mutation for _f, mutation, _o in MUTATION_CASES}
        assert covered == set(MUTATIONS)

    def test_unknown_mutation_rejected(self):
        pipeline, vid = FIXTURES["exact-firewall"]()
        clf = _compile(pipeline, vid)
        with pytest.raises(ValueError, match="unknown mutation"):
            apply_mutation(clf, "made-up")

    def test_clone_does_not_alias_mutable_state(self):
        pipeline, vid = FIXTURES["exact-firewall"]()
        clf = _compile(pipeline, vid)
        mutant, description = apply_mutation(clf, "swapped-exact-leaves")
        assert description is not None
        # The original still certifies: mutation never leaks back.
        assert certify_classifier(pipeline, clf, vid=vid).ok


# ---------------------------------------------------------------------------
# Certificate model: findings + JSON round-trip
# ---------------------------------------------------------------------------

class TestCertificateModel:
    def _violated_certificate(self):
        pipeline, vid = FIXTURES["intervals"]()
        clf = _compile(pipeline, vid)
        mutant, _ = apply_mutation(clf, "swapped-priorities")
        return certify_classifier(pipeline, mutant, vid=vid)

    def test_json_round_trip(self):
        certificate = self._violated_certificate()
        clone = Certificate.from_json(certificate.to_json())
        assert clone.to_dict() == certificate.to_dict()
        assert clone.ok == certificate.ok is False
        assert clone.schema_version == CERTIFICATE_SCHEMA_VERSION

    def test_json_is_plain_data(self):
        certificate = self._violated_certificate()
        data = json.loads(certificate.to_json())
        assert data["ok"] is False
        assert data["schema_version"] == CERTIFICATE_SCHEMA_VERSION
        assert {o["status"] for o in data["obligations"]} <= \
            {"proved", "violated", "skipped"}

    def test_findings_model_compatibility(self):
        from repro.analysis import Severity

        certificate = self._violated_certificate()
        report = certificate.to_report()
        assert not report.ok
        for finding in report.findings:
            assert finding.code.startswith("equiv-")
            assert finding.code[len("equiv-"):] in OBLIGATIONS
            assert finding.severity is Severity.ERROR
            assert finding.pass_name == "equiv"

    def test_render_mentions_every_obligation(self):
        certificate = self._violated_certificate()
        rendered = certificate.render()
        for name in OBLIGATIONS:
            assert name in rendered


# ---------------------------------------------------------------------------
# Engine integration: check_compiled / REPRO_ENGINE_CERTIFY
# ---------------------------------------------------------------------------

def _firewall_engine(**kw):
    switch = Switch.build().create()
    workload("firewall").admit(switch, vid=3)
    engine = switch.engine(scheduled=False, enable_classifier=True, **kw)
    packets = [workload("firewall").flow_packet(3, i) for i in range(8)]
    return switch, engine, packets


class TestEngineIntegration:
    def test_clean_classifier_serves_compiled_under_enforce(self):
        _switch, engine, packets = _firewall_engine(
            check_compiled="enforce")
        engine.process_batch(packets)
        assert engine.counters.compiled_hits == len(packets)
        assert engine.certificates[3].ok
        assert "uncertified" not in engine.counters.classifier_fallbacks

    def test_enforce_refuses_corrupt_classifier(self):
        _switch, engine, packets = _firewall_engine(
            check_compiled="enforce")
        engine.process_batch(packets)
        mutant, description = apply_mutation(
            engine._classifiers[3], "swapped-exact-leaves")
        assert description is not None
        engine._classifiers[3] = mutant
        engine._certify(3, mutant)
        before = engine.counters.compiled_hits
        engine.process_batch(packets)
        assert engine.counters.compiled_hits == before
        assert engine.counters.classifier_fallbacks["uncertified"] == \
            len(packets)
        assert not engine.certificates[3].ok

    def test_warn_mode_warns_and_keeps_serving(self):
        _switch, engine, packets = _firewall_engine(check_compiled="warn")
        engine.process_batch(packets)
        mutant, _ = apply_mutation(engine._classifiers[3],
                                   "swapped-exact-leaves")
        engine._classifiers[3] = mutant
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine._certify(3, mutant)
        assert len(caught) == 1
        assert issubclass(caught[0].category, AnalysisWarning)
        assert "failed certification" in str(caught[0].message)
        assert not engine._refused  # warn mode never refuses

    def test_invalidate_clears_certificates(self):
        _switch, engine, packets = _firewall_engine(
            check_compiled="enforce")
        engine.process_batch(packets)
        assert engine.certificates
        engine.invalidate(3)
        assert engine.certificates == {}
        assert engine._refused == {}

    def test_bad_mode_rejected(self):
        switch = Switch.build().create()
        with pytest.raises(ValueError, match="check_compiled"):
            BatchEngine(switch.pipeline, check_compiled="bogus")

    def test_off_mode_skips_certification(self):
        _switch, engine, packets = _firewall_engine(check_compiled="off")
        engine.process_batch(packets)
        assert engine.certificates == {}
        assert engine.counters.compiled_hits == len(packets)

    @pytest.mark.parametrize("raw,expected", [
        (None, "off"), ("", "off"), ("0", "off"), ("off", "off"),
        ("false", "off"), ("no", "off"), ("1", "enforce"),
        ("on", "enforce"), ("true", "enforce"), ("enforce", "enforce"),
        ("WARN", "warn"), ("warn", "warn"),
    ])
    def test_certify_default_mode_env(self, raw, expected, monkeypatch):
        if raw is None:
            monkeypatch.delenv("REPRO_ENGINE_CERTIFY", raising=False)
        else:
            monkeypatch.setenv("REPRO_ENGINE_CERTIFY", raw)
        assert certify_default_mode() == expected

    def test_certify_default_mode_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CERTIFY", "sometimes")
        with pytest.raises(ValueError, match="REPRO_ENGINE_CERTIFY"):
            certify_default_mode()

    def test_env_var_drives_engine_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CERTIFY", "enforce")
        switch = Switch.build().create()
        engine = BatchEngine(switch.pipeline)
        assert engine.check_compiled == "enforce"

    def test_mode_constants(self):
        assert CERTIFY_MODES == ("enforce", "warn", "off")
        assert "uncertified" in FALLBACK_REASONS

    def test_fallback_histogram_serializes_with_published_reasons(self):
        """The observed fallback histogram only ever uses reasons from
        the vocabulary ``repro-info --json`` publishes, and is plain
        JSON-serializable data."""
        from repro.tools.info import info_dict

        _switch, engine, packets = _firewall_engine(
            check_compiled="enforce")
        engine.process_batch(packets)
        mutant, _ = apply_mutation(engine._classifiers[3],
                                   "swapped-exact-leaves")
        engine._classifiers[3] = mutant
        engine._certify(3, mutant)
        engine.process_batch(packets)
        histogram = engine.counters.classifier_fallbacks
        assert histogram["uncertified"] == len(packets)
        published = info_dict()["engine"]["fallback_reasons"]
        assert set(histogram) <= set(published)
        assert json.loads(json.dumps(histogram)) == histogram


# ---------------------------------------------------------------------------
# Surfaces: Switch.analyze() and repro-verify --classifier
# ---------------------------------------------------------------------------

class TestSurfaces:
    def test_switch_analyze_includes_certification(self):
        switch = Switch.build().create()
        workload("firewall").admit(switch, vid=3)
        workload("netcache").admit(switch, vid=4)
        report = switch.analyze()
        assert report.ok
        # Opting out skips the (relatively costly) certification.
        assert switch.analyze(certify_classifiers=False).ok

    def test_repro_verify_classifier_json(self, capsys):
        from repro.tools.verify import main

        assert main(["--builtin", "firewall", "--classifier",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert "firewall:classifier" in data["reports"]
        certificate = data["certificates"]["firewall"]
        assert certificate["ok"] is True
        assert certificate["schema_version"] == CERTIFICATE_SCHEMA_VERSION

    def test_repro_verify_classifier_text(self, capsys):
        from repro.tools.verify import main

        assert main(["--builtin", "calc", "--classifier"]) == 0
        out = capsys.readouterr().out
        assert "calc:classifier: ok" in out


# ---------------------------------------------------------------------------
# Property coverage: the interval substrate (satellite)
# ---------------------------------------------------------------------------

masks = st.integers(1, (1 << 64) - 1)
keys = st.integers(0, (1 << 64) - 1)


def _segment_width(segments):
    return sum(run.bit_length() for _s, run, _o in segments)


class TestIntervalProperties:
    @PROP_SETTINGS
    @given(mask=masks, key=keys)
    def test_compact_scatter_round_trip(self, mask, key):
        segments = _mask_segments(mask)
        compact = _compact(key, segments)
        assert 0 <= compact < (1 << _segment_width(segments))
        # Scatter inverts compaction on the masked bits.
        assert _scatter(compact, segments) == key & mask
        # And compaction inverts scattering on the compact domain.
        assert _compact(_scatter(compact, segments), segments) == compact

    @PROP_SETTINGS
    @given(mask=masks)
    def test_segments_partition_the_mask(self, mask):
        segments = _mask_segments(mask)
        rebuilt = 0
        out_positions = set()
        for shift, run, out in segments:
            seg_bits = run << shift
            assert rebuilt & seg_bits == 0, "segments must be disjoint"
            rebuilt |= seg_bits
            outs = {out + i for i in range(run.bit_length())}
            assert out_positions.isdisjoint(outs)
            out_positions |= outs
        assert rebuilt == mask
        assert out_positions == set(range(_segment_width(segments)))

    @PROP_SETTINGS
    @given(lo=st.integers(0, 1000), width=st.integers(0, 1000),
           claims=st.lists(
               st.tuples(st.integers(0, 2000), st.integers(0, 50)),
               max_size=8))
    def test_subtract_is_set_difference(self, lo, width, claims):
        hi = lo + width
        claimed = []
        for c_lo, c_width in claims:
            merge(claimed, (c_lo, c_lo + c_width))
        # merge() invariant: sorted, disjoint, non-adjacent.
        for (a_lo, a_hi), (b_lo, b_hi) in zip(claimed, claimed[1:]):
            assert a_hi + 1 < b_lo
        pieces = subtract((lo, hi), claimed)
        covered = set()
        for p_lo, p_hi in pieces:
            assert lo <= p_lo <= p_hi <= hi
            piece = set(range(p_lo, p_hi + 1))
            assert covered.isdisjoint(piece)
            covered |= piece
        claimed_points = set()
        for c_lo, c_hi in claimed:
            claimed_points |= set(range(c_lo, c_hi + 1))
        assert covered == set(range(lo, hi + 1)) - claimed_points

    @PROP_SETTINGS
    @given(intervals=st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 30)), min_size=1,
        max_size=10))
    def test_merge_preserves_union(self, intervals):
        claimed = []
        expected = set()
        for lo, width in intervals:
            merge(claimed, (lo, lo + width))
            expected |= set(range(lo, lo + width + 1))
        actual = set()
        for lo, hi in claimed:
            assert lo <= hi
            actual |= set(range(lo, hi + 1))
        assert actual == expected
        assert claimed == sorted(claimed)
