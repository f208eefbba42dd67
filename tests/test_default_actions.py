"""Tests for the default-action (miss-action) extension."""

import pytest

from repro.api import Switch
from repro.core import MenshenPipeline
from repro.errors import CompilerError, RuntimeInterfaceError
from repro.modules import firewall
from repro.runtime import MenshenController

#: Default-deny firewall: unmatched traffic is dropped.
DEFAULT_DENY_SOURCE = firewall.P4_SOURCE.replace(
    "size = 4;",
    "size = 4;\n        default_action = block();")


class TestDefaultActions:
    def test_default_deny_firewall(self):
        switch = Switch(pipeline=MenshenPipeline(enable_default_actions=True))
        pipe = switch.pipeline
        tenant = switch.admit("fw-deny", DEFAULT_DENY_SOURCE, vid=2)
        firewall.install(tenant, allowed=[("10.0.0.1", 80, 3)])
        # Explicitly allowed traffic flows...
        allowed = pipe.process(firewall.make_packet(2, "10.0.0.1", 80))
        assert allowed.forwarded and allowed.egress_port == 3
        # ...everything else hits the default block.
        denied = pipe.process(firewall.make_packet(2, "10.0.0.9", 80))
        assert denied.dropped and denied.drop_reason == "discard"

    def test_default_is_per_module(self):
        pipe = MenshenPipeline(enable_default_actions=True)
        ctl = MenshenController(pipe)
        ctl.load_module(2, DEFAULT_DENY_SOURCE, "fw-deny")
        ctl.load_module(3, firewall.P4_SOURCE, "fw-open")
        # Module 3 has no default: its unmatched traffic passes; module
        # 2's identical traffic is dropped by its own default.
        assert pipe.process(firewall.make_packet(2, "10.0.0.9", 80)).dropped
        assert pipe.process(firewall.make_packet(3, "10.0.0.9", 80)).forwarded

    def test_pipeline_without_feature_rejects(self):
        pipe = MenshenPipeline()  # feature off (paper-faithful)
        ctl = MenshenController(pipe)
        with pytest.raises(RuntimeInterfaceError,
                           match="enable_default_actions"):
            ctl.load_module(2, DEFAULT_DENY_SOURCE, "fw-deny")

    def test_parameterized_default_rejected_at_compile(self):
        source = firewall.P4_SOURCE.replace(
            "size = 4;",
            "size = 4;\n        default_action = allow();")
        from repro.compiler import compile_module
        with pytest.raises(CompilerError, match="parameterless"):
            compile_module(source, "bad-default")

    def test_unknown_default_rejected(self):
        source = firewall.P4_SOURCE.replace(
            "size = 4;",
            "size = 4;\n        default_action = ghost();")
        from repro.compiler import compile_module
        from repro.errors import TypeCheckError
        with pytest.raises((CompilerError, TypeCheckError)):
            compile_module(source, "bad-default")

    def test_default_survives_update_protocol(self):
        pipe = MenshenPipeline(enable_default_actions=True)
        ctl = MenshenController(pipe)
        ctl.load_module(2, DEFAULT_DENY_SOURCE, "fw")
        ctl.update_module(2, DEFAULT_DENY_SOURCE)
        assert pipe.process(firewall.make_packet(2, "10.0.0.9", 80)).dropped
