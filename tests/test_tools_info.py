"""`repro-info` console tool: human table and ``--json`` output."""

import json

import pytest

from repro.rmt.params import DEFAULT_PARAMS
from repro.tools.info import info_dict, main


def test_json_flag_emits_parseable_inventory(capsys):
    assert main(["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    p = DEFAULT_PARAMS
    assert data["params"]["num_stages"] == p.num_stages
    assert data["params"]["max_modules"] == p.max_modules
    assert data["params"]["cam_entry_bits"] == p.cam_entry_bits
    assert data["params"]["alu_action_bits"] == p.alu_action_bits
    assert data["params"]["container_sizes"] == list(p.container_sizes)
    assert set(data["platforms"]) == {"netfpga_sume", "corundum"}
    for plat in data["platforms"].values():
        assert plat["bus_bytes"] == plat["bus_width_bits"] // 8
    # The table inventory round-trips shape and content.
    assert data["table_inventory"] == p.table_inventory()


def test_json_engine_section(capsys):
    """The engine section documents the two-level hot path and its
    counter schema, and can never drift from the dataclasses."""
    import dataclasses

    from repro.engine.batch import EngineCounters, EngineTenantCounters

    assert main(["--json"]) == 0
    engine = json.loads(capsys.readouterr().out)["engine"]

    levels = engine["hot_path_levels"]
    assert [lvl["level"] for lvl in levels] == [1, 2]
    assert [lvl["name"] for lvl in levels] == \
        ["compiled_classifier", "scalar_pipeline"]

    counter_fields = {f.name for f in dataclasses.fields(EngineCounters)}
    assert set(engine["counters"]) <= counter_fields
    assert {"compiled_hits", "invalidation_calls",
            "compile_rebuilds"} <= set(engine["counters"])
    assert set(engine["tenant_counters"]) == \
        {f.name for f in dataclasses.fields(EngineTenantCounters)}

    assert set(engine["fallback_reasons"]) == \
        {"stateful", "unsupported-action", "uncompilable", "parse-window",
         "uncertified"}
    assert engine["counter_units"]["invalidation_calls"] == \
        "invalidate() calls"


def test_json_analysis_section(capsys):
    """The analysis section mirrors the live pass/rule/obligation
    registries, so downstream tooling can discover them without
    importing the library."""
    from repro.analysis import CONFIG_PASSES, MODULE_PASSES
    from repro.analysis.equiv import CERTIFICATE_SCHEMA_VERSION, OBLIGATIONS
    from repro.analysis.lint import RULES
    from repro.engine.batch import CERTIFY_MODES

    assert main(["--json"]) == 0
    analysis = json.loads(capsys.readouterr().out)["analysis"]

    assert analysis["module_passes"] == [p.name for p in MODULE_PASSES]
    assert analysis["config_passes"] == [p.name for p in CONFIG_PASSES]
    assert analysis["lint_rules"] == list(RULES)
    assert "bare-assert" in analysis["lint_rules"]

    certifier = analysis["certifier"]
    assert certifier["obligations"] == list(OBLIGATIONS)
    assert certifier["certificate_schema_version"] == \
        CERTIFICATE_SCHEMA_VERSION
    assert certifier["modes"] == list(CERTIFY_MODES)
    assert certifier["env_var"] == "REPRO_ENGINE_CERTIFY"


def test_json_exec_section(capsys):
    """The exec section mirrors the live backend registry, so
    downstream tooling can discover the parallel backend's knobs
    without importing the library."""
    from repro.exec.parallel import EXEC_BACKENDS, PARALLEL_INFO

    assert main(["--json"]) == 0
    exec_info = json.loads(capsys.readouterr().out)["exec"]

    assert exec_info["backends"] == list(EXEC_BACKENDS)
    assert exec_info["env"] == {"backend": "REPRO_EXEC_BACKEND",
                                "workers": "REPRO_EXEC_WORKERS"}
    assert "one worker per switch" in exec_info["worker_policy"]
    assert "Chandy-Misra-Bryant" in exec_info["sync_algorithm"]
    assert "propagation delay" in exec_info["lookahead_source"]
    assert exec_info == PARALLEL_INFO


def test_json_matches_info_dict(capsys):
    main(["--json"])
    assert json.loads(capsys.readouterr().out) == \
        json.loads(json.dumps(info_dict()))


def test_human_output_unchanged_by_default(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "Menshen prototype hardware parameters" in out
    assert "table inventory" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)