"""Static analysis: isolation proofs for tenant programs, determinism
lint for the codebase, equivalence certification for compiled artifacts.

Three faces share one diagnostics model (:class:`Finding`,
:class:`Severity`, :class:`AnalysisReport`):

* the **verifier** (:mod:`repro.analysis.passes`,
  :mod:`repro.analysis.verify`, CLI ``repro-verify``) proves, before a
  tenant is admitted, that its program fits its quota, that distinct
  VIDs' write sets are disjoint, that routing stays loop-free, and that
  nothing it installs can rewrite tenant identity;
* the **lint** (:mod:`repro.analysis.lint`, CLI ``repro-lint``) bans
  nondeterminism and fork-hostile state from our own sources;
* the **certifier** (:mod:`repro.analysis.equiv`, CLI
  ``repro-verify --classifier``) statically proves a tenant's compiled
  classifier equivalent to its installed tables, and
  synthesizes counterexample packets when it is not.

This package sits *below* :mod:`repro.runtime`, :mod:`repro.api`, and
:mod:`repro.fabric` in the layering — they import it to gate admission.
The verifier and lint only import the compiler, core, and rmt layers;
the :mod:`~repro.analysis.equiv` subpackage additionally imports
:mod:`repro.engine` (its subject is the engine's compiled artifact) and
is therefore *not* re-exported here — import it explicitly, as the
engine does lazily for ``BatchEngine(check_compiled=...)``.
"""

from .findings import AnalysisReport, Finding, Severity
from .lint import RULES as LINT_RULES
from .lint import lint_paths, lint_source
from .passes import (
    CONFIG_PASSES,
    MODULE_PASSES,
    ConfigContext,
    DeadCodePass,
    IdentityWritePass,
    ModuleContext,
    ResourceQuotaPass,
    TenantConfig,
    WriteSetDisjointnessPass,
    find_loop,
    loop_findings,
    run_config_passes,
    run_module_passes,
)
from .verify import (
    VERIFY_MODES,
    AnalysisWarning,
    analyze_compiled,
    analyze_source,
    analyze_switch,
    build_config_context,
    check_mode,
    verify_admission,
)

__all__ = [
    "AnalysisReport",
    "AnalysisWarning",
    "CONFIG_PASSES",
    "ConfigContext",
    "DeadCodePass",
    "Finding",
    "IdentityWritePass",
    "LINT_RULES",
    "MODULE_PASSES",
    "ModuleContext",
    "ResourceQuotaPass",
    "Severity",
    "TenantConfig",
    "VERIFY_MODES",
    "WriteSetDisjointnessPass",
    "analyze_compiled",
    "analyze_source",
    "analyze_switch",
    "build_config_context",
    "check_mode",
    "find_loop",
    "lint_paths",
    "lint_source",
    "loop_findings",
    "run_config_passes",
    "run_module_passes",
    "verify_admission",
]
