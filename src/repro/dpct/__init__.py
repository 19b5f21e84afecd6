"""DPC++ Compatibility Tool analogue: rule-based CUDA->SYCL migration
over construct-level source models, reproducing the paper's §3.2
migration experience."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "migrator": ("CompilationDatabase", "MigrationResult", "Migrator",
                 "intercept_build"),
    "report": ("SuiteMigrationReport", "build_report"),
    "rules": ("RULES", "Rule", "Diagnostic", "FixKind", "WarningCategory"),
    "source_model": ("CONSTRUCT_KINDS", "Construct", "SourceModel"),
})
