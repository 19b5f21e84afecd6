"""Experiment harness: regenerates every table and figure of the paper
and runs the functional verification sweep."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "experiments": ("PAPER_FIG1", "PAPER_FIG2_BASELINE",
                    "PAPER_FIG2_OPTIMIZED", "PAPER_FIG4", "PAPER_FIG5",
                    "PAPER_FIG5_GEOMEANS", "PAPER_TABLE3", "figure1",
                    "figure2", "figure4", "figure5", "figure5_geomeans",
                    "migration_report", "table2", "table3"),
    "reporting": ("compare_ratio", "render_figure1", "render_figure5",
                  "render_speedup_grid", "render_suite_report",
                  "render_table2"),
    "runner": ("RunResult", "run_functional", "run_suite_functional",
               "journal_record", "result_from_record", "generate_workload"),
    "resultdb": ("Result", "ResultDB", "SweepJournal", "FigureCache",
                 "code_fingerprint"),
})
