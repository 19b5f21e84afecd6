"""Command-line driver, mirroring the Altis harness interface.

Altis binaries accept ``--size``, ``--passes``, ``--device``, ``--quiet``
and report through a ResultDB; this module gives the reproduction the
same surface::

    python -m repro run KMeans --size 1 --device rtx2080 --passes 3
    python -m repro list
    python -m repro figures fig2 fig4
    python -m repro profile fdtd2d --device rtx2080
    python -m repro migrate
    python -m repro synth KMeans --device stratix10

Each subcommand returns an exit status and prints human-readable text;
the CLI is a thin layer over :mod:`repro.harness`.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from ..altis import SIZES, Variant
from ..altis.registry import APP_FACTORIES, make_app
from ..perfmodel.spec import DEVICE_SPECS, get_spec

if TYPE_CHECKING:  # pragma: no cover
    from .resultdb import ResultDB

__all__ = ["main", "build_parser", "run_benchmark", "resolve_config"]


def _positive(kind):
    """An argparse ``type=`` converting with ``kind`` and accepting only
    finite values above zero, so a bad count or scale is a usage error
    rather than an empty or meaningless run."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be finite and > 0, got {text}")
        return value
    return parse


def _non_negative_int(text: str) -> int:
    """An argparse ``type=`` for a workload seed: numpy's generators
    take only integers >= 0, so a negative seed is a usage error rather
    than a traceback from inside the run."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_trace_args(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--trace", action="store_true",
                            help="record an execution trace of this command")
    sub_parser.add_argument("--trace-out", default=None, metavar="PATH",
                            help="Chrome-trace JSON output path "
                                 "(default: trace.json; open in "
                                 "chrome://tracing)")


def _add_mode_arg(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--mode", default="auto",
                            choices=["auto", "item", "compiled"],
                            help="kernel form: auto runs each kernel's "
                                 "vector_fn, else its item_fn; item pins "
                                 "the item_fn; compiled is an alias of "
                                 "auto, kept until ROADMAP item 3 retires "
                                 "the suite-compiled workload "
                                 "(default: auto)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Altis-SYCL reproduction driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark functionally")
    run.add_argument("benchmark", choices=sorted(APP_FACTORIES))
    run.add_argument("--size", type=int, default=1, choices=SIZES)
    run.add_argument("--device", default="rtx2080",
                     choices=sorted(DEVICE_SPECS))
    run.add_argument("--passes", type=_positive(int), default=1)
    run.add_argument("--scale", type=_positive(float), default=None,
                     help="functional problem scale (default: test scale)")
    run.add_argument("--variant", default="sycl_opt",
                     choices=[v.value for v in Variant])
    _add_mode_arg(run)
    run.add_argument("--quiet", action="store_true")
    _add_trace_args(run)

    sub.add_parser("list", help="list benchmarks and devices")

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("which", nargs="+",
                         choices=["fig1", "fig2", "fig4", "fig5", "table2",
                                  "table3"])
    figures.add_argument("--no-cache", action="store_true",
                         help="disable the figure cache")
    figures.add_argument("--cache-dir", default=None,
                         help="figure cache directory (default: "
                              "$REPRO_CACHE_DIR or .repro_cache)")
    _add_trace_args(figures)

    suite = sub.add_parser("suite",
                           help="run the functional verification sweep")
    suite.add_argument("--device", default="rtx2080",
                       choices=sorted(DEVICE_SPECS))
    suite.add_argument("--variant", default="sycl_opt",
                       choices=[v.value for v in Variant])
    _add_mode_arg(suite)
    suite.add_argument("--on-error", default="abort",
                       choices=["abort", "degrade"],
                       help="abort: the first failing cell stops the "
                            "sweep; degrade: every cell runs and a failing "
                            "one becomes a FAIL report row.  Either way "
                            "the exit status is 1 if any cell failed")
    suite.add_argument("--journal", default=None, metavar="PATH",
                       help="append-only sweep journal (JSONL, fsync'd); "
                            "completed cells are checkpointed here "
                            "(default with --resume: "
                            ".repro_sweep.journal)")
    suite.add_argument("--resume", action="store_true",
                       help="skip cells already completed in the journal "
                            "and merge their results into the report")
    _add_trace_args(suite)

    profile = sub.add_parser(
        "profile", help="run one benchmark under tracing and write a "
                        "per-kernel profile report")
    profile.add_argument("benchmark",
                         help="benchmark name, case/spacing-insensitive "
                              "(e.g. nw, fdtd2d, pf-naive; see "
                              "'repro list')")
    profile.add_argument("--device", default="rtx2080",
                         choices=sorted(DEVICE_SPECS))
    profile.add_argument("--variant", default="sycl_opt",
                         choices=[v.value for v in Variant])
    _add_mode_arg(profile)
    profile.add_argument("--scale", type=_positive(float), default=None,
                         help="functional problem scale (default: 2x the "
                              "functional test scale)")
    profile.add_argument("--seed", type=_non_negative_int, default=0,
                         help="workload seed")
    profile.add_argument("--quick", action="store_true",
                         help="CI-sized run: profile at the functional "
                              "test scale instead of 2x")
    profile.add_argument("--out", default=None, metavar="DIR",
                         help="artifact directory for profile.json / "
                              "profile.md / trace.json "
                              "(default: profile_<benchmark>)")
    profile.add_argument("--quiet", action="store_true",
                         help="write the artifacts without printing the "
                              "report")

    sub.add_parser("migrate", help="print the §3.2 migration report")

    synth = sub.add_parser("synth", help="synthesize an FPGA design")
    synth.add_argument("benchmark", choices=sorted(APP_FACTORIES))
    synth.add_argument("--device", default="stratix10",
                       choices=["stratix10", "agilex"])
    synth.add_argument("--size", type=int, default=3, choices=SIZES)
    synth.add_argument("--baseline", action="store_true",
                       help="build the non-optimized design")
    return parser


def run_benchmark(config: str, size: int, device_key: str, passes: int,
                  variant: Variant, scale: float | None,
                  db: ResultDB, mode: str = "auto") -> None:
    """Execute one benchmark ``passes`` times into a ResultDB."""
    from .runner import _DEFAULT_SCALES, run_functional

    scale = scale if scale is not None else _DEFAULT_SCALES.get(config, 0.02)
    for pass_idx in range(passes):
        result = run_functional(config, device_key, variant, scale=scale,
                                seed=pass_idx, mode=mode)
        db.add_result(config, "kernel_time", "s", result.modeled_kernel_s)
        db.add_result(config, "total_time", "s", result.modeled_total_s)
    # the analytical layer's full-size estimate, once
    app = make_app(config)
    if variant in (Variant.FPGA_BASE, Variant.FPGA_OPT):
        if get_spec(device_key).is_fpga:
            t = app.fpga_time(size, variant is Variant.FPGA_OPT, device_key)
            db.add_result(config, f"modeled_size{size}", "s", t.total_s)
    else:
        t = app.reported_time_s(size, variant, device_key)
        db.add_result(config, f"modeled_size{size}", "s", t)


def _cmd_run(args) -> int:
    from ..common.errors import ReproError
    from .resultdb import ResultDB

    db = ResultDB()
    try:
        run_benchmark(args.benchmark, args.size, args.device, args.passes,
                      Variant(args.variant), args.scale, db, mode=args.mode)
    except ReproError as exc:
        print(f"run failed: {exc}")
        return 1
    if not args.quiet:
        print(db.render())
    return 0


def _cmd_list(_args) -> int:
    print("benchmarks:")
    for name in sorted(APP_FACTORIES):
        print(f"  {name}")
    print("devices:")
    for key, spec in DEVICE_SPECS.items():
        print(f"  {key:<10} {spec.name}")
    return 0


def _cmd_figures(args) -> int:
    from . import experiments, reporting
    from .resultdb import FigureCache

    cache = FigureCache(root=args.cache_dir, enabled=not args.no_cache)
    for which in args.which:
        if which == "fig1":
            print(reporting.render_figure1(experiments.figure1(cache=cache),
                                           experiments.PAPER_FIG1))
        elif which == "fig2":
            print(reporting.render_speedup_grid(
                "Figure 2 (optimized SYCL vs CUDA, RTX 2080)",
                experiments.figure2(True, cache=cache),
                experiments.PAPER_FIG2_OPTIMIZED))
        elif which == "fig4":
            print(reporting.render_speedup_grid(
                "Figure 4 (FPGA optimized vs baseline, Stratix 10)",
                experiments.figure4(cache=cache),
                experiments.PAPER_FIG4))
        elif which == "fig5":
            fig5 = experiments.figure5(cache=cache)
            print(reporting.render_figure5(
                fig5, experiments.PAPER_FIG5,
                experiments.figure5_geomeans(fig5),
                experiments.PAPER_FIG5_GEOMEANS))
        elif which == "table2":
            print(reporting.render_table2(experiments.table2()))
        elif which == "table3":
            from ..fpga import render_table3

            print(render_table3(experiments.table3()))
        print()
    return 0


def _cmd_suite(args) -> int:
    from ..common.errors import CellExecutionError
    from .reporting import render_suite_report
    from .runner import run_suite_functional

    journal = args.journal
    if journal is None and args.resume:
        journal = ".repro_sweep.journal"
    try:
        results = run_suite_functional(
            args.device, Variant(args.variant), mode=args.mode,
            degrade=args.on_error == "degrade",
            journal=journal, resume=args.resume)
    except CellExecutionError as exc:
        print(f"suite aborted: {exc}")
        if journal is not None:
            print(f"completed cells are journaled in {journal}; "
                  "re-run with --resume to continue")
        return 1
    print(render_suite_report(results))
    # a FailedCell row is never verified, so degrade mode fails here too
    return 0 if all(r.verified for r in results) else 1


def resolve_config(name: str) -> str:
    """Registry key for a case/spacing-insensitive benchmark name.

    ``nw`` / ``NW``, ``fdtd2d`` / ``FDTD2D``, ``pf-naive`` / ``PF
    Naive`` all resolve; unknown names raise ``SystemExit`` with the
    available list (argparse-style)."""
    import re

    def norm(s: str) -> str:
        return re.sub(r"[\s_-]+", "", s).lower()

    wanted = norm(name)
    for key in APP_FACTORIES:
        if norm(key) == wanted:
            return key
    raise SystemExit(
        f"repro profile: unknown benchmark {name!r}; "
        f"choose from {sorted(APP_FACTORIES)}")


def _cmd_profile(args) -> int:
    from ..common.errors import ReproError
    from ..trace.profile import profile_functional, render_profile, \
        write_profile
    from .runner import _DEFAULT_SCALES

    config = resolve_config(args.benchmark)
    scale = args.scale
    if scale is None:
        base = _DEFAULT_SCALES.get(config, 0.02)
        scale = base if args.quick else base * 2
    try:
        run = profile_functional(config, device_key=args.device,
                                 variant=args.variant, mode=args.mode,
                                 scale=scale, seed=args.seed)
    except ReproError as exc:
        print(f"profile failed: {exc}")
        return 1
    out = args.out or f"profile_{args.benchmark.lower().replace(' ', '_')}"
    paths = write_profile(out, run)
    if not args.quiet:
        print(render_profile(run.profile))
    print("profile artifacts:")
    for name, path in paths.items():
        print(f"  {name:<16} {path}")
    return 0


def _cmd_migrate(_args) -> int:
    from .experiments import migration_report

    print(migration_report().render())
    return 0


def _cmd_synth(args) -> int:
    from ..common.errors import ReproError
    from ..fpga.synthesis import synthesize

    app = make_app(args.benchmark)
    try:
        setup = app.fpga_setup(args.size, not args.baseline, args.device)
        syn = synthesize(setup.design, get_spec(args.device))
    except ReproError as exc:
        print(f"synthesis failed: {exc}")
        return 1
    util = syn.utilization_percent()
    print(f"design   : {syn.design_name}")
    print(f"device   : {syn.device_key}")
    print(f"ALM      : {util['alm']:.1f}%")
    print(f"BRAM     : {util['bram']:.1f}%")
    print(f"DSP      : {util['dsp']:.1f}%")
    print(f"Fmax     : {syn.fmax_mhz:.1f} MHz")
    print(f"kernels  : {len(setup.design.kernels)}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "list": _cmd_list,
    "figures": _cmd_figures,
    "suite": _cmd_suite,
    "profile": _cmd_profile,
    "migrate": _cmd_migrate,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    if not getattr(args, "trace", False):
        return command(args)
    return _run_traced(command, args)


def _run_traced(command, args) -> int:
    """Run one CLI command under a fresh tracer and export the trace."""
    from ..trace import metrics, tracing, write_chrome_trace
    from . import reporting

    with tracing() as tracer:
        with tracer.span(f"repro:{args.command}", "run",
                         command=args.command):
            status = command(args)
        events = tracer.events()
    out = args.trace_out or "trace.json"
    path = write_chrome_trace(out, events,
                              metrics=metrics.registry.snapshot())
    quiet = getattr(args, "quiet", False)
    if not quiet:
        launches = sum(1 for ev in events if ev.cat == "launch")
        if launches:
            print(reporting.render_trace_table(events))
        print(f"trace: {len(events)} spans -> {path} "
              "(load in chrome://tracing)")
    return status

