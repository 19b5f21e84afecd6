"""ASCII rendering of the regenerated figures/tables, with paper-vs-model
comparison columns (the same rows the paper reports)."""

from __future__ import annotations

from ..altis.base import SIZES
from ..common.utils import geomean
from ..resilience import FailedCell

__all__ = [
    "render_speedup_grid",
    "render_figure1",
    "render_figure5",
    "render_table2",
    "render_trace_table",
    "render_suite_report",
    "compare_ratio",
]


def compare_ratio(model: float, paper: float | None) -> str:
    """model/paper agreement factor, rendered compactly."""
    if paper is None or paper == 0:
        return "--"
    r = model / paper
    return f"{r:5.2f}x"


def render_speedup_grid(title: str, model: dict[str, tuple],
                        paper: dict[str, tuple] | None = None) -> str:
    lines = [title, "=" * max(60, len(title))]
    header = f"{'config':<14}" + "".join(f"{'s' + str(s) + ' model':>11}" for s in SIZES)
    if paper:
        header += "".join(f"{'s' + str(s) + ' paper':>11}" for s in SIZES)
        header += "   model/paper"
    lines.append(header)
    for config, row in model.items():
        cells = "".join(f"{v:>11.2f}" if v is not None else f"{'--':>11}" for v in row)
        if paper and config in paper:
            prow = paper[config]
            cells += "".join(
                f"{p:>11.2f}" if p is not None else f"{'--':>11}" for p in prow
            )
            ratios = [compare_ratio(m, p) for m, p in zip(row, prow)
                      if m is not None and p is not None]
            cells += "   " + " ".join(ratios)
        lines.append(f"{config:<14}" + cells)
    # geometric means over available cells (a column may be all-None)
    cells = []
    for i in range(len(SIZES)):
        vals = [row[i] for row in model.values() if row[i] is not None and row[i] > 0]
        cells.append(f"{geomean(vals):>11.2f}" if vals else f"{'--':>11}")
    lines.append(f"{'geomean':<14}" + "".join(cells))
    return "\n".join(lines)


def render_figure1(model: dict, paper: dict) -> str:
    lines = [
        "Figure 1: FDTD2D execution-time decomposition on the RTX 2080 [ms]",
        "=" * 70,
        f"{'size/runtime':<14}{'kernel':>10}{'non-kernel':>12}"
        f"{'paper k':>10}{'paper nk':>10}",
    ]
    for key, (k, nk) in sorted(model.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        pk, pnk = paper.get(key, (None, None))
        lines.append(
            f"size {key[0]} {key[1]:<6}{k:>10.2f}{nk:>12.2f}"
            + (f"{pk:>10.1f}{pnk:>10.1f}" if pk is not None else "")
        )
    return "\n".join(lines)


def render_figure5(model: dict[str, dict[str, tuple]],
                   paper: dict[str, dict[str, tuple]],
                   geomeans_model: dict[str, tuple],
                   geomeans_paper: dict[str, tuple]) -> str:
    lines = ["Figure 5: relative speedup over the Xeon CPU",
             "=" * 70]
    for dev, rows in model.items():
        lines.append(f"\n[{dev}]")
        lines.append(f"{'config':<14}" + "".join(f"{'s'+str(s):>9}" for s in SIZES)
                     + "   paper: " + " ".join(f"{'s'+str(s):>7}" for s in SIZES))
        for config, row in rows.items():
            cells = "".join(f"{v:>9.2f}" if v is not None else f"{'--':>9}"
                            for v in row)
            prow = paper.get(dev, {}).get(config, (None,) * len(SIZES))
            pcells = " ".join(f"{p:>7.2f}" if p is not None else f"{'--':>7}"
                              for p in prow)
            lines.append(f"{config:<14}{cells}          {pcells}")
        gm = geomeans_model[dev]
        gp = geomeans_paper.get(dev)
        lines.append(f"{'geomean':<14}"
                     + "".join(f"{v:>9.2f}" for v in gm)
                     + ("          " + " ".join(f"{p:>7.2f}" for p in gp) if gp else ""))
    return "\n".join(lines)


def render_trace_table(events, *, limit: int | None = 40) -> str:
    """Flat per-launch view of a trace: wall time next to modeled time.

    One row per ``launch`` span — the textual counterpart of opening the
    Chrome trace, and the join Fig. 1 relies on (measured wall cost of a
    launch vs the modeled device/overhead split).
    """
    from ..trace.export import launch_table  # only traced runs render it

    rows = launch_table(events)
    title = f"Per-launch trace table ({len(rows)} launches)"
    lines = [title, "=" * max(70, len(title))]
    header = (f"{'kernel':<24}{'path':<8}{'items':>9}{'groups':>8}"
              f"{'phases':>8}{'wall us':>12}{'model us':>12}{'ovh us':>10}")
    lines.append(header)
    shown = rows if limit is None else rows[:limit]
    for r in shown:
        lines.append(
            f"{r['kernel']:<24}{r['path']:<8}{r['items']:>9}{r['groups']:>8}"
            f"{r['barrier_phases']:>8}{r['wall_us']:>12.1f}"
            f"{r['modeled_device_us']:>12.2f}{r['modeled_overhead_us']:>10.2f}")
    if limit is not None and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more launches")
    if rows:
        wall = sum(r["wall_us"] for r in rows)
        model = sum(r["modeled_device_us"] for r in rows)
        ovh = sum(r["modeled_overhead_us"] for r in rows)
        lines.append(f"{'total':<24}{'':<8}{'':>9}{'':>8}{'':>8}"
                     f"{wall:>12.1f}{model:>12.2f}{ovh:>10.2f}")
    return "\n".join(lines)


def render_suite_report(results: list) -> str:
    """The suite sweep report: one line per cell, failures included.

    Successful cells print their modeled kernel/total times; failed
    cells (:class:`~repro.resilience.FailedCell`, degraded mode) print
    the error class, attempt count, and message.  The summary line
    counts degraded cells and verification failures separately — a cell
    that executed but did not verify is not a degraded row.  The
    rendering depends
    only on modeled quantities — never on wall-clock — so a resumed or
    retry-recovered sweep reproduces the uninterrupted report
    byte-for-byte.
    """
    lines = []
    ok = degraded = unverified = 0
    for r in results:
        if isinstance(r, FailedCell):
            degraded += 1
            name = r.config or r.key
            lines.append(f"{name:<14} FAIL  {r.error_kind} after "
                         f"{r.attempts} attempt(s): {r.message}")
            continue
        if r.verified:
            ok += 1
            status = "ok"
        else:
            unverified += 1
            status = "FAIL"
        lines.append(f"{r.config:<14} {status:<5} "
                     f"kernel={r.modeled_kernel_s:.3e}s "
                     f"total={r.modeled_total_s:.3e}s")
    summary = f"suite: {ok}/{len(results)} ok"
    if degraded:
        summary += f", {degraded} failed (degraded)"
    if unverified:
        summary += f", {unverified} verification failure(s)"
    lines.append(summary)
    return "\n".join(lines)


def render_table2(rows: list[dict]) -> str:
    lines = [
        "Table 2: Employed Accelerator Devices",
        "=" * 78,
        f"{'Device':<34}{'nm':>4}{'Compute units':>22}"
        f"{'TFLOP/s':>9}{'BW GB/s':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['device']:<34}{r['process_nm']:>4}{r['compute_units']:>22}"
            f"{r['peak_fp32_tflops']:>9.1f}{r['mem_bw_gbs']:>9.1f}"
        )
    return "\n".join(lines)
