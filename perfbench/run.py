"""Cold-process benchmark of the ``repro`` commands users run.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Each workload is a closed loop with one client: it starts one fresh
``python -m repro ...`` process at a time, in a benchmark-owned working
directory with a benchmark-owned ``REPRO_CACHE_DIR`` (both under
``.perfbench_work/`` at the repository root), and starts the next only
when the previous one has exited.

``--trace 0`` reports the end-to-end metrics (median wall, tail wall,
CPU, peak RSS, set-up).  The host is shared, and its speed drifts by
15-60% between runs minutes apart, so every invocation follows a bare
``python -c pass`` start and its times are scaled by
:data:`NOMINAL_FLOOR_S` over that start's wall: the time metrics read as
seconds on a machine whose bare interpreter start takes 50 ms.  The
record keeps the raw seconds.  ``--trace 1`` reports the per-layer metrics:
each round times ``python -c pass``, one plain invocation, one
``python -X importtime`` invocation of the same command and one traced
re-enactment (``layers.py``), and the metrics are medians over rounds.

Every invocation is checked: exit status 0, no ``FAIL`` row, all suite
rows ``ok``, and stdout byte-identical to the first priming
invocation's.  The last stdout line is the JSON result; the line before
it is the full record (environment stamp, failures, tail percentile).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable

#: priming invocations per run; ``setup_s`` is their median
SETUPS = 3
#: the bare interpreter start that end-to-end times are scaled to
NOMINAL_FLOOR_S = 0.05
#: a single invocation that runs longer than this is killed and failed
INVOCATION_TIMEOUT_S = 60.0
#: rows of a healthy ``repro suite`` report
SUITE_ROWS = 13
FIGURES = ("fig1", "fig2", "fig4", "fig5", "table2", "table3")
FIGURE_TITLES = (b"Figure 1", b"Figure 2", b"Figure 4", b"Figure 5",
                 b"Table 2", b"Table 3")

#: environment that would change what a child imports or caches
_DROPPED_ENV = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                "PYTHONPROFILEIMPORTTIME", "PYTHONSTARTUP", "PYTHONHOME")
_FAIL_ROW = re.compile(rb"\bFAIL\b")
_OK_ROW = re.compile(rb"^\S.*?\s+ok\s+kernel=", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    name: str
    #: interpreter arguments of one invocation (after ``python``)
    command: tuple
    #: ``ok`` rows a correct report has (0: not a suite report)
    suite_rows: int = 0
    #: byte strings a correct report contains
    titles: tuple = ()


WORKLOADS = {
    "suite": Workload("suite", ("-m", "repro", "suite"),
                      suite_rows=SUITE_ROWS),
    "suite-compiled": Workload(
        "suite-compiled", ("-m", "repro", "suite", "--mode", "compiled"),
        suite_rows=SUITE_ROWS),
    "figures": Workload("figures",
                        ("-m", "repro", "figures", *FIGURES, "--no-cache"),
                        titles=FIGURE_TITLES),
}

END_TO_END = {"wall_s": "s", "wall_tail_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    failure: str | None = None
    #: wall of the bare interpreter start run just before this one
    floor_s: float = 0.0

    def scaled(self, seconds: float) -> float:
        return seconds * NOMINAL_FLOOR_S / self.floor_s


@dataclass
class Ledger:
    """Every checked invocation of one benchmark run."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, kind: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{kind} #{self.attempted}: {failure}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in _DROPPED_ENV and not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # One BLAS thread keeps the child single-threaded like the bare-start
    # reference.  With an nproc-sized pool, numpy's import waited on a
    # second vCPU the reference never uses, and the scaled `figures` wall
    # moved 23% between two sets of ten runs.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def invoke(argv: list, env: dict, cwd: Path) -> Invocation:
    """Run one child to completion: wall time, and CPU time and peak RSS
    from the child's own rusage."""
    err_path = cwd / ".stderr"
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0,
                      returncode=proc.returncode, stdout=out,
                      stderr=err_path.read_bytes())


def bare_start_s(env: dict, cwd: Path) -> float:
    """Wall time of ``python -c pass``: the machine-speed reference."""
    return invoke([PYTHON, "-c", "pass"], env, cwd).wall_s


def invoke_after_bare_start(workload: Workload, env: dict,
                            cwd: Path) -> Invocation:
    floor_s = bare_start_s(env, cwd)
    inv = invoke([PYTHON, *workload.command], env, cwd)
    inv.floor_s = floor_s
    return inv


def check_exit(inv: Invocation) -> str | None:
    if inv.returncode == 0:
        return None
    last = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return f"exit status {inv.returncode}" + (f" ({last[0]})" if last else "")


def check_report(workload: Workload, stdout: bytes,
                 reference: bytes | None) -> str | None:
    """Why a report is wrong, or ``None``."""
    if _FAIL_ROW.search(stdout):
        return "report has a FAIL row"
    if workload.suite_rows:
        ok = len(_OK_ROW.findall(stdout))
        if ok != workload.suite_rows:
            return f"{ok} of {workload.suite_rows} suite rows ok"
    missing = [t.decode() for t in workload.titles if t not in stdout]
    if missing:
        return f"report lacks {', '.join(missing)}"
    if reference is not None and stdout != reference:
        return "stdout differs from the priming invocation"
    return None


def check_invocation(workload: Workload, inv: Invocation,
                     reference: bytes | None) -> str | None:
    return check_exit(inv) or check_report(workload, inv.stdout, reference)


@dataclass
class Primed:
    setups: list
    reference: bytes
    cwd: Path
    env: dict


def prime(workload: Workload, work: Path, ledger: Ledger) -> Primed:
    """The untimed set-up: :data:`SETUPS` priming invocations, each with
    a fresh working directory and cache.  The first fills
    ``__pycache__``; anything the program persists lands in the cache
    the timed invocations then use (the last one's)."""
    setups, reference = [], None
    for k in range(SETUPS):
        cwd, cache = work / f"setup{k}" / "cwd", work / f"setup{k}" / "cache"
        cwd.mkdir(parents=True)
        cache.mkdir()
        env = child_env(cache)
        inv = invoke_after_bare_start(workload, env, cwd)
        inv.failure = check_invocation(workload, inv, reference)
        ledger.record("setup", inv.failure)
        if reference is None:
            reference = inv.stdout
        setups.append(inv)
    return Primed(setups=setups, reference=reference, cwd=cwd, env=env)


def closed_loop(workload: Workload, primed: Primed, seconds: float,
                ledger: Ledger) -> list:
    """One client, one invocation at a time, until ``seconds`` pass."""
    deadline = time.perf_counter() + seconds
    runs = []
    while True:
        inv = invoke_after_bare_start(workload, primed.env, primed.cwd)
        inv.failure = check_invocation(workload, inv, primed.reference)
        ledger.record("timed", inv.failure)
        runs.append(inv)
        if time.perf_counter() >= deadline:
            return runs


def end_to_end_metrics(setups: list, runs: list) -> tuple[dict, dict, dict]:
    """(metrics, tail details, raw seconds) from the priming and timed
    invocations."""
    walls = [r.scaled(r.wall_s) for r in runs]
    tail, pct, n = measure.tail(walls)
    values = {
        "wall_s": measure.median(walls),
        "wall_tail_s": tail,
        "cpu_s": measure.median(r.scaled(r.cpu_s) for r in runs),
        "peak_rss_mb": measure.median(r.rss_mb for r in runs),
        "setup_s": measure.median(s.scaled(s.wall_s) for s in setups),
    }
    raw = {"wall_s": measure.median(r.wall_s for r in runs),
           "cpu_s": measure.median(r.cpu_s for r in runs),
           "setup_s": measure.median(s.wall_s for s in setups),
           "bare_start_s": measure.median(r.floor_s for r in runs)}
    return values, {"percentile": pct, "samples": n}, raw


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def layer_metrics(traced: dict, process_wall_s: float, imports: dict,
                  python_s: float, wall_s: float) -> dict:
    """Per-layer metrics of one round.

    ``traced`` is ``layers.py``'s output and ``process_wall_s`` its
    process wall time; the warm second pass is subtracted, so
    ``trace.wall_s`` is the traced re-enactment of the command alone and
    the layer self times plus ``process.unattributed_s`` add up to it.
    """
    spans = measure.wall_spans(traced["spans"])
    layers = measure.span_layers(spans)
    folded = measure.fold_layers(spans)
    first = [sp for sp in spans if layers[sp["id"]] != measure.WARM]

    def count(cat, name=None):
        return sum(1 for sp in first
                   if sp["cat"] == cat and (name is None or sp["name"] == name))

    def total_s(name, warm):
        return sum(sp["dur_us"] for sp in spans
                   if sp["cat"] == "bench" and sp["name"] == name
                   and (layers[sp["id"]] == measure.WARM) == warm) / 1e6

    trace_wall = process_wall_s - total_s(measure.WARM, True)
    attributed = sum(v for k, v in folded.items() if k != measure.WARM)
    run_s, warm_s = total_s("sycl.run", False), total_s("sycl.run", True)
    reference_s = folded.get("altis.reference", 0.0)
    plans = traced.get("plans", {"compiles": 0, "hits": 0, "tiers": {}})
    tiers = {path: entry["count"] for path, entry in plans["tiers"].items()}
    fallbacks = count("vectorize", "vectorize.fallback")
    tried = tiers.get("compiled", 0) + fallbacks
    evals = traced.get("evals", {"perfmodel": 0, "fpga": 0})

    out = {
        "import.wall_s": folded.get("import.wall", 0.0),
        "import.numpy_s": imports["numpy"],
        "import.stdlib_s": imports["stdlib"],
    }
    for sub in measure.REPRO_SUBPACKAGES:
        out[f"import.repro.{sub}_s"] = imports[f"repro.{sub}"]
    out.update({
        "import.repro_modules": imports["repro_modules"],
        "runner.generate_s": folded.get("runner.generate", 0.0),
        "runner.cells": traced["cells"],
        "altis.reference_s": reference_s,
        "altis.verify_s": folded.get("altis.verify", 0.0),
        "sycl.run_s": run_s,
        "sycl.warm_s": warm_s,
        "sycl.oneshot_s": run_s - warm_s,
        "sycl.host_s": folded.get("sycl.host", 0.0),
        "sycl.dispatch_s": folded.get("sycl.dispatch", 0.0),
        "sycl.plan_s": folded.get("sycl.plan", 0.0),
        "sycl.kernel_s": folded.get("sycl.kernel", 0.0),
        "sycl.launches": count("launch"),
        "sycl.barrier_phases": count("barrier-phase"),
        "sycl.plan_compiles": plans["compiles"],
        "sycl.plan_hits": plans["hits"],
        "sycl.tier.vector": tiers.get("vector", 0),
        "sycl.tier.group": tiers.get("group", 0),
        "sycl.tier.item": tiers.get("item", 0),
        "sycl.tier.compiled": tiers.get("compiled", 0),
        "sycl.fallbacks": fallbacks,
        "sycl.promoted_frac": tiers.get("compiled", 0) / tried if tried else 0.0,
        "sycl.over_reference": warm_s / reference_s if reference_s else 0.0,
        "perfmodel.figures_s": folded.get("perfmodel.figures", 0.0),
        "fpga.table3_s": folded.get("fpga.table3", 0.0),
        "perfmodel.evals": evals["perfmodel"],
        "fpga.evals": evals["fpga"],
        "reporting.render_s": folded.get("reporting.render", 0.0),
        "process.python_s": python_s,
        "process.unattributed_s": trace_wall - attributed,
        "trace.wall_s": trace_wall,
        "trace.overhead_s": trace_wall - wall_s,
    })
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "sycl.over_reference":
        return "ratio"
    return "count"


def traced_round(workload: Workload, primed: Primed, seed: int, work: Path,
                 ledger: Ledger) -> dict | None:
    floor_s = bare_start_s(primed.env, primed.cwd)

    plain = invoke([PYTHON, *workload.command], primed.env, primed.cwd)
    plain.failure = check_invocation(workload, plain, primed.reference)
    ledger.record("plain", plain.failure)

    imports = invoke([PYTHON, "-X", "importtime", *workload.command],
                     primed.env, primed.cwd)
    imports.failure = check_invocation(workload, imports, primed.reference)
    ledger.record("importtime", imports.failure)

    out = work / "layers.json"
    out.unlink(missing_ok=True)
    traced = invoke([PYTHON, str(HERE / "layers.py"), "--workload",
                     workload.name, "--seed", str(seed), "--out", str(out)],
                    primed.env, primed.cwd)
    traced.failure = check_exit(traced)
    result = None
    if traced.failure is None:
        result = json.loads(out.read_text())
        # seed 0 is the CLI's own input, so the report must match it
        reference = (primed.reference
                     if seed == 0 or not workload.suite_rows else None)
        traced.failure = check_report(workload, result["report"].encode(),
                                      reference)
    ledger.record("traced", traced.failure)
    if traced.failure is not None or imports.failure is not None:
        return None
    return layer_metrics(result, traced.wall_s,
                         measure.parse_importtime(
                             imports.stderr.decode(errors="replace")),
                         floor_s, plain.wall_s)


def traced_run(workload: Workload, primed: Primed, seed: int, seconds: float,
               work: Path, ledger: Ledger) -> tuple[dict, int]:
    """Rounds until ``seconds`` pass; (median of each metric, rounds)."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        metrics = traced_round(workload, primed, seed, work, ledger)
        if metrics is not None:
            rounds.append(metrics)
        if time.perf_counter() >= deadline:
            break
    if not rounds:  # every round failed: report zeros, correct=false
        rounds = [dict.fromkeys(layer_metrics(
            {"spans": [], "cells": 0}, 0.0, measure.parse_importtime(""),
            0.0, 0.0), 0.0)]
    return ({name: measure.median(r[name] for r in rounds)
             for name in rounds[0]}, len(rounds))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def environment_stamp(seed: int) -> dict:
    """Machine identity, so records from different machines are never
    compared."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from repro.harness.bench import bench_environment

    return {**bench_environment(), "numpy": numpy.__version__,
            "nproc": nproc(), "seed": seed}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    primed = prime(workload, work, ledger)
    record = {"workload": workload.name, "trace": args.trace,
              "seconds": args.seconds}
    if args.trace:
        values, record["rounds"] = traced_run(workload, primed, args.seed,
                                              args.seconds, work, ledger)
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in values.items()}
    else:
        runs = closed_loop(workload, primed, args.seconds, ledger)
        values, record["wall_tail"], record["raw"] = end_to_end_metrics(
            primed.setups, runs)
        metrics = {name: {"value": v, "unit": END_TO_END[name]}
                   for name, v in values.items()}
    record["environment"] = environment_stamp(args.seed)
    record["failures"] = ledger.failures
    record["failed_frac"] = len(ledger.failures) / ledger.attempted
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    (work / "record.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
