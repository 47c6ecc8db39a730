"""End-to-end and per-layer benchmark of the ``quasimap`` command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``.
Each workload repeats one fixed input (see ``README.md`` in this directory
for why each was chosen).  A run performs a fixed number of operations,
derived from ``--seconds`` and the workload's nominal cost, so that every run
of a workload does the same work however fast the machine is, unless the
machine is more than twice as slow as the reference (see ``DEADLINE_S``).

``--trace 0``: each operation is a fresh ``python -m quasimap ...`` process,
timed from spawn to exit, with its CPU time and peak RSS from ``wait4``.
A run of ``calibrate.py`` comes before every operation and after the last, and
each operation's times are scaled to the machine speed of the reference
machine by the two calibrations beside it (README.md, "Machine speed").
``--trace 1``: each operation runs twice in fresh processes through
``tracer.py``, once plain and once traced, and the per-layer metrics of
``layers.py`` are reported as medians over the traced operations.

Every operation's stdout is checked against ``reference.py``.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The inputs are constants; ``--seed`` is accepted and changes
nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402

SETUP_RUNS = 15
# Wall time of one unit of ``calibrate.py`` work on the reference machine.
# Every time metric is scaled by this over the calibrations measured beside
# it.  A calibration repeats the unit to last about a third of an operation:
# one short calibration catches the machine in one state, while a long
# operation averages over many (README.md, "Machine speed").
CALIBRATION_REF_S = 0.30
CALIBRATION_SHARE = 1 / 3
# A run stops starting operations after twice its nominal length, and after
# 140 s in any case, so that on a machine far slower than the reference it
# still ends within its time limit.
DEADLINE_S = 140.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    nominal_s: float  # one operation's wall time on the 2-CPU reference machine
    timeout_s: float
    check: str  # name of the reference.Checker method that judges stdout


DEGREE = 5  # two-point
ORDER = 15  # j-series
WORKLOADS = {
    "two-point": Workload(("intersect", "--degree", str(DEGREE), "--a", "1", "--b", "0"), 0.9, 30, "two_point"),
    "j-series": Workload(("jinv", "--order", str(ORDER)), 1.25, 30, "j_series"),
    "verify-ladder": Workload(("verify", "--degree-max", "4", "--format", "json"), 5.5, 90, "verify_ladder"),
}


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None  # None: exited 0 and passed its output check
    wrong: bool = False  # the program answered, and the answer was wrong
    scale: float = 1.0  # reference machine speed over the speed measured beside it


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], timeout_s: float, stdout_path: Path) -> tuple[float, float, float, int | None]:
    """Run ``argv``; return wall s, child CPU s, peak RSS MB and exit code (None on timeout)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    code = None if wall >= timeout_s else proc.returncode
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code


def run_cli(workload: Workload, judge: Callable[[str], str | None], index: int) -> Outcome:
    path = OUT / f"op{index}.out"
    argv = [sys.executable, "-m", "quasimap", *workload.argv]
    wall, cpu, rss, code = spawn(argv, workload.timeout_s, path)
    return Outcome(wall, cpu, rss, *_judge(code, path.read_text(), judge))


def _judge(code: int | None, stdout: str, judge) -> tuple[str | None, bool]:
    if code is None:
        return "timed out", False
    if code != 0:
        return f"exit code {code}", False
    try:
        error = judge(stdout)
    except (ValueError, KeyError, IndexError) as exc:  # unparsable output
        error = f"unreadable output: {exc!r}"
    return error, error is not None


def setup_once() -> float:
    """Wall time of ``python -m quasimap --help``: interpreter start and every import."""
    path = OUT / "setup.out"
    wall, _, _, code = spawn([sys.executable, "-m", "quasimap", "--help"], 30, path)
    if code != 0 or "usage: quasimap" not in path.read_text():
        raise SystemExit(f"`python -m quasimap --help` failed (exit code {code})")
    return wall


def calibration_repeat(workload: Workload) -> int:
    return max(1, round(CALIBRATION_SHARE * workload.nominal_s / CALIBRATION_REF_S))


def calibrate(repeat: int) -> float:
    """Wall time of one ``calibrate.py`` process, per unit of its work."""
    path = OUT / "calibrate.out"
    wall, _, _, code = spawn([sys.executable, str(HERE / "calibrate.py"), str(repeat)], 60, path)
    if code != 0:
        raise SystemExit(f"calibrate.py failed (exit code {code})")
    return wall / repeat


def traced_op(workload: Workload, judge, index: int, plain: bool) -> tuple[Outcome, dict | None]:
    path = OUT / f"trace{index}{'-plain' if plain else ''}.json"
    path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC), "--result", str(path)]
    argv += ["--plain"] * plain + ["--", *workload.argv]
    wall, cpu, rss, code = spawn(argv, workload.timeout_s * 2, path.with_suffix(".log"))
    doc = json.loads(path.read_text()) if code == 0 and path.exists() else None
    if doc is None:
        return Outcome(wall, cpu, rss, f"tracer exit code {code}"), None
    return Outcome(wall, cpu, rss, *_judge(doc["exit"], doc["stdout"], judge)), doc


def operation_count(workload: Workload, seconds: int, per_op: float = 1.0, extra_s: float = 0.0) -> int:
    return max(1, round(seconds / (workload.nominal_s * per_op + extra_s)))


def deadline(seconds: int) -> float:
    return time.perf_counter() + min(2.0 * seconds, DEADLINE_S)


def measure(workload: Workload, judge, seconds: int) -> tuple[list[Outcome], dict]:
    setup_once()  # untimed: writes the bytecode caches an installed package ships with
    repeat = calibration_repeat(workload)
    count = operation_count(workload, seconds, extra_s=repeat * CALIBRATION_REF_S)
    calibrations = [calibrate(repeat)]
    setup_slots, outcomes = [], []  # set-up samples as (wall s, index of the operation after it)
    stop = deadline(seconds)
    for i in range(count):
        if time.perf_counter() > stop:
            break
        # Spread the set-up samples over the run, so they see the same machine as the operations.
        for _ in range((i + 1) * SETUP_RUNS // count - i * SETUP_RUNS // count):
            setup_slots.append((setup_once(), i))
        outcomes.append(run_cli(workload, judge, i))
        calibrations.append(calibrate(repeat))
    # Operation i, and the set-up samples just before it, ran between calibrations i and i + 1.
    for o, before, after in zip(outcomes, calibrations, calibrations[1:]):
        o.scale = CALIBRATION_REF_S / ((before + after) / 2)
    ok = [o for o in outcomes if o.error is None] or outcomes
    setup_times = [wall * outcomes[i].scale for wall, i in setup_slots]
    metrics = {
        "op_s_p50": (statistics.median(o.wall_s * o.scale for o in ok), "s"),
        "ops_per_s": (sum(o.error is None for o in outcomes) / sum(o.wall_s * o.scale for o in outcomes), "1/s"),
        "cpu_s_p50": (statistics.median(o.cpu_s * o.scale for o in ok), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
    }
    print(f"unscaled: op_s_p50 {statistics.median(o.wall_s for o in ok):.4f} s, "
          f"setup_s {statistics.median(wall for wall, _ in setup_slots):.4f} s; "
          f"calibration median {statistics.median(calibrations):.4f} s, "
          f"range {min(calibrations):.4f}-{max(calibrations):.4f} s", file=sys.stderr)
    return outcomes, metrics


def measure_traced(workload: Workload, judge, seconds: int) -> tuple[list[Outcome], dict]:
    # A traced operation costs a plain run, a traced run and the span analysis.
    outcomes = []
    plain_main, import_s, per_op = [], [], []
    stop = deadline(seconds)
    for i in range(operation_count(workload, seconds, per_op=2.5)):
        if time.perf_counter() > stop:
            break
        outcome, doc = traced_op(workload, judge, i, plain=True)
        outcomes.append(outcome)
        if outcome.error is None:
            plain_main.append(doc["main_s"])
            import_s.append(doc["import_s"])
        outcome, doc = traced_op(workload, judge, i, plain=False)
        outcomes.append(outcome)
        if outcome.error is None:
            per_op.append(layers.layer_metrics(doc["spans"], doc["counts"]))
    if not per_op or not plain_main:
        raise SystemExit("no traced operation succeeded: " + "; ".join(
            sorted({o.error for o in outcomes if o.error})))
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    values["cli.import_s"] = statistics.median(import_s)
    values["trace.overhead_s"] = values["cli.main_s"] - statistics.median(plain_main)
    return outcomes, {name: (values[name], unit) for name, unit in layers.UNITS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="accepted; the inputs are constants")
    parser.add_argument("--seconds", type=int, default=10, help="sets the number of operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "quasimap" / "cli.py").is_file():
        print(f"error: no quasimap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # One CPU for this process and every process it starts. With two CPUs the
    # program's residue thread pool hands the interpreter lock across CPUs,
    # and on a shared host each hand-over can wait for the host to run the other
    # CPU: wall time then exceeds CPU time by an amount that follows the
    # host's load, not the program (see README.md).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    judge = getattr(reference.Checker(DEGREE, ORDER), workload.check)
    OUT.mkdir(exist_ok=True)
    run = measure_traced if args.trace else measure
    outcomes, metrics = run(workload, judge, args.seconds)

    for o in outcomes:
        if o.error is not None:
            print(f"operation failed: {o.error}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.error is not None for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
