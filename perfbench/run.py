#!/usr/bin/env python3
"""End-to-end benchmark of the paper's ADI flow, layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload testgen_orders --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests

Every sample runs in a fresh ``perfbench/worker.py`` process.  With
``--trace 0`` the run repeats measured passes until ``--seconds`` have
gone by (at least one), adds set-up-only processes until it holds
:data:`SETUP_SAMPLES` set-up times, and reports medians of the
end-to-end metrics named in ``BENCHMARK.json``.  With ``--trace 1`` it
runs an untraced and a traced pass and reports the per-layer metrics,
taken from spans the benchmark records around the program's public
calls.  Both check every output (see ``workloads.py``) and print one
run record line, then, as the last line, the JSON result.

All state lives under ``perfbench/work/``: the suite cache
(``REPRO_CACHE_DIR``), any artifact cache (``REPRO_FLOW_CACHE_DIR``),
bytecode, ``records.jsonl`` (one run record per run) and ``traces/``
(the spans of each traced pass).  The first run in a checkout builds the
suite circuits the warm workloads load (about a minute).  A run that
leaves a new file anywhere else in the checkout is reported incorrect.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
WORKER = HERE / "worker.py"

# workloads.py imports nothing from the program at module level; no
# bytecode for it, so that the checkout gains no file outside work/.
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.CIRCUITS)
DEFAULT_SEED = workloads.DEFAULT_SEED
SETUP_SAMPLES = 3
#: Per-process limits: a run must end within 180 s, except the first in
#: a checkout, which builds the suite cache.
WORKER_TIMEOUT = 150
PREPARE_TIMEOUT = 800


def child_env() -> dict:
    """The workers' environment: the checkout's sources, every cache under
    ``work/``, bytecode cached as Python does by default, and none of the
    program's tuning knobs inherited from the caller."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["REPRO_CACHE_DIR"] = str(WORK / "suite")
    env["REPRO_FLOW_CACHE_DIR"] = str(WORK / "flow")
    for knob in ("REPRO_FSIM_BACKEND", "REPRO_FSIM_SHARDS", "REPRO_CHAOS",
                 "REPRO_TELEMETRY", "REPRO_FULL"):
        env.pop(knob, None)
    return env


def spawn(args: list, timeout: float = WORKER_TIMEOUT) -> tuple:
    """Run one worker; returns (its JSON report or None, start time).

    The worker leads its own process group, so that whatever it started
    (the sharded simulation pool) is killed with it and nothing outlives
    the call.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, started
    return json.loads(lines[-1]), started


def prepare(smoke: bool) -> None:
    """Build the warm workloads' suite circuits once per checkout.

    A marker naming the sources it was built from skips the check (a
    process start) on later runs.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    marker = WORK / ("prepared-smoke" if smoke else "prepared")
    stamp = source_sha()
    with open(WORK / "prepare.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if marker.is_file() and marker.read_text() == stamp:
            return
        report, _ = spawn(["--mode", "prepare"]
                          + (["--smoke"] if smoke else []), PREPARE_TIMEOUT)
        if report is None:
            raise SystemExit("perfbench: building the suite cache failed")
        marker.write_text(stamp)


def tree_snapshot() -> set:
    """Every file in the checkout outside the benchmark's own state."""
    skip = {ROOT / ".git", ROOT / ".bench_build", WORK}
    found = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        base = Path(dirpath)
        dirnames[:] = [d for d in dirnames if base / d not in skip]
        found.update(str(base / f) for f in filenames)
    return found


def git_sha():
    """The checkout's commit, when it is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha() -> str:
    """Digest of the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Tally:
    """Operations and checks over every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reports = []

    def add(self, report, label: str) -> None:
        if report is None or "error" in report:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{label}: " + (
                report["error"] if report else "worker process failed"))
            return
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.errors += report["errors"]
        if self.reports and report["digests"] != self.reports[0]["digests"]:
            self.failed += 1
            self.errors.append(f"{label}: outputs differ between passes")
        self.reports.append(report)


def measure(args, worker_args: list) -> tuple:
    """Untraced passes for ``args.seconds`` plus set-up-only samples."""
    tally = Tally()
    setups = []
    began = time.monotonic()
    while not tally.reports or time.monotonic() - began < args.seconds:
        report, started = spawn(["--mode", "pass", "--trace", "0"]
                                + worker_args)
        tally.add(report, f"pass {len(setups) + 1}")
        if report is None or "error" in report:
            break
        setups.append(report["ready"] - started)
    while tally.reports and len(setups) < SETUP_SAMPLES:
        report, started = spawn(["--mode", "setup"] + worker_args)
        if report is None:
            tally.add(None, "setup")
            break
        setups.append(report["ready"] - started)
    return tally, setups


def end_to_end(tally: Tally, setups: list) -> dict:
    reports = tally.reports
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reports),
        "fault_coverage": reports[0]["quality"]["fault_coverage"],
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["layers"])
    for engine in ("bigint", "numpy", "parallel"):
        metrics[f"fsim.engine.{engine}_calls"] = traced["dispatch"].get(
            engine, 0)
    for stage in ("circuit", "faults", "u", "adi", "order", "testgen",
                  "curve"):
        metrics[f"flow.stage.{stage}_s"] = traced["stages"].get(stage, 0.0)
    for key in ("tests_total", "aborted_total", "ave_ratio"):
        metrics[f"quality.{key}"] = traced["quality"][key]
    metrics["peak_rss_mb"] = untraced["peak_rss_mb"]
    metrics["trace.spans"] = traced["spans"]
    metrics["trace.overhead_pct"] = (
        100.0 * (traced["run_s"] - untraced["run_s"]) / untraced["run_s"])
    return metrics


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepare(args.smoke)
    before = tree_snapshot()
    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        worker_args.append("--smoke")
    if args.corrupt:
        worker_args.append("--corrupt")

    if args.trace:
        tally = Tally()
        untraced, _ = spawn(["--mode", "pass", "--trace", "0"] + worker_args)
        tally.add(untraced, "untraced pass")
        spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        traced, _ = spawn(["--mode", "pass", "--trace", "1",
                           "--trace-out", str(spans)] + worker_args)
        tally.add(traced, "traced pass")
        wanted = spec["per_layer"]
        values = (per_layer(untraced, traced)
                  if len(tally.reports) == 2 else {})
        setups = []
    else:
        tally, setups = measure(args, worker_args)
        wanted = spec["end_to_end"]
        values = end_to_end(tally, setups) if tally.reports else {}

    created = sorted(tree_snapshot() - before)
    if created:
        tally.errors.append(f"run left new files in the checkout: {created}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and missing:
        tally.errors.append(f"metrics not measured: {missing}")
    correct = not tally.errors and bool(values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source_sha(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": tally.reports[0]["numpy"] if tally.reports else None,
        "auto_dispatch": [r["dispatch"] for r in tally.reports],
        "run_s": [r["run_s"] for r in tally.reports],
        "setup_s": setups,
        "errors": tally.errors,
        "metrics": metrics,
    }
    with open(WORK / "records.jsonl", "a") as out:
        out.write(json.dumps(record) + "\n")
    for error in tally.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def record_digests() -> int:
    """Rewrite ``digests.json`` from one pass per workload at the default
    seed.  Only for a change that alters outputs on purpose and says why."""
    prepare(smoke=False)
    digests = {}
    for workload in WORKLOADS:
        report, _ = spawn(["--mode", "pass", "--workload", workload,
                           "--seed", str(DEFAULT_SEED), "--record"])
        if report is None or "error" in report or report["failed"]:
            print(f"perfbench: {workload} pass failed: {report}",
                  file=sys.stderr)
            return 1
        digests[workload] = report["digests"]
    (HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def self_test() -> int:
    """Smoke-size check of the harness itself (about two minutes).

    Every workload, traced and untraced, must print every metric of
    ``BENCHMARK.json`` with no failed operation and at most 5% of the
    traced pass unattributed; a corrupted output must count as failed;
    and a directory holding only the benchmark must make it exit non-zero
    without a result.
    """
    import shutil
    import tempfile

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def bench(*extra, cwd=ROOT, script=Path(__file__)):
        proc = subprocess.run(
            [sys.executable, str(script), "--seed", "7", "--seconds", "1",
             "--smoke", *extra], cwd=cwd, stdout=subprocess.PIPE, text=True,
            timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and proc.returncode == 0 \
            else None
        return proc.returncode, result

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            _, result = bench("--workload", workload, "--trace", str(trace))
            if result is None:
                problems.append(f"{label}: no result")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed of "
                                f"{result['attempted']}")
            names = {m["name"] for m in spec[section]}
            if set(result["metrics"]) != names:
                problems.append(f"{label}: metrics differ from "
                                f"BENCHMARK.json: "
                                f"{sorted(names ^ set(result['metrics']))}")
            if trace == 0 and any(m["value"] <= 0
                                  for m in result["metrics"].values()):
                problems.append(f"{label}: a metric is not positive")
            unattributed = result["metrics"].get("trace.unattributed_pct")
            if trace and (unattributed is None or unattributed["value"] > 5):
                problems.append(f"{label}: unattributed {unattributed}")
        _, result = bench("--workload", workload, "--trace", "0",
                          "--corrupt")
        if result is None or result["correct"] or not result["failed"]:
            problems.append(f"{workload} --corrupt: not reported failed")

    with tempfile.TemporaryDirectory(dir=WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        code, result = bench("--workload", "adi_order", "--trace", "0",
                             cwd=bare,
                             script=Path(bare) / HERE.name / "run.py")
        if code == 0 or result is not None:
            problems.append("a directory without the program did not fail")

    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small circuit per workload")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before the checks, which "
                             "must then count a failed operation")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
