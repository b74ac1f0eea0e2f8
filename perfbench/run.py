"""Campaign benchmark for pcaot, end to end and layer by layer.

    python3 perfbench/run.py --workload sample|many_small|big_state \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it reads and writes only there, under
``perfbench/.work/``.  Each trial runs in a fresh Python process
(``worker.py``) with inherited ``OMP_*``/``GOMP_*`` variables stripped, and
is one fresh campaign as ``pcaot run`` does it: capture, candidates,
validation, aggregate, reports.  Trials repeat until ``--seconds``, counted
from the start of the run (environment probe and workload generation
included), would be exceeded, with at least a minimum count (which can take
a run past ``--seconds`` on a slow host), and every metric is the median
over the trials of the run: the repetition sits at the level with the most
variance (whole campaigns), as Kalibera & Jones (ISMM 2013) advise.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Each trial
first times the capture stage alone on an empty directory (setup_s), then a
fresh campaign, each in its own worker so the campaign's peak RSS is its own.  ``--trace 1`` alternates traced and untraced campaigns,
re-runs each traced campaign on its own directory (campaign.resume_s), and
reports the per-layer metrics of the traced campaign with the median
campaign_s (tracing.py).

Every record is checked against the workload's expected (status, category)
table, and every captured reference of a generated section against numpy;
``failed`` counts wrong, missing and unplanned verdicts.  A traced run also
checks its build, driver-run and failure counts against the table.  The process exits
1 after its result line when anything is wrong, and nonzero without a
result line when it cannot benchmark the checkout (no pcaot sources, no
gcc, a failed trial).
Lines starting with "#" record the environment of the run (gcc, cores,
python/numpy, stripped variables, a parallel-capacity probe), then one line
per metric, then the JSON result as the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from pcaot.campaign import load_campaign_config, plan  # noqa: E402
from pcaot.checkpoint import read_checkpoint_file  # noqa: E402
from pcaot.instrument import output_checkpoint_name  # noqa: E402
from tracing import SELF_METRICS, layer_metrics, load_spans  # noqa: E402

WORK = HERE / ".work"
MIN_TRIALS = 3
MIN_TRACED_PAIRS = 2
WORKER_TIMEOUT_S = 120.0
IDENTITY_SLACK = 0.01


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to measuring something wrong)."""


def pinned_env() -> tuple[dict, dict]:
    """The parent environment minus OpenMP settings, and what was removed.

    pcaot merges the parent environment into every driver run, so a stray
    OMP_WAIT_POLICY or GOMP_SPINCOUNT would change timings silently.
    """
    env = dict(os.environ)
    stripped = {k: env.pop(k) for k in sorted(env) if k.startswith(("OMP_", "GOMP_"))}
    return env, stripped


def _probe(env: dict, workdir: Path, threads: int) -> dict:
    binary = workdir / "probe"
    subprocess.run(["gcc", "-O2", "-fopenmp", str(HERE / "probe.c"), "-o", str(binary), "-lm"],
                   check=True, capture_output=True)
    times: dict[int, list] = {1: [], threads: []}
    for _ in range(3):
        for n in times:
            done = subprocess.run([str(binary)], env={**env, "OMP_NUM_THREADS": str(n)},
                                  check=True, capture_output=True, text=True, timeout=30)
            times[n].append(float(done.stdout.split()[0]))
    t1, tn = statistics.median(times[1]), statistics.median(times[threads])
    return {"threads": threads, "t1_s": t1, "tn_s": tn, "speedup": t1 / tn}


def environment(env: dict, stripped: dict, workdir: Path) -> dict:
    gcc = subprocess.run(["gcc", "--version"], check=True, capture_output=True, text=True)
    cores = len(os.sched_getaffinity(0))
    return {
        "gcc": gcc.stdout.splitlines()[0],
        "cpu_count": os.cpu_count(),
        "affinity_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "stripped_env": stripped,
        "probe": _probe(env, workdir, cores),
    }


def run_worker(request: dict, env: dict) -> dict:
    """One trial in a fresh process group, killed with all its children on timeout."""
    command = [sys.executable, str(HERE / "worker.py"), json.dumps(request)]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _key(row: dict) -> tuple:
    return (row["section_id"], row["tool"], row["strategy"], row["attempt"])


def verdict_errors(records: list, expected: list) -> list[str]:
    """Each wrong, missing or unplanned verdict, as one message."""
    want = {_key(r): (r["status"], r["category"]) for r in expected}
    got = {_key(r): (r["status"], r["category"]) for r in records}
    errors = [
        f"{key}: expected {verdict}, got {got.get(key, 'no record')}"
        for key, verdict in want.items()
        if got.get(key) != verdict
    ]
    errors += [f"{key}: unplanned record {got[key]}" for key in got.keys() - want.keys()]
    return errors


def reference_errors(workload: workloads.Workload, campaign_dir: Path) -> list[str]:
    """Captured reference outputs of generated sections against numpy."""
    errors = []
    tol = workload.tolerance
    for sid, outputs in workload.references.items():
        path = campaign_dir / "sections" / sid / "capture" / output_checkpoint_name(sid)
        if not path.is_file():
            errors.append(f"{sid}: no captured reference output")
            continue
        checkpoint = read_checkpoint_file(path)
        for name, want in outputs.items():
            record = checkpoint.record(name)
            got = None if record is None else record.values()
            if got is None or got.shape != want.shape:
                ok = False
            elif want.dtype.kind == "f":
                ok = bool(np.all(np.abs(got - want) <= tol["abs"] + tol["rel"] * np.abs(want)))
            else:
                ok = bool(np.array_equal(got, want))
            if not ok:
                errors.append(f"{sid}: captured {name} differs from the numpy reference")
    return errors


class Run:
    """Trials of one benchmark run, and everything they got wrong."""

    def __init__(self, workload: workloads.Workload, env: dict, work: Path) -> None:
        self.workload = workload
        self.env = env
        self.work = work
        self.trials: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _check(self, records: list) -> None:
        errors = verdict_errors(records, self.workload.expected)
        self.attempted += len(self.workload.expected)
        self.failed += len(errors)
        self.errors += errors

    def trial(self, setup: bool = False, trace: bool = False) -> dict:
        """One fresh campaign; with setup, first the capture stage alone in its own worker."""
        tdir = self.work / f"trial{len(self.trials)}"
        config = str(self.workload.config)
        start = time.perf_counter()
        try:
            setup_s = (run_worker({"config": config, "setup_dir": str(tdir / "setup")},
                                  self.env)["setup_s"] if setup else None)
            result = run_worker({"config": config, "campaign_dir": str(tdir / "campaign"),
                                 "trace": str(tdir / "spans.json") if trace else None}, self.env)
            self._check(result["records"])
            if trace:
                self._check(result["resume_records"])
                result["spans"] = load_spans(tdir / "spans.json")
            self.errors += reference_errors(self.workload, tdir / "campaign")
        finally:
            shutil.rmtree(tdir, ignore_errors=True)
        result.update(setup_s=setup_s, wall_s=time.perf_counter() - start, traced=trace)
        self.trials.append(result)
        return result


def _keep_going(done: int, minimum: int, start: float, walls: list, seconds: float) -> bool:
    """Another trial while below the minimum or while a typical one still fits."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + statistics.median(walls) <= seconds


def measure_end_to_end(run: Run, start: float, seconds: float, versions: int) -> dict:
    while _keep_going(len(run.trials), MIN_TRIALS, start, [t["wall_s"] for t in run.trials],
                      seconds):
        run.trial(setup=True)
    setup_s = statistics.median(t["setup_s"] for t in run.trials)
    return {
        "campaign_s": statistics.median(t["campaign_s"] for t in run.trials),
        "setup_s": setup_s,
        "versions_per_s": statistics.median(
            versions / (t["campaign_s"] - setup_s) for t in run.trials),
        "cpu_s": statistics.median(t["cpu_s"] for t in run.trials),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in run.trials),
    }


def count_errors(metrics: dict, expected: list) -> list[str]:
    """Traced build and run counts that differ from what the expected table implies.

    Every section has one capture build; every version whose response has
    code is built, and every version that builds gets one driver run.
    """
    want = Counter(r["status"] for r in expected)
    sections = len({r["section_id"] for r in expected})
    counts = (
        ("runner.builds", sections + len(expected) - want["ExtractionError"]),
        ("runner.build_failed", want["CompileError"]),
        ("runner.driver_runs",
         len(expected) - want["ExtractionError"] - want["CompileError"]),
        ("runner.run_failed", want["RuntimeError"]),
        ("backends.extract_errors", want["ExtractionError"]),
    )
    return [f"{name} is {metrics[name]} but the expected table implies {count}"
            for name, count in counts if metrics[name] != count]


def measure_layers(run: Run, start: float, seconds: float) -> dict:
    pairs: list[float] = []
    while _keep_going(len(pairs), MIN_TRACED_PAIRS, start, pairs, seconds):
        begin = time.perf_counter()
        run.trial(trace=True)
        run.trial()
        pairs.append(time.perf_counter() - begin)
    traced = sorted((t for t in run.trials if t["traced"]), key=lambda t: t["campaign_s"])
    plain = [t["campaign_s"] for t in run.trials if not t["traced"]]
    chosen = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(chosen["spans"])
    total = sum(metrics[name] for name in SELF_METRICS)
    if abs(total - metrics["campaign_s"]) > IDENTITY_SLACK * metrics["campaign_s"]:
        run.errors.append(f"layer self times sum to {total:.6f} s, "
                          f"traced campaign took {metrics['campaign_s']:.6f} s")
    run.errors += count_errors(metrics, run.workload.expected)
    speedups = [r["speedup"] for r in chosen["records"]
                if r["tool"] == workloads.COPY_TOOL and r["speedup"] is not None]
    metrics.update({
        "campaign.resume_s": statistics.median(t["resume_s"] for t in traced),
        "trace.overhead_s": statistics.median(t["campaign_s"] for t in traced)
        - statistics.median(plain),
        "quality.copyc_speedup_min": min(speedups, default=0.0),
        "quality.copyc_speedup_max": max(speedups, default=0.0),
        "wrong_verdict_share": run.failed / run.attempted,
    })
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env, stripped = pinned_env()
        units = declared_metrics(bool(args.trace))
        print("# environment " + json.dumps(environment(env, stripped, work), sort_keys=True))
        workload = workloads.generate(args.workload, args.seed, work / "workload")
        versions = plan(load_campaign_config(workload.config)).total_versions
        run = Run(workload, env, work)
        if args.trace:
            values = measure_layers(run, start, args.seconds)
        else:
            values = measure_end_to_end(run, start, args.seconds, versions)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in run.errors:
        print(f"run.py: {message}", file=sys.stderr)
    print(f"# {len(run.trials)} trials of {versions} planned versions; "
          f"wrong_verdict_share {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} verdicts)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    correct = not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
