"""levelflow benchmark: fresh-process CLI runs, their set-up time, and a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a levelflow checkout; the program is taken from
``src/`` there.  With ``--trace 0`` the benchmark measures the set-up time,
then repeats the workload's CLI invocation in a fresh process until S
seconds have passed, then makes one traced invocation for the output
checks; it reports the end-to-end metrics.  With ``--trace 1`` it repeats
rounds of one plain and one traced invocation and reports the per-layer
metrics of the traced ones, and the tracing overhead.  Every invocation at
one seed must write the same bytes.  The last line of standard output is
the JSON result; a record with the environment and every sample goes to
``perfbench/results/``, the spans of traced runs to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import harness
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    digests: dict
    spans: dict | None = None


def child_env() -> dict:
    """The caller's environment with the checkout's src/ first on PYTHONPATH; nothing else is set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, cwd: Path, env: dict, stdout_path: Path):
    """Run cmd to its end through launch.py; (wall s, CPU s, peak RSS MB, exit code) of that process."""
    done = subprocess.run([sys.executable, str(BENCH / "launch.py"), str(stdout_path), "--", *cmd],
                          cwd=cwd, env=env, capture_output=True, text=True, check=True)
    usage = json.loads(done.stdout)
    return usage["wall"], usage["cpu"], usage["rss_mb"], usage["code"]


def invoke(cmd, work: Path, env: dict) -> Invocation:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    log = work / "stdout.txt"
    wall, cpu, rss, code = spawn(cmd, work, env, log)
    return Invocation(wall, cpu, rss, code, log.read_text(encoding="utf-8"), checks.digests(out))


def measure_setup(work: Path, env: dict) -> list:
    """Fresh interpreter until levelflow.cli is imported and its parser built; one warm-up first."""
    cmd = [sys.executable, "-c", "import levelflow.cli as cli; cli.build_parser()"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        wall, _, _, code = spawn(cmd, work, env, work / "setup.txt")
        if code != 0:
            raise SystemExit(f"error: levelflow does not import: {(work / 'setup.txt.err').read_text()}")
        times.append(wall)
    return times[1:]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    work = BENCH / "work" / f"{workload.name}-{os.getpid()}"
    traces = BENCH / "traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(exist_ok=True)
    cli_cmd = [sys.executable, "-m", "levelflow", *workload.args(seed)]
    plain, traced = [], []

    def run_traced():
        spans = traces / f"{workload.name}-seed{seed}-{len(traced)}.json"
        cmd = [sys.executable, str(BENCH / "harness.py"), str(spans), str(work / "arrays.npz"),
               "--", *workload.args(seed)]
        traced.append(invoke(cmd, work, env))
        if traced[-1].code == 0:
            traced[-1].spans = json.loads(spans.read_text(encoding="utf-8"))

    try:
        inputs = workload.prepare(work, seed)
        setup = measure_setup(work, env)
        start = time.perf_counter()
        while True:
            plain.append(invoke(cli_cmd, work, env))
            if trace:
                run_traced()
            if time.perf_counter() - start >= seconds:
                break
        if not trace:
            run_traced()
        invocations = plain + traced
        correct, figures, failed = verify(workload, work, invocations)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        layers = [harness.layer_metrics(t.spans) for t in traced if t.code == 0]
        metrics = {
            name: (statistics.median(layer[name] for layer in layers) if layers else 0.0, unit)
            for name, unit in harness.LAYER_UNITS.items()
        }
        overhead = (statistics.median(t.wall for t in traced) - statistics.median(p.wall for p in plain))
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        ok = [p for p in plain if p.code == 0] or plain
        values = {
            "setup_s": setup,
            "run_s": [p.wall for p in ok],
            "cpu_s": [p.cpu for p in ok],
            "peak_rss_mb": [p.rss_mb for p in ok],
        }
        metrics = {name: (statistics.median(values[name]), unit) for name, unit in END_TO_END_UNITS.items()}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
        "checks": figures,
        "inputs": inputs,
        "samples": {
            "setup_s": setup,
            "plain": [[p.wall, p.cpu, p.rss_mb, p.code] for p in plain],
            "traced": [[t.wall, t.cpu, t.rss_mb, t.code] for t in traced],
        },
    }


def verify(workload, work: Path, invocations):
    """(correct, figures, failed): output checks of the last invocation and byte identity of all.

    An invocation fails when it exits non-zero or its outputs fail a check;
    correct is False when any output check failed.
    """
    clean = [i for i in invocations if i.code == 0]
    exit_failures = len(invocations) - len(clean)
    if not clean or invocations[-1].code != 0:
        return False, {"error": "the last invocation exited non-zero; outputs not checked"}, len(invocations)
    try:
        arrays = dict(np.load(work / "arrays.npz")) if (work / "arrays.npz").exists() else {}
        figures = workload.check(work, invocations[-1].stdout, arrays)
        for inv in clean:
            figures["files_identical"] = checks.check_identical(clean[0].digests, inv.digests)
    except (checks.CheckError, OSError, KeyError, ValueError, IndexError) as exc:
        return False, {"error": str(exc)}, len(invocations)
    return True, figures, exit_failures


def report(result: dict, env: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"invocations attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for name, value in result["checks"].items():
        print(f"  check {name} = {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levelflow" / "cli.py").is_file():
        print(f"error: no levelflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    (BENCH / "results").mkdir(exist_ok=True)
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["environment"] = env
        record = BENCH / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        report(result, env)
        results.append(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
