"""Traced in-process run of one levelflow CLI invocation.

    python3 harness.py SPANS_JSON ARRAYS_NPZ -- CLI_ARGS...

Wraps the public functions of each levelflow module at the names their
callers look up, calls ``levelflow.cli.main(CLI_ARGS)`` and exits with its
code.  Spans (name, start, end, parent index) and counts are kept in
memory and written to SPANS_JSON when the run ends; the K and k columns
of every arm go to ARRAYS_NPZ for the output checks.  Nothing under
``src/`` is changed.

:func:`layer_metrics` turns one spans file into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np


class Tracer:
    """In-memory spans and counts of one run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = {"levels_diagonalized": 0, "levels_kept": 0, "bytes_written": 0, "bytes_read": 0}
        self.arms = []

    def wrap(self, module, attr: str, name: str, after=None):
        """Replace module.attr by a spanned call; after(result, args) runs once the span is closed."""
        inner = getattr(module, attr)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
            if after is not None:
                after(result, args)
            return result

        setattr(module, attr, spanned)

    def install(self):
        from levelflow import cli, pipeline, statistics

        counts = self.counts

        def frame_done(frame, args):
            counts["levels_diagonalized"] += frame.dim

        def unfold_done(result, args):
            counts["levels_kept"] += len(result[0])

        def arm_done(result, args):
            batch, info = result
            self.arms.append((args[0].epsilon, batch.rescaled, batch.normalized, info))

        def written(result, args):
            counts["bytes_written"] += os.path.getsize(args[0])

        def read_input(result, args):
            if getattr(args[0], "input", None):
                counts["bytes_read"] += os.path.getsize(args[0].input)

        self.wrap(pipeline, "sample_coupled", "ensemble.sample")
        self.wrap(pipeline, "spectral_frame", "dynamics.frame", frame_done)
        self.wrap(pipeline, "spectral_frame_blocks", "dynamics.frame", frame_done)
        self.wrap(np.linalg, "eigh", "dynamics.eigh")
        self.wrap(pipeline, "select_levels", "unfolding.select")
        self.wrap(pipeline, "unfold_dynamics", "unfolding.unfold", unfold_done)
        self.wrap(pipeline, "rescale_batch", "unfolding.rescale")
        self.wrap(pipeline, "normalize_batch", "unfolding.rescale")
        self.wrap(pipeline, "realization_rows", "pipeline.realization")
        self.wrap(cli, "run_arm", "pipeline.run_arm", arm_done)
        self.wrap(cli, "arm_summary", "statistics.summary")
        self.wrap(cli, "reduced_chi_square", "statistics.summary")
        self.wrap(pipeline, "ks_statistic", "statistics.ks")
        self.wrap(cli, "ks_statistic", "statistics.ks")
        self.wrap(cli, "build_histogram", "statistics.histogram")
        self.wrap(cli, "fit_gamma", "statistics.fit")
        self.wrap(statistics, "model_bin_density", "statistics.model")
        self.wrap(cli, "write_table", "cli.write", written)
        self.wrap(cli, "write_summary", "cli.write", written)
        for command in ("cmd_simulate", "cmd_density", "cmd_sweep", "cmd_fit"):
            self.wrap(cli, command, "cli.command", read_input)
        self.wrap(cli, "main", "cli.main")
        return cli


#: Unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "ensemble.sample_s": "s",
    "ensemble.draws": "count",
    "dynamics.frame_s": "s",
    "dynamics.frames": "count",
    "dynamics.frame_ms.p50": "ms",
    "dynamics.frame_ms.p90": "ms",
    "dynamics.eigh_s": "s",
    "dynamics.frame_over_eigh": "ratio",
    "unfolding.select_s": "s",
    "unfolding.unfold_s": "s",
    "unfolding.rescale_s": "s",
    "unfolding.levels_diagonalized": "count",
    "unfolding.levels_kept": "count",
    "unfolding.kept_ratio": "ratio",
    "unfolding.dropped_degenerate": "count",
    "unfolding.dropped_edge": "count",
    "pipeline.run_arm_s": "s",
    "pipeline.self_s": "s",
    "pipeline.realization_ms.p50": "ms",
    "pipeline.realization_ms.p90": "ms",
    "statistics.summary_s": "s",
    "statistics.histogram_s": "s",
    "statistics.ks_s": "s",
    "statistics.fit_s": "s",
    "statistics.fit_objective_evals": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "cli.bytes_read": "bytes",
}


def _self_times(spans):
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _share(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile_ms(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced run, as {name: value}; absent layers read 0."""
    spans, counts = record["spans"], record["counts"]
    own = _self_times(spans)
    total, self_time, durations = {}, {}, {}
    for (name, start, end, _), mine in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + mine
        durations.setdefault(name, []).append(end - start)

    def inside_fit(index):
        while index >= 0:
            if spans[index][0] == "statistics.fit":
                return True
            index = spans[index][3]
        return False

    t = lambda name: total.get(name, 0.0)  # noqa: E731
    frames = durations.get("dynamics.frame", [])
    realizations = durations.get("pipeline.realization", [])
    write_s = t("cli.write")
    return {
        "ensemble.sample_s": t("ensemble.sample"),
        "ensemble.draws": len(durations.get("ensemble.sample", [])),
        "dynamics.frame_s": t("dynamics.frame"),
        "dynamics.frames": len(frames),
        "dynamics.frame_ms.p50": _percentile_ms(frames, 0.5),
        "dynamics.frame_ms.p90": _percentile_ms(frames, 0.9),
        "dynamics.eigh_s": t("dynamics.eigh"),
        "dynamics.frame_over_eigh": _share(t("dynamics.frame"), t("dynamics.eigh")),
        "unfolding.select_s": t("unfolding.select"),
        "unfolding.unfold_s": t("unfolding.unfold"),
        "unfolding.rescale_s": t("unfolding.rescale"),
        "unfolding.levels_diagonalized": counts["levels_diagonalized"],
        "unfolding.levels_kept": counts["levels_kept"],
        "unfolding.kept_ratio": _share(counts["levels_kept"], counts["levels_diagonalized"]),
        "unfolding.dropped_degenerate": counts["dropped_degenerate"],
        "unfolding.dropped_edge": counts["dropped_edge"],
        "pipeline.run_arm_s": t("pipeline.run_arm"),
        "pipeline.self_s": self_time.get("pipeline.run_arm", 0.0) + self_time.get("pipeline.realization", 0.0),
        "pipeline.realization_ms.p50": _percentile_ms(realizations, 0.5),
        "pipeline.realization_ms.p90": _percentile_ms(realizations, 0.9),
        "statistics.summary_s": t("statistics.summary"),
        "statistics.histogram_s": t("statistics.histogram"),
        "statistics.ks_s": t("statistics.ks"),
        "statistics.fit_s": t("statistics.fit"),
        "statistics.fit_objective_evals": sum(
            1 for i, span in enumerate(spans) if span[0] == "statistics.model" and inside_fit(i)
        ),
        "cli.write_s": write_s,
        "cli.bytes_written": counts["bytes_written"],
        "cli.write_mb_per_s": _share(counts["bytes_written"] / 1e6, write_s),
        "cli.self_s": self_time.get("cli.main", 0.0) + self_time.get("cli.command", 0.0),
        "cli.bytes_read": counts["bytes_read"],
    }


def main(argv) -> int:
    spans_path, arrays_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: harness.py SPANS_JSON ARRAYS_NPZ -- CLI_ARGS...")
    tracer = Tracer()
    cli = tracer.install()
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.counts["dropped_degenerate"] = sum(info["dropped_degenerate"] for *_, info in tracer.arms)
    tracer.counts["dropped_edge"] = sum(info["dropped_edge"] for *_, info in tracer.arms)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "spans": tracer.spans, "counts": tracer.counts}, handle)
    arrays = {"epsilon": np.array([arm[0] for arm in tracer.arms])}
    for i, (_, rescaled, normalized, _) in enumerate(tracer.arms):
        arrays[f"K{i}"] = rescaled
        arrays[f"k{i}"] = normalized
    np.savez(arrays_path, **arrays)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
