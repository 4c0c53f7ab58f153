"""A seeded sweep of the CLI over inputs it accepts and inputs it must refuse.

One numpy Generator draws a fixed list of cases: `simulate`, `sweep` and
`density` runs on small ensembles with edge values for every flag (extreme
bin ranges included), and `fit` on generated files, hostile ones included.
`cli.main` runs each case in-process with RuntimeWarning raised as an error.
Every case must exit 0, 1 or 2; a refusal prints one line on stderr; every
number printed or written is finite; every JSON output parses strictly; and
an accepted case writes the same bytes when it is run again.
"""

import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from levelflow.cli import main

SWEEP_SEED = 1
SWEEP_CASES = 1000

#: (ordinary values, edge values) of each flag; an edge value is drawn one time in HOSTILE
N = (["2", "3", "4", "7", "20"], ["1", "0"])
M = (["1", "2", "3"], ["0", "10", "20"])
ALPHA = (["0.5", "1e-300", "1e300"], ["2e307", "1e-320", "-1", "nan", "inf"])
EPSILON = (["0", "1e-12", "0.3", "1"], ["1.5", "1e6", "-1", "inf", "nan", "1e309"])  # lambda <= 1
COUNTS = (["1", "2", "3"], ["0", "-1"])  # realizations and t-samples
WINDOW = (["0.1", "0.5", "1"], ["1.5", "0", "1e-300", "nan"])
SEEDS = (["0", "1", "4294967296"], ["-1", "1.5"])
#: ordinary counts and ranges; then ranges some 1e307 wide or next to the largest double,
#: subnormal and rounding-scale widths, and specs that do not parse or are empty
BINS = (["41", "1", "3", "5:0:1", "5:-5:5", "200:-3:3", "3:-1e-17:1e-17"],
        ["5:0:1e308", "5:-1e308:0", "2:1e308:1.7e308", "2:-1e307:1.6e308", "5:0:1e-320",
         "0", "4:1:0", "garbage", "5:0:inf"])
HOSTILE = 6
HOSTILE_LINES = ["nan", "inf", "-inf", "1e400", "abc", "", "# comment", "1,2", "1 2", "5e-324",
                 "-0", "1_000", "1e308", "-1e308"]
SCALES = [1.0, 1e-300, 1e300, 1e-310, 1e150]
#: (first position, step) of a binned file: ordinary, subnormal, huge, and steps or edges that
#: pass the largest double
POSITIONS = [(-5.0, 0.25), (-5.0, 0.25), (0.0, 0.25), (1e-320, 1e-310), (0.0, 1e-310),
             (1e300, 1e300), (-1e308, 1e307), (-1.7e308, 1e308), (1.77e308, 2e306)]

#: a nan or inf standing as a word: 'nan', '-inf', 'Infinity', but not 'info'
NON_FINITE = re.compile(r"(?<![A-Za-z_])(nan|inf|infinity)(?![A-Za-z_])", re.IGNORECASE)


def pick(rng, values):
    return values[int(rng.integers(len(values)))]


def draw(rng, flag_values):
    ordinary, edge = flag_values
    return pick(rng, edge if rng.integers(HOSTILE) == 0 else ordinary)


def draw_case(rng, inputs, index):
    """argv of one drawn case, its outputs under the placeholder `{where}` and its `fit` input
    in `inputs`."""
    argv = []
    command = pick(rng, ["simulate", "sweep", "density", "fit"])
    fmt = pick(rng, ["csv", "json"])
    if command == "fit":
        path = inputs / f"in{index}.txt"
        kind = fit_input(rng, path)
        argv += ["fit", "--input", str(path), "--input-kind", kind, "--format", fmt]
        if rng.random() < 0.5:
            argv += ["--bins", draw(rng, BINS)]
        return argv + ["--out", f"{{where}}/c.{fmt}"]
    eps_count = {"simulate": [1, 1, 2, 2, 3, 0], "sweep": [2, 2, 3, 3, 1],
                 "density": [1, 1, 1, 1, 2]}[command]
    eps = list(dict.fromkeys(draw(rng, EPSILON) for _ in range(pick(rng, eps_count))))
    argv += [command, "--n", draw(rng, N), "--realizations", draw(rng, COUNTS),
             "--t-samples", draw(rng, COUNTS), "--format", fmt, "--jobs", "1"]
    if eps:
        argv += ["--epsilon", *eps]
    for flag, values in (("--m", M), ("--alpha", ALPHA), ("--window", WINDOW),
                         ("--seed", SEEDS), ("--bins", BINS)):
        if rng.random() < 0.3:
            argv.append(f"{flag}={draw(rng, values)}")  # '=' keeps '-1' a value, not a flag
    out = {"simulate": f"s.{fmt}", "sweep": "sw", "density": f"d.{fmt}"}[command]
    return argv + ["--out", "{where}/" + out]


def fit_input(rng, path):
    """Write a drawn `fit` input file to `path`; returns its --input-kind."""
    kind = pick(rng, ["samples", "binned"])
    with np.errstate(all="ignore"):  # hostile scales may overflow to inf, which is then written
        if kind == "samples":
            values = rng.standard_cauchy(pick(rng, [10, 50, 2000, 2000, 3])) * pick(rng, SCALES)
            lines = [repr(float(v)) for v in values]
        else:
            rows = pick(rng, [5, 41, 41, 3, 2, 2, 0])
            start, step = pick(rng, POSITIONS)
            density = rng.exponential(1.0, rows) * pick(rng, SCALES)
            if rows and rng.random() < 0.3:
                density[int(rng.integers(rows))] = pick(rng, [0.0, -1.0, -1e-300])
            lines = [f"{start + step * i!r} {float(d)!r}" for i, d in enumerate(density)]
    for _ in range(int(rng.integers(3)) if rng.random() < 0.4 else 0):
        lines.insert(int(rng.integers(len(lines) + 1)), pick(rng, HOSTILE_LINES))
    newline = pick(rng, ["\n", "\r\n"])
    path.write_bytes((newline.join(lines) + newline).encode())
    return kind


def execute(argv):
    """(exit code, stdout, stderr) of cli.main with RuntimeWarning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def finite_json(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(finite_json, value.values()))
    if isinstance(value, list):
        return all(map(finite_json, value))
    return True


def written(root):
    """{relative path: bytes} of every file under root."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def faults_of(files, stdout):
    """What breaks the output rules in an accepted run's files and stdout."""
    faults = [f"non-finite number printed: {line!r}" for line in stdout.splitlines()
              if not line.startswith("wrote ") and NON_FINITE.search(line)]
    for name, data in files.items():
        text = data.decode("utf-8")
        if name.endswith(".json"):
            try:
                ok = finite_json(strict_json(text))
            except ValueError as exc:
                faults.append(f"{name}: does not parse strictly: {exc}")
                continue
            if not ok:
                faults.append(f"{name}: non-finite number")
        else:
            rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
            if not all(math.isfinite(float(v)) for row in rows for v in row.split(",")):
                faults.append(f"{name}: non-finite number")
    return faults


def test_seeded_cli_sweep(tmp_path):
    rng = np.random.default_rng(SWEEP_SEED)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    faults, accepted = [], 0
    for index in range(SWEEP_CASES):
        argv = draw_case(rng, inputs, index)
        case = f"case {index} {' '.join(argv)}"
        runs = []
        for attempt in ("a", "b"):
            where = tmp_path / f"{index}{attempt}"
            where.mkdir()
            try:
                code, stdout, stderr = execute([arg.format(where=where) for arg in argv])
            except Exception as exc:  # a RuntimeWarning among them
                code, stdout, stderr = repr(exc), "", ""
            runs.append((code, stdout.replace(str(where), "{where}"), written(where)))
            if code != 0:
                break  # a refusal is not rerun
        code, stdout, files = runs[0]
        if code not in (0, 1, 2):
            faults.append(f"{case}: exit {code}")
        elif code:
            if stderr.count("\n") != 1 or not stderr.startswith(("error: ", "numerical error: ")):
                faults.append(f"{case}: exit {code} with stderr {stderr!r}")
        else:
            accepted += 1
            faults += [f"{case}: {fault}" for fault in faults_of(files, stdout)]
            if runs[1][1:] != runs[0][1:]:
                faults.append(f"{case}: a rerun wrote other bytes")
    assert not faults, "\n".join(faults)
    assert accepted >= SWEEP_CASES // 10, accepted  # the draw reaches accepted runs too
