"""Command-line front end: simulate | density | sweep | fit.

Emits CSV or JSON tables for plotting.  Every output file starts with a
header block holding the resolved science configuration, and all numbers
are serialized with 17 significant digits, so a fixed seed reproduces
files bit for bit regardless of the worker count (the --jobs flag is an
execution detail and deliberately kept out of file headers).

Exit codes: 0 success, 1 validation error, 2 numerical error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .ensemble import check_scale, lambda_from_epsilon
from .errors import LevelflowError, ValidationError
from .pipeline import (ArmParams, arm_summary, pooled_eigenvalues, run_arm, single_threaded_blas,
                       usable_cpus)
from .statistics import (
    build_histogram,
    fit_gamma,
    gamma_pdf,
    ks_statistic,
    model_bin_density,
    reduced_chi_square,
    universal_pdf,
)

DEFAULT_SWEEP = (0.0, 0.32, 1.0, 3.2, 10.0)
#: The k range of sweep and fit histograms; a bare --bins COUNT spans it too.
CURVATURE_RANGE = (-5.0, 5.0)
DEFAULT_CURVATURE_BINS = "41:%g:%g" % CURVATURE_RANGE
FORMATS = ("csv", "json")

#: How a run is executed, not what it computes: kept out of file headers.
EXECUTION_FIELDS = ("out", "format", "jobs")


def _flag(default, phrase: str, choices=None):
    """A RunConfig field: its flag's --help phrase (the default is added to it) and choices."""
    return field(default=default, metadata={"help": phrase, "choices": choices})


@dataclass
class RunConfig:
    """Resolved simulation configuration shared by the run commands.

    The one table of run parameters: each field is a flag and a --config
    key, every field but EXECUTION_FIELDS goes into the file headers, and
    the fields ArmParams also has go into each arm, with ArmParams' defaults.
    Construction checks them once and keeps two plain attributes, not fields:
    `arms`, the ArmParams of each epsilon in order, and `bin_spec`, the
    (count, range) of `bins`.  The pipeline checks the realization count.
    """

    n: int = _flag(100, "matrix dimension")
    m: int | None = _flag(None, "first-block dimension (default n//2, resolved at run time)")
    alpha: float = _flag(ArmParams.alpha, "gaussian scale")
    epsilon: tuple[float, ...] = _flag((), "scaled coupling values sqrt(n)*lambda")
    realizations: int = _flag(100, "matrix pairs per epsilon")
    t_samples: int = _flag(ArmParams.t_samples, "path positions per pair")
    seed: int = _flag(ArmParams.seed, "base RNG seed")
    window: float = _flag(ArmParams.window, "central level fraction kept")
    bins: str = _flag(DEFAULT_CURVATURE_BINS, "bin spec COUNT or COUNT:LO:HI")
    out: str = _flag("", "output path, a directory for sweep (default named after the command)")
    format: str = _flag(FORMATS[0], "output format", choices=FORMATS)
    jobs: int = _flag(0, "worker processes, each on one BLAS thread, at most one per usable CPU; "
                          "0 means every CPU the process may run on, counted at run time")

    def __post_init__(self):
        if self.m is None:
            self.m = self.n // 2
        if self.jobs < 0:
            raise ValidationError(f"jobs must be >= 0, got {self.jobs}")
        if self.jobs == 0:
            self.jobs = usable_cpus()
        if len(set(map(arm_label, self.epsilon))) < len(self.epsilon):
            shown = ", ".join(f"{eps:g}" for eps in self.epsilon)
            raise ValidationError(f"epsilon values name output files, so they must differ "
                                  f"to 6 significant digits; got {shown}")
        check_scale(self.n, self.alpha)  # before lambda_from_epsilon divides by sqrt(n)
        shared = {k: getattr(self, k) for k in _ARM_FIELDS}
        self.arms = tuple(ArmParams(lam=lambda_from_epsilon(self.n, eps), **shared)
                          for eps in self.epsilon)
        self.bin_spec = check_bin_spec(self.bins)  # a bare COUNT: each command's own range

    def header_dict(self, index: int | None = None) -> dict:
        """Science configuration for file headers: the fields but EXECUTION_FIELDS, in order."""
        out = {
            ("epsilon_list" if f.name == "epsilon" else f.name): getattr(self, f.name)
            for f in fields(self)
            if f.name not in EXECUTION_FIELDS
        }
        if index is not None:
            out["epsilon"] = self.epsilon[index]
            out["lambda"] = self.arms[index].lam
        return out


#: The RunConfig fields that each arm copies into its ArmParams.
_ARM_FIELDS = [f.name for f in fields(RunConfig) if f.name in {a.name for a in fields(ArmParams)}]


# ---------------------------------------------------------------------------
# serialization helpers


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_json(value) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        items = ", ".join(f"{dumps_json(str(k))}: {dumps_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _header_lines(command: str, config: dict) -> list:
    lines = [f"# levelflow {command}"]
    for key, val in config.items():
        if isinstance(val, float):
            val = format_float(val)
        elif isinstance(val, (list, tuple)):
            val = ",".join(format_float(v) if isinstance(v, float) else str(v) for v in val)
        lines.append(f"# {key} = {val}")
    return lines


#: Rows formatted per write; the writer's memory is one chunk, not the table.
#: A chunk's floats, tuple and text take ~0.6 kB a row, so 256 rows stay below
#: the statistics' block buffers.
WRITE_CHUNK_ROWS = 256


def write_table(path, fmt: str, command: str, config: dict, columns, data, summary=None):
    """Write one output table from its equal-length columns `data`.

    CSV gets a commented header block, JSON mirrors it.  Rows are stacked
    and formatted WRITE_CHUNK_ROWS at a time with one %.17g format string
    (the text of :func:`format_float`) and written to the open file.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "csv":
            handle.write("\n".join(_header_lines(command, config) + [",".join(columns)]) + "\n")
            row, sep = ",".join(["%.17g"] * len(data)) + "\n", ""
        else:
            head = dumps_json({"command": command, "config": config, "columns": list(columns)})
            handle.write(head[:-1] + ', "rows": [')  # the object stays open for the rows
            row, sep = "[" + ", ".join(["%.17g"] * len(data)) + "]", ", "
        for lo in range(0, len(data[0]), WRITE_CHUNK_ROWS):
            chunk = np.column_stack([column[lo : lo + WRITE_CHUNK_ROWS] for column in data])
            if lo:
                handle.write(sep)  # between chunks, as between the rows of one
            handle.write(sep.join([row] * len(chunk)) % tuple(chunk.ravel().tolist()))
        if fmt != "csv":
            tail = "" if summary is None else f', "summary": {dumps_json(summary)}'
            handle.write("]" + tail + "}\n")


def write_summary(path, summary: dict):
    Path(path).write_text(dumps_json(summary) + "\n", encoding="utf-8")


def check_bin_spec(spec: str):
    """(count, range) of a bin spec 'COUNT' or 'COUNT:LO:HI', range None for a bare COUNT;
    the syntax, the count and a given range are checked here only."""
    parts = spec.split(":")
    # int and float would strip the whitespace, which then reaches the headers
    if len(parts) not in (1, 3) or any(part != part.strip() for part in parts):
        raise ValidationError(f"cannot parse bin spec {spec!r}; use COUNT or COUNT:LO:HI")
    try:
        count = int(parts[0])
        bin_range = (float(parts[1]), float(parts[2])) if len(parts) == 3 else None
    except ValueError as exc:
        raise ValidationError(f"cannot parse bin spec {spec!r}; use COUNT or COUNT:LO:HI") from exc
    if count < 1:
        raise ValidationError(f"bin count must be >= 1, got {count}")
    if bin_range is not None:
        lo, hi = bin_range
        if not -np.inf < lo < hi < np.inf:
            raise ValidationError(f"bin range must be finite and increasing, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValidationError(f"bin range [{lo}, {hi}] is too wide: its width overflows")
    return count, bin_range


def bin_edges(bin_spec, default_range):
    """Bin edges of a checked (count, range) bin spec; a bare COUNT spans `default_range`."""
    count, bin_range = bin_spec
    return np.linspace(*(bin_range or default_range), count + 1)


# ---------------------------------------------------------------------------
# commands


def arm_label(eps: float) -> str:
    """The label of an epsilon arm in file names and overlay columns, 'eps' + eps to 6 digits."""
    return f"eps{eps:g}"


def _eps_path(out: str, eps: float, multi: bool) -> Path:
    path = Path(out)
    return path.with_name(f"{path.stem}_{arm_label(eps)}{path.suffix}") if multi else path


SAMPLE_COLUMNS = ("realization", "level", "t", "E", "Edot", "Eddot", "xdot", "xddot", "K", "k")
HIST_COLUMNS = ("bin_lo", "bin_hi", "count", "density", "model_density")


def _print_arm(summary: dict):
    tail = summary["tail_exponent"]
    tail_text = f"{tail:.3f}" if tail is not None else "n/a"
    print(
        f"epsilon={summary['epsilon']:g} lambda={summary['lambda']:g} "
        f"samples={summary['n_samples']} mean|K|={summary['mean_abs_rescaled']:.6f} "
        f"KS={summary['ks_vs_universal']:.4f} tail={tail_text}"
        + (" [per-block]" if summary["per_block"] else "")
    )


def _run_arm(config: RunConfig, i: int):
    """(batch, summary) of arm i; the summary starts with epsilon as given."""
    arm = config.arms[i]
    batch, info = run_arm(arm, config.realizations, config.jobs)
    return batch, {"epsilon": config.epsilon[i], **arm_summary(arm, batch, info)}


def cmd_simulate(config: RunConfig) -> int:
    """Sample curvature batches for each epsilon and write sample tables."""
    if not config.epsilon:
        raise ValidationError("simulate needs at least one --epsilon value")
    multi = len(config.epsilon) > 1
    out = config.out or f"samples.{config.format}"
    for i, eps in enumerate(config.epsilon):
        batch, summary = _run_arm(config, i)
        path = _eps_path(out, eps, multi)
        data = [getattr(batch, field.name) for field in fields(batch)]  # SAMPLE_COLUMNS order
        write_table(path, config.format, "simulate", config.header_dict(i), SAMPLE_COLUMNS, data,
                    summary=summary)
        write_summary(str(path) + ".summary.json", summary)
        del batch  # released before the next arm runs
        _print_arm(summary)
        print(f"wrote {path}")
    return 0


def cmd_density(config: RunConfig) -> int:
    """Pool eigenvalues of one arm and compare them with the semicircle law."""
    if len(config.epsilon) != 1:
        raise ValidationError("density needs exactly one --epsilon value")
    arm = config.arms[0]
    model = arm.model
    edges = bin_edges(config.bin_spec, model.support)
    eigenvalues = pooled_eigenvalues(arm, config.realizations, config.jobs)
    # over all eigenvalues, as rho / n is normalized over the whole support, whatever the bins
    hist = build_histogram(eigenvalues, edges, truncated=False)
    model_density = np.asarray(model.density(hist.centers)) / config.n
    rows = [edges[:-1], edges[1:], hist.counts, hist.density, model_density]
    outside = int(np.count_nonzero(np.abs(eigenvalues) > model.support[1]))
    summary = {
        "epsilon": config.epsilon[0],
        "lambda": arm.lam,
        "radius": model.support[1],
        "eigenvalues": int(len(eigenvalues)),
        "outside_support": outside,
        "outside_fraction": outside / len(eigenvalues),
        "chi_square_per_dof": reduced_chi_square(hist, model_density),
    }
    out = config.out or f"density.{config.format}"
    write_table(
        out, config.format, "density", config.header_dict(0), HIST_COLUMNS, rows, summary=summary
    )
    write_summary(str(out) + ".summary.json", summary)
    print(
        f"epsilon={summary['epsilon']:g} eigenvalues={summary['eigenvalues']} "
        f"outside={summary['outside_fraction']:.5f} chi2/dof={summary['chi_square_per_dof']:.3f}"
    )
    print(f"wrote {out}")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    """Run the epsilon sweep and emit per-arm histograms plus an overlay table.

    Each arm keeps only its summary and histogram; the output directory is
    made and written once every arm has succeeded, so a failed sweep writes
    nothing.
    """
    if len(config.epsilon) < 2:
        raise ValidationError("sweep needs at least two --epsilon values; use simulate for one")
    edges = bin_edges(config.bin_spec, CURVATURE_RANGE)
    summaries, hists = [], []
    for i in range(len(config.epsilon)):
        batch, summary = _run_arm(config, i)
        summaries.append(summary)
        hists.append(build_histogram(batch.normalized, edges))
        del batch  # released before the next arm runs
        _print_arm(summaries[-1])
    out_dir = Path(config.out or "sweep_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    # the universal law conditioned on the bins' range, over which each histogram is normalized
    reference = model_bin_density(edges, 1.0)
    reference /= np.sum(reference * np.diff(edges))
    overlay = [hists[0].centers, reference]  # every arm shares the edges
    overlay_columns = ["bin_center", "universal_density"]
    for i, (eps, summary, hist) in enumerate(zip(config.epsilon, summaries, hists)):
        rows = [edges[:-1], edges[1:], hist.counts, hist.density, reference]
        write_table(out_dir / f"hist_{arm_label(eps)}.{config.format}", config.format, "sweep",
                    config.header_dict(i), HIST_COLUMNS, rows, summary=summary)
        overlay.append(hist.density)
        overlay_columns.append(f"density_{arm_label(eps)}")
    write_table(out_dir / f"overlay.{config.format}", config.format, "sweep", config.header_dict(),
                overlay_columns, overlay)
    write_summary(out_dir / "summary.json", {"arms": summaries})
    print(f"wrote {out_dir}")
    return 0


@contextmanager
def _open_text(path: str):
    """`path` opened as UTF-8 text; a byte that does not decode is a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


#: Characters of text per chunk of lines the fit reader parses at once; small, since the
#: next chunk is read while the last is held (64 Ki raised a 400k-value fit's peak 0.5 MB).
READ_CHUNK_CHARS = 1 << 13


def _read_fit_input(path: str, kind: str) -> np.ndarray:
    """Raw curvature samples or (position, density) pairs from a text file or pipe.

    The path is opened once and read in chunks of lines.  Whole-line `#`
    comments and blank lines are skipped, fields split at whitespace or
    commas, each parsed by ``float`` and collected as float64 in one growing
    buffer, which the returned array shares.  A chunk of samples is first
    parsed whole, one ``float`` a line; a chunk that does not parse so or
    holds a non-finite value, and every binned chunk, is walked line by line,
    which raises a ValidationError naming the first bad line.
    """
    width, expected = (1, "one value per line") if kind == "samples" else (2, "'position density'")
    values, lineno = array.array("d"), 0
    with _open_text(path) as handle:
        while lines := handle.readlines(READ_CHUNK_CHARS):
            try:
                chunk = np.fromiter(map(float, lines), float, len(lines)) if width == 1 else None
            except ValueError:  # a blank, comment or bad line: the chunk is walked
                chunk = None
            if chunk is not None and np.isfinite(chunk).all():
                values.frombytes(chunk.tobytes())
                lineno += len(lines)
                continue
            for lineno, raw in enumerate(lines, start=lineno + 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    numbers = [float(f) for f in line.replace(",", " ").split()]
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {lineno}: cannot parse {line!r}") from exc
                if len(numbers) != width:
                    raise ValidationError(f"{path}: line {lineno}: expected {expected}, "
                                          f"got {len(numbers)} fields")
                if not all(map(math.isfinite, numbers)):
                    raise ValidationError(f"{path}: line {lineno}: non-finite value")
                values.extend(numbers)
    data = np.frombuffer(values, dtype=float)
    return data.reshape(-1, 2) if width == 2 and len(data) else data


def _binned_density(pairs):
    """(edges, density) of a table of (position, density) rows binned elsewhere: positions are
    bin centers, strictly ascending and uniformly spaced, and densities are >= 0."""
    if len(pairs) < 2:
        raise ValidationError("binned input needs at least two (position, density) rows")
    centers, density = pairs[:, 0], pairs[:, 1]
    steps = np.diff(centers)
    if np.any(steps <= 0):
        raise ValidationError("binned input positions must be strictly ascending")
    if np.max(steps) - np.min(steps) > 1e-6 * np.mean(steps):
        raise ValidationError("binned input positions must be uniformly spaced")
    if np.any(density < 0):
        at = int(np.argmax(density < 0))  # the first negative row
        raise ValidationError(f"binned input density {float(density[at])} at position "
                              f"{float(centers[at])} is negative; densities must be >= 0")
    width = float(np.mean(steps))
    edges = np.concatenate([centers - width / 2.0, [centers[-1] + width / 2.0]])
    return edges, density


def cmd_fit(args) -> int:
    """Fit the one-parameter curvature law to an external data file."""
    edges = bin_edges(check_bin_spec(args.bins), CURVATURE_RANGE)  # before the input is read
    # bytes that are not UTF-8 reach args.input as lone surrogates, which UTF-8 cannot write
    if any(c in "\r\n" or "\ud800" <= c <= "\udfff" for c in args.input):
        raise ValidationError(f"input name {args.input!r} cannot stand on a header line: "
                              "it holds a line break or bytes that are not UTF-8")
    kind = args.input_kind
    data = _read_fit_input(args.input, kind)
    if kind == "samples":
        if len(data) < 10:
            raise ValidationError(f"only {len(data)} samples in {args.input}; need at least 10")
        samples = data
        samples.sort()  # in place: the histogram and fit ignore order, and KS reads it sorted
        # Non-truncated normalization keeps the binned density an unbiased
        # estimate of the underlying density on the range, which the
        # least-squares fit needs to recover gamma without tail bias.
        hist = build_histogram(samples, edges, truncated=False)
        density = hist.density
    else:
        samples = None
        edges, density = _binned_density(data)
    fit = fit_gamma(edges, density)
    print(f"gamma = {fit.gamma:.6g} +/- {fit.gamma_uncertainty:.2g}")
    print(f"objective = {fit.objective:.6g} (mean squared density residual, {fit.bins_used} bins)")
    if samples is not None:
        chi2 = reduced_chi_square(hist, model_bin_density(edges, fit.gamma))
        print(f"reduced chi-square = {chi2:.4g}")
        print(f"KS vs fitted model = {ks_statistic(samples, fit.gamma):.4g}")
        print(f"KS vs universal    = {ks_statistic(samples, 1.0):.4g}")
    if args.out:
        grid = np.linspace(edges[0], edges[-1], 201)
        rows = [grid, gamma_pdf(grid, fit.gamma), universal_pdf(grid)]
        config = {"input": args.input, "input_kind": kind, "gamma": fit.gamma,
                  "gamma_uncertainty": fit.gamma_uncertainty, "objective": fit.objective}
        columns = ("K", "fitted_density", "universal_density")
        write_table(args.out, args.format, "fit", config, columns, rows)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep our exit-code contract
        raise ValidationError(message)


#: Defaults of one command that differ from the RunConfig field defaults.
_COMMAND_DEFAULTS = {"sweep": {"epsilon": DEFAULT_SWEEP}, "density": {"bins": "41"}}


def _field_cast(hint):
    """(cast, nargs) of a field annotated `hint`: tuple[X, ...] takes X+, `X | None` one X."""
    if get_origin(hint) is tuple:
        return get_args(hint)[0], "+"
    return (get_args(hint) or (hint,))[0], None


#: (cast, nargs) of each RunConfig field's flag, which its --config key stands for.
_FIELD_CASTS = {name: _field_cast(hint) for name, hint in get_type_hints(RunConfig).items()}


def _add_run_flags(parser, command: str):
    parser.add_argument("--config", help="key = value file; command-line flags override it")
    for f in fields(RunConfig):
        cast, nargs = _FIELD_CASTS[f.name]
        default = _COMMAND_DEFAULTS.get(command, {}).get(f.name, f.default)
        shown = " ".join(f"{v:g}" for v in default) if isinstance(default, tuple) else default
        shown = "" if shown in (None, "") else f" (default {shown})"
        choices = f.metadata["choices"]
        parser.add_argument("--" + f.name.replace("_", "-"), type=cast, nargs=nargs, default=default,
                            choices=choices, metavar=None if choices else cast.__name__.upper(),
                            help=f.metadata["help"] + shown)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levelflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "curvature samples and summary per epsilon"),
        ("density", "pooled eigenvalue histogram vs the semicircle law"),
        ("sweep", "normalized-curvature histograms across an epsilon list"),
    ):
        _add_run_flags(sub.add_parser(name, help=helptext), name)
    fit = sub.add_parser("fit", help="fit the one-parameter curvature law to a data file")
    fit.add_argument("--input", required=True, help="data file to fit")
    fit.add_argument(
        "--input-kind",
        choices=("samples", "binned"),
        default="samples",
        help="samples: one value per line; binned: 'position density' rows",
    )
    fit.add_argument("--bins", default=DEFAULT_CURVATURE_BINS, help="bin spec for samples input")
    fit.add_argument("--out", help="optional fitted-curve table")
    fit.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    return parser


def _config_file_flags(path: str) -> list:
    """The flags a --config file stands for: each `key = value` line becomes
    `--key=value`, or `--key v1 v2 ..` for a list key, its value split at
    commas and whitespace; argparse then casts and checks them as typed flags."""
    flags = []
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_CASTS:
                raise ValidationError(f"{path}: line {lineno}: unknown key {key!r}")
            flag = "--" + key.replace("_", "-")
            if _FIELD_CASTS[key][1]:
                flags += [flag, *value.replace(",", " ").split()]
            else:
                flags.append(f"{flag}={value.strip()}")
    return flags


def main(argv=None) -> int:
    single_threaded_blas()  # here, not at import, and for in-process callers of main too
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command == "fit":
            return cmd_fit(args)
        if args.config:  # the file's flags first, so the command line's win
            args = parser.parse_args([args.command] + _config_file_flags(args.config) + argv[1:])
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)}
                           | {"epsilon": tuple(args.epsilon)})
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "density":
            return cmd_density(config)
        return cmd_sweep(config)
    except (ValidationError, MemoryError) as exc:  # numpy names the allocation it refused
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LevelflowError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # `levelflow.__main__.run` is the one entry point; it pins BLAS first
    sys.exit("error: levelflow.cli is not a command; run `levelflow` or `python -m levelflow`")
