import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from levelflow import fit_gamma, gamma_cdf, model_bin_density, sample_gamma_dist, child_rng
from levelflow import lambda_from_epsilon
from levelflow import cli
from levelflow.cli import main, bin_edges, check_bin_spec, dumps_json, format_float, write_table
from levelflow.errors import ValidationError


def read_table(path):
    """Parse a CSV artifact back into (header dict, columns, row array)."""
    header = {}
    columns = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return header, columns, np.asarray(rows)


def run(args):
    return main([str(a) for a in args])


def test_simulate_row_count_contract(tmp_path):
    out = tmp_path / "s.csv"
    code = run(
        ["simulate", "--n", 40, "--m", 20, "--epsilon", 2.0, "--realizations", 1,
         "--t-samples", 1, "--seed", 7, "--window", 0.5, "--out", out, "--jobs", 1]
    )
    assert code == 0
    header, columns, rows = read_table(out)
    assert columns == ["realization", "level", "t", "E", "Edot", "Eddot", "xdot", "xddot", "K", "k"]
    assert rows.shape == (20, 10)  # window_fraction * n rows
    assert header["n"] == "40" and header["seed"] == "7"
    # k column is K / mean|K| of the batch
    np.testing.assert_allclose(
        rows[:, 9], rows[:, 8] / np.mean(np.abs(rows[:, 8])), rtol=1e-12
    )
    summary = json.loads((tmp_path / "s.csv.summary.json").read_text())
    assert summary["n_samples"] == 20


def test_simulate_deterministic_across_runs_and_jobs(tmp_path):
    base = ["simulate", "--n", 36, "--m", 18, "--epsilon", 1.5, "--realizations", 4,
            "--t-samples", 2, "--seed", 11]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert run(base + ["--out", paths[0], "--jobs", 1]) == 0
    assert run(base + ["--out", paths[1], "--jobs", 1]) == 0
    assert run(base + ["--out", paths[2], "--jobs", 2]) == 0
    first = paths[0].read_bytes()
    assert first == paths[1].read_bytes()
    assert first == paths[2].read_bytes()


def test_simulate_multiple_epsilons_writes_per_arm_files(tmp_path):
    out = tmp_path / "multi.csv"
    code = run(
        ["simulate", "--n", 24, "--m", 12, "--epsilon", 0.5, 2.0, "--realizations", 2,
         "--t-samples", 1, "--seed", 3, "--out", out, "--jobs", 1]
    )
    assert code == 0
    assert (tmp_path / "multi_eps0.5.csv").exists()
    assert (tmp_path / "multi_eps2.csv").exists()


def test_simulate_json_format_mirrors_csv(tmp_path):
    csv_out = tmp_path / "t.csv"
    json_out = tmp_path / "t.json"
    base = ["simulate", "--n", 24, "--m", 12, "--epsilon", 1.0, "--realizations", 2,
            "--t-samples", 1, "--seed", 13, "--jobs", 1]
    assert run(base + ["--out", csv_out, "--format", "csv"]) == 0
    assert run(base + ["--out", json_out, "--format", "json"]) == 0
    _, columns, rows = read_table(csv_out)
    payload = json.loads(json_out.read_text())
    assert payload["columns"] == columns
    np.testing.assert_allclose(np.asarray(payload["rows"]), rows, rtol=1e-15)
    assert payload["config"]["seed"] == 13


def test_config_file_with_cli_override(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text(
        "# comment line\nn = 24\nm = 12\nepsilon = 1.0\nrealizations = 2\n"
        "t-samples = 1\nseed = 19\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(["simulate", "--config", conf, "--out", out_a, "--jobs", 1]) == 0
    # CLI flag overrides the file value
    assert run(["simulate", "--config", conf, "--seed", 20, "--out", out_b, "--jobs", 1]) == 0
    assert read_table(out_a)[0]["seed"] == "19"
    assert read_table(out_b)[0]["seed"] == "20"


def config_of(argv):
    """The RunConfig that main builds from argv, taken where its command would run."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("cmd_simulate", "cmd_density", "cmd_sweep"):
            patch.setattr(cli, name, lambda config: seen.append(config) or 0)
        assert main([str(a) for a in argv]) == 0
    return seen[0]


def test_run_config_defaults_and_file_casts(tmp_path, capsys):
    for command, epsilon, bins in (("simulate", (), cli.DEFAULT_CURVATURE_BINS),
                                   ("sweep", cli.DEFAULT_SWEEP, cli.DEFAULT_CURVATURE_BINS),
                                   ("density", (), "41")):
        assert config_of([command]) == cli.RunConfig(epsilon=epsilon, bins=bins)
    conf = tmp_path / "conf.txt"
    conf.write_text("n = 24\nm = 10\nalpha = 0.25\nepsilon = 0, 1.5\nwindow = 0.4\n"
                    "bins = 11:-3:3\nout = x.json\nformat = json\njobs = 1\n")
    got = config_of(["sweep", "--config", conf, "--m", 8])
    assert got == cli.RunConfig(n=24, m=8, alpha=0.25, epsilon=(0.0, 1.5), window=0.4,
                                bins="11:-3:3", out="x.json", format="json", jobs=1)
    assert [type(getattr(got, name)) for name in ("n", "alpha", "window")] == [int, float, float]
    conf.write_text("alpha = half\n")
    assert run(["simulate", "--config", conf]) == 1
    assert capsys.readouterr().err == "error: argument --alpha: invalid float value: 'half'\n"


def test_command_line_list_replaces_the_file_list(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("epsilon = 0, 1.5\nseed = 4\n")
    assert config_of(["simulate", "--config", conf]).epsilon == (0.0, 1.5)
    got = config_of(["simulate", "--config", conf, "--epsilon", 1.5])
    assert (got.epsilon, got.seed) == ((1.5,), 4)
    # the file's scalars pass through as --key=value, so a leading '-' is a value
    conf.write_text("out = -x.csv\n")
    assert config_of(["simulate", "--config", conf]).out == "-x.csv"


@pytest.mark.parametrize("line, override, message", [
    ("alpha = half", ["--alpha", 0.25], "argument --alpha: invalid float value: 'half'"),
    ("format = xml", ["--format", "csv"], "argument --format: invalid choice: 'xml'"),
])
@pytest.mark.parametrize("overridden", [False, True])
def test_bad_config_value_is_refused_even_when_a_flag_overrides_it(tmp_path, capsys, line,
                                                                   override, message, overridden):
    conf = tmp_path / "conf.txt"
    conf.write_text(f"n = 20\nepsilon = 1\nrealizations = 2\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    args = ["simulate", "--config", conf, "--out", out / "s.csv", "--jobs", 1]
    assert run(args + (override if overridden else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("how", ["flag", "config", "jobs2"])
def test_negative_seed_is_refused_before_anything_is_written(tmp_path, capsys, how):
    out = tmp_path / "out"
    out.mkdir()
    args = ["simulate", "--n", 20, "--epsilon", 1, "--realizations", 2, "--out", out / "s.csv"]
    if how == "config":
        conf = tmp_path / "conf.txt"
        conf.write_text("seed = -2\n")
        args += ["--config", conf, "--jobs", 1]
    else:
        args += ["--seed", -1, "--jobs", 2 if how == "jobs2" else 1]
    assert run(args) == 1
    seed = -2 if how == "config" else -1
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "density"])
@pytest.mark.parametrize("alpha", [5e307, 1e308, 1e-309])
def test_alpha_whose_derived_scales_overflow_is_refused(tmp_path, capsys, command, alpha):
    # 5e307: sqrt(8 alpha) overflows; 1e308: 8 alpha too, and R is 0; 1e-309: R^2 overflows
    code = run([command, "--n", 20, "--epsilon", 1, "--realizations", 2, "--alpha", alpha,
                "--out", tmp_path / "x.csv", "--jobs", 1])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha={alpha:g} is out of range at n=20") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("realizations", [2, 50])
@pytest.mark.parametrize("alpha", [2e307, 1e307, 7e306])
def test_alpha_whose_density_slope_overflows_is_refused(tmp_path, capsys, realizations, alpha):
    # the slope at the interior's edge, ~28.4 alpha / (1 + lambda^2), passes the largest double
    # above ~6.3e306; these runs used to warn in the slope and exit 1 on "NaN samples"
    code = run(["simulate", "--n", 7, "--m", 1, "--epsilon", 0.3, "--alpha", alpha,
                "--realizations", realizations, "--t-samples", 2, "--window", 1, "--jobs", 1,
                "--out", tmp_path / "x.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha={alpha:g} is out of range at n=7") and err.count("\n") == 1
    assert "density slope" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "density"])
@pytest.mark.parametrize("alpha", [1e-307, 6e306])  # 6e306: the slope bound is ~6.6e306 here
def test_alpha_near_the_refused_range_still_runs(tmp_path, command, alpha):
    out = tmp_path / "x.csv"
    code = run([command, "--n", 20, "--epsilon", 1, "--realizations", 2, "--alpha", alpha,
                "--out", out, "--jobs", 1])
    assert code == 0
    _, _, rows = read_table(out)
    assert len(rows) > 0 and np.all(np.isfinite(rows))


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("banana = 7\n")
    assert run(["simulate", "--config", conf, "--epsilon", 1.0]) == 1
    assert capsys.readouterr().err == f"error: {conf}: line 1: unknown key 'banana'\n"
    conf.write_text("# n\n\nn 24\n")
    assert run(["simulate", "--config", conf, "--epsilon", 1.0]) == 1
    assert capsys.readouterr().err == f"error: {conf}: line 3: expected 'key = value'\n"


#: Every RunConfig field as a --config value, each different from its default.
_EVERY_KEY = {"n": "30", "m": "12", "alpha": "0.25", "epsilon": "0 1.5", "realizations": "3",
              "t_samples": "2", "seed": "8", "window": "0.6", "bins": "9:-3:3", "out": "o.json",
              "format": "json", "jobs": "1"}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_config_file_with_every_key_matches_flags(tmp_path, monkeypatch, capsys, command):
    assert list(_EVERY_KEY) == [f.name for f in fields(cli.RunConfig)]
    conf = tmp_path / "every.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in _EVERY_KEY.items()))
    flags = [command] + [token for key, value in _EVERY_KEY.items()
                         for token in ("--" + key.replace("_", "-"), *value.split())]
    from_flags = config_of(flags)
    from_file = config_of([command, "--config", conf])
    assert from_flags == from_file
    assert (from_flags.epsilon, from_flags.t_samples, from_flags.jobs) == ((0.0, 1.5), 2, 1)
    outputs = []
    for name, argv in (("flags", flags), ("file", [command, "--config", str(conf)])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # out = o.json is relative
        assert main(argv) == 0
        files = sorted(path for path in Path(".").rglob("*") if path.is_file())
        outputs.append(({str(path): path.read_bytes() for path in files}, capsys.readouterr().out))
    assert len(outputs[0][0]) == 4  # 2 tables + 2 summaries, or 2 arms + overlay + summary
    assert outputs[0] == outputs[1]


def _header_items(path):
    """(key, text) of each `# key = value` header line of a CSV table, or (key, value)
    of the JSON config, in file order."""
    if path.suffix == ".json":
        return list(json.loads(path.read_text())["config"].items())
    lines = [line[2:] for line in path.read_text().splitlines() if line.startswith("# ")]
    return [tuple(line.split(" = ", 1)) for line in lines[1:]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_header_keys_and_values(tmp_path, fmt):
    common = ["--n", 24, "--m", 10, "--alpha", 0.25, "--realizations", 2, "--t-samples", 2,
              "--seed", 5, "--window", 0.4, "--format", fmt, "--jobs", 1]
    assert run(["simulate", "--epsilon", 0.5, "--out", tmp_path / f"s.{fmt}"] + common) == 0
    assert run(["density", "--epsilon", 0.5, "--bins", 5, "--out", tmp_path / f"d.{fmt}"]
               + common) == 0
    assert run(["sweep", "--epsilon", 0, 0.5, "--bins", "11:-4:4", "--out", tmp_path / "sw"]
               + common) == 0
    lam = lambda_from_epsilon(24, 0.5)
    if fmt == "csv":
        def header(epsilon_list, bins, arm):
            items = [("n", "24"), ("m", "10"), ("alpha", "0.25"), ("epsilon_list", epsilon_list),
                     ("realizations", "2"), ("t_samples", "2"), ("seed", "5"),
                     ("window", "0.40000000000000002"), ("bins", bins)]
            return items + ([("epsilon", "0.5"), ("lambda", format_float(lam))] if arm else [])
        one, two = "0.5", "0,0.5"
    else:
        def header(epsilon_list, bins, arm):
            items = [("n", 24), ("m", 10), ("alpha", 0.25), ("epsilon_list", epsilon_list),
                     ("realizations", 2), ("t_samples", 2), ("seed", 5), ("window", 0.4),
                     ("bins", bins)]
            return items + ([("epsilon", 0.5), ("lambda", lam)] if arm else [])
        one, two = [0.5], [0.0, 0.5]
    assert _header_items(tmp_path / f"s.{fmt}") == header(one, "41:-5:5", True)
    assert _header_items(tmp_path / f"d.{fmt}") == header(one, "5", True)
    assert _header_items(tmp_path / "sw" / f"hist_eps0.5.{fmt}") == header(two, "11:-4:4", True)
    assert _header_items(tmp_path / "sw" / f"overlay.{fmt}") == header(two, "11:-4:4", False)
    if fmt == "csv":
        assert (tmp_path / "s.csv").read_text().startswith("# levelflow simulate\n# n = 24\n")
    else:
        payload = json.loads((tmp_path / "s.json").read_text())
        assert list(payload) == ["command", "config", "columns", "rows", "summary"]


def test_density_artifact(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run(
        ["density", "--n", 40, "--m", 20, "--epsilon", 0.32, "--realizations", 30,
         "--seed", 5, "--bins", "21", "--out", out, "--jobs", 1]
    )
    assert code == 0
    header, columns, rows = read_table(out)
    assert columns == ["bin_lo", "bin_hi", "count", "density", "model_density"]
    assert rows.shape == (21, 5)
    widths = rows[:, 1] - rows[:, 0]
    summary = json.loads((tmp_path / "d.csv.summary.json").read_text())
    # the density is taken over all eigenvalues, and the default bins span the support,
    # so the bins hold every eigenvalue but those outside the support
    assert abs(np.sum(rows[:, 3] * widths) - (1.0 - summary["outside_fraction"])) < 1e-12
    # model column integrates to ~1 over the support
    assert abs(np.sum(rows[:, 4] * widths) - 1.0) < 0.01
    assert summary["eigenvalues"] == 30 * 40
    assert 0 <= summary["outside_fraction"] < 0.1


def test_density_on_a_sub_range_of_the_support(tmp_path):
    # bins over [-8, 0], inside the support [-R, R], R = sqrt(101): the histogram is normalized
    # over all eigenvalues, as rho / n is, and outside_support counts |E| > R, not the unbinned ones
    out = tmp_path / "d.csv"
    code = run(["density", "--n", 100, "--epsilon", 1, "--realizations", 100, "--seed", 2,
                "--bins", "21:-8:0", "--out", out, "--jobs", 1])
    assert code == 0
    _, _, rows = read_table(out)
    summary = json.loads((tmp_path / "d.csv.summary.json").read_text())
    widths = rows[:, 1] - rows[:, 0]
    mass = np.sum(rows[:, 4] * widths)  # the semicircle's share of [-8, 0], about 0.45
    assert abs(np.sum(rows[:, 3] * widths) - mass) < 0.01
    assert summary["outside_fraction"] < 0.02
    assert summary["chi_square_per_dof"] < 3.0


def test_an_arms_output_does_not_depend_on_the_other_couplings_of_its_run(tmp_path):
    # every arm draws realization r from the same stream, so the epsilon = 1 arm of a two-arm run
    # writes the bytes of a run at epsilon 1 alone, but for the list it names in its header
    common = ["--n", 20, "--m", 8, "--realizations", 3, "--seed", 4, "--jobs", 1]
    assert run(["simulate", *common, "--epsilon", 0, 1, "--out", tmp_path / "two.csv"]) == 0
    assert run(["simulate", *common, "--epsilon", 1, "--out", tmp_path / "one.csv"]) == 0
    later, alone = ((tmp_path / name).read_text().splitlines(keepends=True)
                    for name in ("two_eps1.csv", "one.csv"))
    lists = ["# epsilon_list = 0,1\n", "# epsilon_list = 1\n"]
    assert [line for line in later + alone if line.startswith("# epsilon_list")] == lists
    assert [line for line in later if line not in lists] == [line for line in alone if line not in lists]
    assert (tmp_path / "two_eps1.csv.summary.json").read_bytes() == \
        (tmp_path / "one.csv.summary.json").read_bytes()


def test_density_requires_single_epsilon(tmp_path):
    code = run(["density", "--n", 20, "--epsilon", 0.1, 1.0, "--out", tmp_path / "d.csv"])
    assert code == 1


def test_sweep_artifacts(tmp_path):
    out = tmp_path / "sw"
    code = run(
        ["sweep", "--n", 24, "--m", 12, "--epsilon", 0, 2.0, "--realizations", 2,
         "--t-samples", 2, "--seed", 1, "--bins", "11:-4:4", "--out", out, "--jobs", 1]
    )
    assert code == 0
    for name in ("hist_eps0.csv", "hist_eps2.csv", "overlay.csv", "summary.json"):
        assert (out / name).exists()
    _, columns, rows = read_table(out / "hist_eps0.csv")
    assert columns == ["bin_lo", "bin_hi", "count", "density", "model_density"]
    # the universal law conditioned on [-4, 4], as the histograms are normalized over their bins
    edges = np.linspace(-4, 4, 12)
    np.testing.assert_allclose(
        rows[:, 4], model_bin_density(edges, 1.0) / (gamma_cdf(4.0) - gamma_cdf(-4.0)), rtol=1e-12
    )
    _, overlay_cols, overlay = read_table(out / "overlay.csv")
    assert overlay_cols == ["bin_center", "universal_density", "density_eps0", "density_eps2"]
    assert np.array_equal(overlay[:, 1], rows[:, 4])
    arms = json.loads((out / "summary.json").read_text())["arms"]
    assert len(arms) == 2
    assert arms[0]["per_block"] is True
    assert arms[1]["per_block"] is False


@pytest.mark.parametrize("bins", ["41:-5:5", "20:0:5", "7:-1:0.5"])
def test_sweep_reference_integrates_to_one_over_its_bins(tmp_path, bins):
    out = tmp_path / "sw"
    code = run(["sweep", "--n", 20, "--epsilon", 0, 1, "--realizations", 2, "--t-samples", 2,
                "--bins", bins, "--out", out, "--jobs", 1])
    assert code == 0
    for name in ("hist_eps0.csv", "hist_eps1.csv"):
        _, _, rows = read_table(out / name)
        widths = rows[:, 1] - rows[:, 0]
        assert abs(np.sum(rows[:, 4] * widths) - 1.0) < 1e-12
        assert abs(np.sum(rows[:, 3] * widths) - 1.0) < 1e-12  # as the arm's histogram


def test_failed_sweep_writes_nothing(tmp_path, capsys):
    # no normalized curvature reaches [100, 200), so no arm has a histogram density
    out = tmp_path / "sw"
    code = run(["sweep", "--n", 20, "--epsilon", 0, 1, "--realizations", 2,
                "--bins", "10:100:200", "--out", out, "--jobs", 1])
    assert code == 1
    assert capsys.readouterr().err == "error: no samples to normalize the histogram density\n"
    assert not out.exists()


def test_sweep_failing_in_a_later_arm_writes_nothing(tmp_path, monkeypatch):
    real_run_arm = cli.run_arm

    def run_arm(arm, realizations, jobs):
        if arm.lam > 0:  # the later arm, at epsilon 1
            raise ValidationError("second arm refused")
        return real_run_arm(arm, realizations, jobs)

    monkeypatch.setattr(cli, "run_arm", run_arm)
    out = tmp_path / "sw"
    code = run(["sweep", "--n", 20, "--epsilon", 0, 1, "--realizations", 2, "--out", out, "--jobs", 1])
    assert code == 1
    assert not out.exists()


def test_sweep_rejects_single_epsilon(tmp_path, capsys):
    code = run(["sweep", "--n", 20, "--epsilon", 1.0, "--out", tmp_path / "sw"])
    assert code == 1
    assert "simulate" in capsys.readouterr().err


def test_fit_samples_roundtrip(tmp_path, capsys):
    samples = sample_gamma_dist(1.27, 100000, child_rng(314, 0))
    data = tmp_path / "samples.txt"
    data.write_text("\n".join(format(x, ".17g") for x in samples) + "\n")
    curve = tmp_path / "curve.csv"
    code = run(["fit", "--input", data, "--input-kind", "samples", "--out", curve])
    assert code == 0
    text = capsys.readouterr().out
    gamma = float(text.split("gamma = ")[1].split(" ")[0])
    assert abs(gamma - 1.27) < 0.03
    _, columns, rows = read_table(curve)
    assert columns == ["K", "fitted_density", "universal_density"]
    assert rows.shape == (201, 3)


def test_fit_binned_exact_table(tmp_path, capsys):
    edges = np.linspace(-5.0, 5.0, 42)
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = model_bin_density(edges, 1.0)
    data = tmp_path / "binned.txt"
    data.write_text("\n".join(f"{c} {d}" for c, d in zip(centers, density)) + "\n")
    code = run(["fit", "--input", data, "--input-kind", "binned"])
    assert code == 0
    gamma = float(capsys.readouterr().out.split("gamma = ")[1].split(" ")[0])
    assert abs(gamma - 1.0) < 1e-3


def test_fit_gamma_on_a_binned_table_gives_the_bits_of_the_cli(tmp_path):
    # the library fit of the edges and density the CLI builds equals the header's 17-digit gamma;
    # the outer bins are empty, which a density of zero stands for
    edges = np.linspace(-5.0, 5.0, 42)
    density = model_bin_density(edges, 1.0) * (1.0 + 0.05 * np.cos(np.arange(41)))
    density[:3] = density[-3:] = 0.0
    data = tmp_path / "binned.txt"
    np.savetxt(data, np.column_stack([0.5 * (edges[:-1] + edges[1:]), density]))
    out = tmp_path / "curve.json"
    assert run(["fit", "--input", data, "--input-kind", "binned", "--format", "json",
                "--out", out]) == 0
    header = json.loads(out.read_text())["config"]
    fit = fit_gamma(*cli._binned_density(cli._read_fit_input(str(data), "binned")))
    assert fit.gamma == header["gamma"] and abs(fit.gamma - 1.0) < 0.05


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_refuses_a_negative_binned_density(tmp_path, capsys, fmt):
    # a table that fits but for one negated bin, which would pull the fitted gamma to 1.96
    edges = np.linspace(-5.0, 5.0, 42)
    density = model_bin_density(edges, 1.0)
    density[20] = -density[20]
    data = tmp_path / "neg.txt"
    np.savetxt(data, np.column_stack([0.5 * (edges[:-1] + edges[1:]), density]))
    out = tmp_path / f"curve.{fmt}"
    assert run(["fit", "--input", data, "--input-kind", "binned", "--format", fmt, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the refusal is fit_gamma's: one line naming the value and the bin around position 0
    edges = cli._binned_density(cli._read_fit_input(str(data), "binned"))[0]
    assert captured.err == (f"error: density {float(density[20])} of bin 20 [{float(edges[20])}, "
                            f"{float(edges[21])}] must be finite and >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--n", 20, "--epsilon", 0, 1, "--realizations", 2],
    ["density", "--n", 20, "--epsilon", 1, "--realizations", 2],
    ["fit", "--input", "K.txt"],
])
def test_bins_some_1e307_wide_are_refused_before_anything_is_written(tmp_path, capsys, command,
                                                                     monkeypatch):
    # the density's count times 2e307 overflows: it used to come out 0 where a bin held samples
    monkeypatch.chdir(tmp_path)
    np.savetxt("K.txt", sample_gamma_dist(1.0, 100, child_rng(50, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(command + ["--bins", "5:0:1e308", "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: the density of ") and captured.err.count("\n") == 1
    assert "overflows a double" in captured.err
    assert os.listdir(tmp_path) == ["K.txt"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_without_an_uncertainty_is_a_numerical_error(tmp_path, capsys, fmt):
    # one bin 1e12 too high: the objective is flat to rounding, so its curvature is not positive
    edges = np.linspace(-5.0, 5.0, 42)
    density = model_bin_density(edges, 1.0)
    density[20] += 1e12
    data = tmp_path / "binned.txt"
    np.savetxt(data, np.column_stack([0.5 * (edges[:-1] + edges[1:]), density]))
    out = tmp_path / f"curve.{fmt}"
    assert run(["fit", "--input", data, "--input-kind", "binned", "--format", fmt, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: no uncertainty") and captured.err.count("\n") == 1
    assert not out.exists()


def test_fit_malformed_line_names_line_number(tmp_path, capsys):
    lines = [format(0.1 * i, ".6g") for i in range(1, 30)]
    lines[16] = "not-a-number"  # line 17
    data = tmp_path / "bad.txt"
    data.write_text("\n".join(lines) + "\n")
    code = run(["fit", "--input", data, "--input-kind", "samples"])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 17" in err


@pytest.mark.parametrize(
    "kind, bad", [("samples", "nan"), ("samples", "-inf"), ("binned", "0.25 inf")]
)
def test_fit_non_finite_value_names_line_number(tmp_path, capsys, kind, bad):
    lines = ["# header"] + [
        format(0.1 * i, ".6g") + ("" if kind == "samples" else f" {0.01 * i:.6g}")
        for i in range(1, 30)
    ]
    lines[16] = bad  # line 17
    data = tmp_path / "bad.txt"
    data.write_text("\n".join(lines) + "\n")
    code = run(["fit", "--input", data, "--input-kind", kind])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 17" in err and "non-finite" in err


def test_fit_with_a_huge_sample_keeps_its_ks_distance(tmp_path, capsys, recwarn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unguarded z**2 overflows past |z| ~ 1.3e154
        assert gamma_cdf(np.array([-1e200, 1e200, 1e308]), 0.8).tolist() == [0.0, 1.0, 1.0]
    samples = sample_gamma_dist(1.0, 1000, child_rng(77, 0))
    outputs = []
    for huge in (1e200, 1e100):  # past and short of the overflow; the model CDF is 1 at both
        samples[0] = huge
        data = tmp_path / f"k{huge:g}.txt"
        data.write_text("\n".join(format(x, ".17g") for x in samples) + "\n")
        assert run(["fit", "--input", data]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert float(outputs[0].split("KS vs fitted model = ")[1].split()[0]) < 0.1
    assert len(recwarn) == 0


def _write_samples(path, samples, header=""):
    path.write_text(header + "\n".join(map(repr, samples.tolist())) + "\n")


@pytest.mark.parametrize("header", ["", "# K samples\n"])  # every chunk parsed whole, or one walked
def test_fit_gives_the_same_from_shuffled_and_sorted_samples(tmp_path, capsys, header):
    samples = sample_gamma_dist(0.9, 20000, child_rng(48, 0))
    outputs = []
    for name, values in (("shuffled", samples), ("sorted", np.sort(samples))):
        data, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
        _write_samples(data, values, header)
        assert run(["fit", "--input", data, "--out", out]) == 0
        table = [line for line in out.read_text().splitlines() if not line.startswith("# input = ")]
        stdout = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("wrote ")]
        outputs.append((table, stdout))
    assert outputs[0] == outputs[1]


def test_fit_holds_its_samples_once(tmp_path, monkeypatch, capsys):
    """Past the read, fit adds less than 1 MiB to the samples: they are sorted in place."""
    data = tmp_path / "K.txt"
    _write_samples(data, sample_gamma_dist(0.8, 400_000, child_rng(47, 0)))
    assert run(["fit", "--input", data, "--out", tmp_path / "warm.csv"]) == 0  # lazy imports
    read, held = cli._read_fit_input, []

    def read_then_reset_peak(*args):
        samples = read(*args)
        held.append(samples.nbytes)
        tracemalloc.reset_peak()
        return samples

    monkeypatch.setattr(cli, "_read_fit_input", read_then_reset_peak)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run(["fit", "--input", data, "--out", tmp_path / "curve.csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert held == [400_000 * 8]
    assert peak <= held[0] + 2**20


def test_line_reader_collects_float64_values(tmp_path):
    samples = sample_gamma_dist(0.8, 400_000, child_rng(49, 0))
    data = tmp_path / "K.txt"
    _write_samples(data, samples, "# K samples\n")

    assert cli._read_fit_input(str(data), "samples").tobytes() == samples.tobytes()
    tracemalloc.start()
    try:
        cli._read_fit_input(str(data), "samples")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * samples.nbytes + 2**20  # a list of Python floats takes about 5x


def test_fit_missing_file_is_io_error(tmp_path):
    assert run(["fit", "--input", tmp_path / "nope.txt"]) == 3


def test_validation_exit_codes(tmp_path, capsys):
    # unknown flag value and impossible epsilon both exit 1
    assert run(["simulate", "--epsilon", 1.0, "--n", 1, "--out", tmp_path / "x.csv"]) == 1
    assert run(["simulate", "--n", 16, "--epsilon", 9.0, "--out", tmp_path / "x.csv"]) == 1
    assert run(["simulate", "--out", tmp_path / "x.csv"]) == 1  # epsilon required
    assert run(["simulate", "--epsilon", "nan", "--out", tmp_path / "x.csv"]) == 1
    capsys.readouterr()
    assert run(["simulate", "--epsilon", 1.0, "--alpha", "inf", "--out", tmp_path / "x.csv"]) == 1
    assert "alpha must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, epsilon", [("simulate", [1, 1]), ("sweep", [1, 1.0000001]), ("sweep", [0, 2, 2.0])]
)
def test_epsilon_values_sharing_a_file_label_are_refused(tmp_path, capsys, command, epsilon):
    # each arm's files are named after f"{eps:g}"; equal labels would overwrite each other
    code = run([command, "--n", 24, "--epsilon", *epsilon, "--realizations", 1, "--t-samples", 1,
                "--out", tmp_path / ("s.csv" if command == "simulate" else "sw"), "--jobs", 1])
    assert code == 1
    assert "6 significant digits" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_density_without_usable_bins_is_refused(tmp_path, capsys):
    # 8 eigenvalues over 41 bins: no bin expects a whole count, so chi-square has no support
    code = run(["density", "--n", 4, "--epsilon", 1, "--realizations", 2, "--bins", 41,
                "--out", tmp_path / "d.csv", "--jobs", 1])
    assert code == 1
    assert "no bins with usable expected counts" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_density_whose_chi_square_overflows_is_a_numerical_error(tmp_path, capsys):
    # bins over +/-1e300: the central bin expects ~1e299 eigenvalues, whose square overflows
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["density", "--n", 4, "--epsilon", 0.01, "--realizations", 1,
                    "--bins", "5:-1e300:1e300", "--out", out, "--jobs", 1])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: chi-square overflows")
    assert list(tmp_path.iterdir()) == []


def test_fit_whose_squared_densities_overflow_is_a_numerical_error(tmp_path, capsys):
    # samples of scale 1e-300 binned over [0, 1e-300]: densities near 1e300, squares past the
    # largest double, refused before the search
    data, out = tmp_path / "tiny.txt", tmp_path / "c.csv"
    _write_samples(data, 1e-300 * sample_gamma_dist(1.0, 2000, child_rng(9, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["fit", "--input", data, "--bins", "7:0:1e-300", "--out", out])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: densities up to ")
    assert "would overflow" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


#: Refused bin specs and their messages, the same from every run command.
BAD_BIN_SPECS = {
    "garbage": "cannot parse bin spec 'garbage'; use COUNT or COUNT:LO:HI",
    "a:b:c": "cannot parse bin spec 'a:b:c'; use COUNT or COUNT:LO:HI",
    "1:2": "cannot parse bin spec '1:2'; use COUNT or COUNT:LO:HI",
    "41\n": "cannot parse bin spec '41\\n'; use COUNT or COUNT:LO:HI",
    " 41:-5:5": "cannot parse bin spec ' 41:-5:5'; use COUNT or COUNT:LO:HI",
    "41:-5: 5": "cannot parse bin spec '41:-5: 5'; use COUNT or COUNT:LO:HI",
    "0": "bin count must be >= 1, got 0",
    "0:1:2": "bin count must be >= 1, got 0",
    "10:5:-5": "bin range must be finite and increasing, got [5.0, -5.0]",
    "4:-inf:inf": "bin range must be finite and increasing, got [-inf, inf]",
    "5:-1e308:1e308": "bin range [-1e+308, 1e+308] is too wide: its width overflows",
}


@pytest.mark.parametrize("command", ["simulate", "density", "sweep"])
@pytest.mark.parametrize("spec", list(BAD_BIN_SPECS))
def test_bad_bin_spec_is_refused_before_anything_is_written(tmp_path, capsys, command, spec):
    # every run command checks --bins, simulate too, and sweep before it makes its directory
    epsilon = [0, 1] if command == "sweep" else [1]
    out = tmp_path / ("sw" if command == "sweep" else "x.csv")
    code = run([command, "--n", 20, "--epsilon", *epsilon, "--realizations", 2, "--t-samples", 1,
                "--bins", spec, "--out", out, "--jobs", 1])
    assert code == 1
    assert capsys.readouterr().err == f"error: {BAD_BIN_SPECS[spec]}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, epsilon, arms", [
    ("simulate", [0, 1], 2), ("sweep", [0, 1], 2), ("density", [1], 1), ("fit", None, 0),
])
def test_a_run_parses_its_bins_once_and_builds_each_arm_once(tmp_path, monkeypatch, capsys,
                                                             command, epsilon, arms):
    calls = dict.fromkeys(("check_bin_spec", "ArmParams"), 0)
    for name in calls:
        def counted(*args, name=name, original=getattr(cli, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    if command == "fit":
        data = tmp_path / "k.txt"
        _write_samples(data, sample_gamma_dist(1.0, 200, child_rng(3, 0)))
        args = ["fit", "--input", data, "--bins", "11:-3:3"]
    else:
        args = [command, "--n", 20, "--epsilon", *epsilon, "--realizations", 2, "--t-samples", 1,
                "--bins", 11, "--out", tmp_path / "out", "--jobs", 1]
    assert run(args) == 0
    assert calls == {"check_bin_spec": 1, "ArmParams": arms}


@pytest.mark.parametrize("command", ["simulate", "density", "sweep"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_zero_realizations_is_refused_before_anything_is_written(tmp_path, capsys, command, how):
    out = tmp_path / "out"
    out.mkdir()
    epsilon = [0, 1] if command == "sweep" else [1]
    args = [command, "--n", 20, "--epsilon", *epsilon, "--t-samples", 1, "--jobs", 1,
            "--out", out / ("sw" if command == "sweep" else "x.csv")]
    if how == "config":
        conf = tmp_path / "conf.txt"
        conf.write_text("realizations = 0\n")
        args += ["--config", conf]
    else:
        args += ["--realizations", 0]
    assert run(args) == 1
    assert capsys.readouterr() == ("", "error: realization count must be >= 1, got 0\n")
    assert list(out.iterdir()) == []  # sweep made no directory


@pytest.mark.parametrize("spec", ["garbage", "0", "10:5:-5"])
@pytest.mark.parametrize("case", ["binned", "missing input"])
def test_fit_checks_its_bin_spec_before_it_reads_the_input(tmp_path, capsys, spec, case):
    # binned input has no use for --bins, and a missing input would exit 3 (I/O)
    data, kind = tmp_path / "in.txt", "samples"
    if case == "binned":  # a table that fits, as in test_fit_binned_exact_table
        edges = np.linspace(-5.0, 5.0, 42)
        rows = zip(0.5 * (edges[:-1] + edges[1:]), model_bin_density(edges, 1.0))
        data.write_text("".join(f"{c} {d}\n" for c, d in rows))
        kind = "binned"
    out = tmp_path / "c.csv"
    assert run(["fit", "--input", data, "--input-kind", kind, "--bins", spec, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {BAD_BIN_SPECS[spec]}\n"
    assert not out.exists()


def test_cli_module_is_not_a_command(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["simulate", "--n", "20", "--epsilon", "1", "--realizations", "2", "--out", "x.csv"]
    done = subprocess.run([sys.executable, "-m", "levelflow.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    assert "`levelflow`" in done.stderr and "`python -m levelflow`" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_parse_bin_spec():
    assert check_bin_spec("41:-5:5") == (41, (-5.0, 5.0))
    assert check_bin_spec("10") == (10, None)
    edges = bin_edges((41, (-5.0, 5.0)), (0.0, 1.0))  # a given range wins over the command's
    assert len(edges) == 42 and edges[0] == -5.0 and edges[-1] == 5.0
    edges = bin_edges((10, None), (0.0, 1.0))
    assert len(edges) == 11 and edges[0] == 0.0 and edges[-1] == 1.0
    with pytest.raises(ValidationError):
        check_bin_spec("a:b:c")
    with pytest.raises(ValidationError):
        check_bin_spec("10:5:-5")
    with pytest.raises(ValidationError):
        check_bin_spec("0:0:1")
    with pytest.raises(ValidationError):
        check_bin_spec("4:-inf:inf")
    with pytest.raises(ValidationError, match="width overflows"):
        check_bin_spec("5:-1e308:1e308")
    edges = bin_edges(check_bin_spec("2:-8e307:8e307"), (0.0, 1.0))  # the widest ranges still pass
    assert edges[0] == -8e307 and edges[-1] == 8e307


def test_dumps_json_formats():
    text = dumps_json({"a": 0.1, "b": [1, 2.5], "c": None, "d": True, "e": "x"})
    parsed = json.loads(text)
    assert parsed == {"a": 0.1, "b": [1, 2.5], "c": None, "d": True, "e": "x"}
    assert "0.10000000000000001" in text  # 17 significant digits


def _per_value_table(fmt, command, config, names, columns, summary):
    """The table text as formatted one value at a time with format_float."""
    rows = np.column_stack(columns)
    if fmt == "csv":
        lines = cli._header_lines(command, config) + [",".join(names)]
        lines += [",".join(format_float(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"command": command, "config": config, "columns": list(names),
               "rows": [list(map(float, row)) for row in rows]}
    if summary is not None:
        payload["summary"] = summary
    return dumps_json(payload) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 8, 11])
def test_chunked_writer_matches_per_value_format(tmp_path, monkeypatch, fmt, n_rows):
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", 4)
    awkward = np.array([-0.0, 1e16, 5e-324, 3.0, np.nan, 0.1, -2.5e-300, 123456789.0,
                        np.inf, 1.0 / 3.0, -1e-5])[:n_rows]
    columns = [awkward, np.arange(n_rows), awkward[::-1] * 7.0]
    names = ("a", "count", "b")
    config = {"n": 4, "alpha": 0.5, "epsilon_list": [0.0, 0.32]}
    for summary in (None, {"x": 0.1, "ok": True}):
        path = tmp_path / f"t.{fmt}"
        write_table(path, fmt, "simulate", config, names, columns, summary=summary)
        expected = _per_value_table(fmt, "simulate", config, names, columns, summary)
        assert path.read_text() == expected


def _fit_input_corpus():
    """(name, bytes) files covering what a chunk of samples parses whole and what it must walk."""
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, size=200, dtype=np.uint64)
    values = np.concatenate([bits.view(np.float64), subnormal.view(np.float64),
                             -subnormal[:50].view(np.float64)])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
    values = np.concatenate([special, values[np.isfinite(values)]]).tolist()
    plain = [repr(x) for x in values[:12]]
    files = {
        "repr": "\n".join(map(repr, values)) + "\n",
        "g17": "\n".join(format(x, ".17g") for x in values) + "\n",
        "e40": "\n".join(format(x, ".40e") for x in values) + "\n",
        "pairs": "".join(f"{a!r} {b:.17g}\n" for a, b in zip(values[::2], values[1::2])),
        "crlf": "\r\n".join(plain) + "\r\n",
        "bare_cr": "\r".join(plain) + "\r",
        "no_final_newline": "\n".join(plain),
        "tabs": "".join(f"\t{a}\t{b}\t\n" for a, b in zip(plain[::2], plain[1::2])),
        "vt_ff_nbsp": "".join(f"\x0b{a}\x0c{b}\xa0\n" for a, b in zip(plain[::2], plain[1::2])),
        "vt_ff_nbsp_single": "".join(f"\x0b {a}\x0c\xa0\n" for a in plain),
        "blank_lines": "\n\n" + "\n \t\n\x0c\n".join(plain) + "\n\n  \n",
        "leading_header": "# levelflow samples\n\n  # gamma = 0.8\n" + "\n".join(plain) + "\n",
        "interior_comment": "\n".join(plain[:5] + ["# middle"] + plain[5:]) + "\n",
        "inline_comment": "\n".join(plain[:5] + ["1.0 # x"] + plain[5:]) + "\n",
        "comma_pairs": "".join(f"{a},{b}\n{a}, {b}\n" for a, b in zip(plain[::2], plain[1::2])),
        "trailing_comma": "\n".join(x + "," for x in plain) + "\n",
        "underscore": "\n".join(plain[:3] + ["1_000"] + plain[3:]) + "\n",
        "arabic_digits": "\n".join(plain[:3] + ["\u0661\u0662"] + plain[3:]) + "\n",
        "bom": "\ufeff" + "\n".join(plain) + "\n",
        "nul": "\n".join(plain[:3] + ["1\x00"] + plain[3:]) + "\n",
        "overflow": "\n".join(plain[:7] + ["1e400"] + plain[7:]) + "\n",
        "nan": "\n".join(plain[:2] + ["nan"] + plain[2:]) + "\n",
        "minus_inf_pair": "\n".join(plain[:4] + ["0.5 -inf"] + plain[4:]) + "\n",
        "two_fields": "\n".join(plain[:6] + ["1 2"] + plain[6:]) + "\n",
        "one_field_in_pairs": "".join(f"{a} {b}\n" for a, b in zip(plain[::2], plain[1::2])) + "3\n",
        "empty": "",
        "comments_only": "# one\n#two\n   # three\n",
        "blanks_only": "\n \n\t\n",
    }
    corpus = {name: text.encode("utf-8") for name, text in files.items()}
    corpus["not_utf8"] = b"1.5\n2.5\n\xff\n3.5\n"
    return corpus


def _reference_fit_read(path, kind):
    """The fit reader as one loop over the lines of the file, kept as the reference:
    blank and whole-line `#` lines skipped, fields split at whitespace or commas and
    read by ``float``, the first bad line named; a refusal is returned as its message."""
    width, expected = (1, "one value per line") if kind == "samples" else (2, "'position density'")
    values = []
    try:
        with cli._open_text(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    numbers = [float(f) for f in line.replace(",", " ").split()]
                except ValueError:
                    return f"{path}: line {lineno}: cannot parse {line!r}"
                if len(numbers) != width:
                    return f"{path}: line {lineno}: expected {expected}, got {len(numbers)} fields"
                if not all(map(math.isfinite, numbers)):
                    return f"{path}: line {lineno}: non-finite value"
                values.extend(numbers)
    except ValidationError as exc:  # not UTF-8
        return str(exc)
    data = np.array(values, dtype=float)
    return data.reshape(-1, 2) if width == 2 and len(data) else data


def _assert_reads_as_reference(path, kind):
    try:
        got = cli._read_fit_input(str(path), kind)
    except ValidationError as exc:
        got = str(exc)
    want = _reference_fit_read(str(path), kind)
    if isinstance(want, str):
        assert got == want, (path.name, kind)
    else:
        assert isinstance(got, np.ndarray), (path.name, kind, got)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (path.name, kind)


def test_fast_fit_reader_matches_line_reader(tmp_path):
    """Every corpus file reads, or is refused, as the reference loop reads it: same bits,
    same message, for both input kinds."""
    for name, payload in _fit_input_corpus().items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(payload)
        for kind in ("samples", "binned"):
            _assert_reads_as_reference(path, kind)


#: Lines that send a chunk of samples to the line walk, or end the read.
_CHUNK_EDGE_LINES = {"bad": "oops", "non_finite": "-inf", "comment": "# note", "blank": "  ",
                     "pair": "1.5 2.5", "comma_pair": "1.5,2.5"}


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("special", list(_CHUNK_EDGE_LINES))
def test_fit_reader_agrees_at_every_chunk_edge(tmp_path, monkeypatch, ending, special):
    """A special line at every position of a file read in chunks of about four lines, so it
    stands first and last in a chunk; line numbers run on across chunks, and the file ends
    with and without a final line break."""
    monkeypatch.setattr(cli, "READ_CHUNK_CHARS", 64)
    plain = [format(0.001 * i - 0.01, ".17g") for i in range(24)]  # about 20 characters a line
    for at in range(len(plain) + 1):
        lines = plain[:at] + [_CHUNK_EDGE_LINES[special]] + plain[at:]
        for final in (ending, ""):
            path = tmp_path / f"{special}_{at}_{len(final)}.txt"
            path.write_bytes((ending.join(lines) + final).encode())
            for kind in ("samples", "binned"):
                _assert_reads_as_reference(path, kind)


def test_fit_reader_walks_only_the_chunk_with_the_header(tmp_path, monkeypatch):
    """A 400k-value file with a `#` header reads to the bits of the plain file, and only
    the header's chunk is walked line by line: no second pass over the file."""
    samples = sample_gamma_dist(0.8, 400_000, child_rng(50, 0))
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    _write_samples(plain, samples)
    _write_samples(commented, samples, "# K samples\n")
    walked = []

    def counting_isfinite(x):
        walked.append(x)
        return math.isfinite(x)

    monkeypatch.setattr(cli, "math", types.SimpleNamespace(isfinite=counting_isfinite))
    assert cli._read_fit_input(str(plain), "samples").tobytes() == samples.tobytes()
    assert walked == []
    assert cli._read_fit_input(str(commented), "samples").tobytes() == samples.tobytes()
    assert 0 < len(walked) <= cli.READ_CHUNK_CHARS // 10  # lines of 17 digits take 19-25 chars


def test_non_utf8_fit_input_is_refused(tmp_path, capsys):
    data = tmp_path / "latin1.txt"
    data.write_bytes(b"0.5\n1.5\n\xff\n" + b"2.5\n" * 20)
    assert run(["fit", "--input", data]) == 1
    err = capsys.readouterr().err
    assert f"{data}: not UTF-8 text" in err


def test_non_utf8_config_file_is_refused(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_bytes(b"n = 24\n# caf\xe9\nepsilon = 1\n")
    assert run(["simulate", "--config", conf, "--out", tmp_path / "s.csv", "--jobs", 1]) == 1
    err = capsys.readouterr().err
    assert f"{conf}: not UTF-8 text" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("kind, text, message", [
    ("samples", "", "only 0 samples"),
    ("samples", "# header\n\n  # more\n", "only 0 samples"),
    ("binned", "\n \t\n", "binned input needs at least two"),
])
def test_fit_input_without_data_warns_nothing(tmp_path, capsys, recwarn, kind, text, message):
    data = tmp_path / "empty.txt"
    data.write_text(text)
    assert run(["fit", "--input", data, "--input-kind", kind]) == 1
    err = capsys.readouterr().err
    assert message in err and "Warning" not in err
    assert not recwarn.list


@pytest.mark.parametrize("bad, message", [("oops", "cannot parse 'oops'"), ("nan", "non-finite")])
def test_fit_late_bad_value_names_its_line(tmp_path, capsys, bad, message):
    lines = [format(0.001 * i, ".17g") for i in range(1, 4000)]
    lines[2999] = bad  # line 3000, after 2,999 good rows
    data = tmp_path / "late.txt"
    data.write_text("\n".join(lines) + "\n")
    assert run(["fit", "--input", data]) == 1
    err = capsys.readouterr().err
    assert "line 3000" in err and message in err




@pytest.mark.parametrize("kind, text, lineno", [
    ("samples", "# h\n\n1\n  \n# c\n2\ninf\n3\n", 7),
    ("samples", "\n\n\nnan\n", 4),
    ("samples", "1\n2\n3\n\n\n# end\n1e400\n# after\n", 7),
    ("binned", "# h\n1 2\n\n3 nan\n# x\n-inf 1\n", 4),
    ("samples", "nan\nabc\n", 1),  # the first bad line, not the later unparsable one
    ("samples", "# h\n1\ninf\n2,3\n", 3),
])
def test_fit_non_finite_line_counts_skipped_lines(tmp_path, kind, text, lineno):
    path = tmp_path / "in.txt"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"line {lineno}: non-finite value"):
        cli._read_fit_input(str(path), kind)

@pytest.mark.parametrize("name", ["repr", "pairs", "comma_pairs", "interior_comment", "nan",
                                  "minus_inf_pair", "empty", "not_utf8"])
def test_fit_input_is_opened_once(tmp_path, monkeypatch, name):
    """A pipe can be read only once, so no reader may open the path a second time."""
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    path = tmp_path / f"{name}.txt"
    path.write_bytes(_fit_input_corpus()[name])
    for kind in ("samples", "binned"):
        opened.clear()
        try:
            cli._read_fit_input(str(path), kind)
        except ValidationError:
            pass
        assert opened == [str(path)], kind

def _fit_through_fifo(tmp_path, text):
    """`fit --input <named pipe>` in a child process while a thread writes `text` into the pipe."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "w") as handle:
                handle.write(text)
        except BrokenPipeError:
            pass

    threading.Thread(target=feed, daemon=True).start()
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a reader that closed and reopened the pipe would wait for a writer that has gone
    return subprocess.run([sys.executable, "-m", "levelflow", "fit", "--input", str(fifo),
                           "--out", str(tmp_path / "fifo.csv")],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fit_reads_a_named_pipe_once(tmp_path, capsys):
    values = sample_gamma_dist(0.9, 30000, child_rng(8, 0)).tolist()  # ~600 kB, many pipe buffers
    text = "".join(f"{x!r}\n" for x in values)
    proc = _fit_through_fifo(tmp_path, text)
    assert proc.returncode == 0, proc.stderr
    plain = tmp_path / "plain.txt"
    plain.write_text(text)
    assert run(["fit", "--input", plain, "--out", tmp_path / "plain.csv"]) == 0

    def kept(lines, drop):
        return [line for line in lines if not line.startswith(drop)]

    assert kept(proc.stdout.splitlines(), "wrote ") == kept(capsys.readouterr().out.splitlines(), "wrote ")
    assert (kept((tmp_path / "fifo.csv").read_text().splitlines(), "# input = ")
            == kept((tmp_path / "plain.csv").read_text().splitlines(), "# input = "))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("bad, message", [("oops", "cannot parse 'oops'"), ("nan", "non-finite")])
def test_fit_named_pipe_bad_value_names_its_line(tmp_path, bad, message):
    lines = [format(0.001 * i, ".17g") for i in range(1, 4000)]
    lines[2999] = bad
    proc = _fit_through_fifo(tmp_path, "\n".join(lines) + "\n")
    assert proc.returncode == 1
    assert "line 3000" in proc.stderr and message in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_summaries_report_the_epsilon_given(tmp_path, command):
    # at n = 60, sqrt(n) * lambda gives back 0.99999999999999989 for 1, and misses 0.5 and 2 too
    given = [0.5, 1.0, 2.0]
    out = tmp_path / ("s.json" if command == "simulate" else "sw")
    assert run([command, "--n", 60, "--epsilon", *given, "--realizations", 2, "--t-samples", 1,
                "--seed", 1, "--format", "json", "--out", out, "--jobs", 1]) == 0
    if command == "simulate":
        tables = [tmp_path / f"s_eps{eps:g}.json" for eps in given]
        sidecars = [json.loads(Path(f"{t}.summary.json").read_text()) for t in tables]
    else:
        tables = [out / f"hist_eps{eps:g}.json" for eps in given]
        sidecars = json.loads((out / "summary.json").read_text())["arms"]
    for eps, table, sidecar in zip(given, tables, sidecars):
        payload = json.loads(table.read_text())
        assert payload["config"]["epsilon"] == eps
        assert payload["summary"]["epsilon"] == sidecar["epsilon"] == eps
        assert payload["summary"]["lambda"] == lambda_from_epsilon(60, eps)
        assert list(sidecar)[:2] == ["epsilon", "lambda"]


def test_a_row_block_too_large_for_memory_is_one_error_line(tmp_path, capsys):
    # 10^12 realizations ask for an 11.4 PiB row block, which no allocator grants
    code = run(["simulate", "--n", 100, "--epsilon", 1, "--realizations", 10**12,
                "--out", tmp_path / "s.csv", "--jobs", 1])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _fit_input_named(tmp_path, name: bytes) -> str:
    path = os.path.join(os.fsencode(tmp_path), name)
    values = sample_gamma_dist(0.9, 2000, child_rng(5, 0))
    with open(path, "w") as handle:
        handle.write("\n".join(format(x, ".17g") for x in values) + "\n")
    return os.fsdecode(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_input_name_with_a_tab_keeps_its_header_whole(tmp_path, fmt):
    name = _fit_input_named(tmp_path, b"a\tb.txt")
    out = tmp_path / f"curve.{fmt}"
    assert run(["fit", "--input", name, "--out", out, "--format", fmt]) == 0
    if fmt == "json":
        with open(out, encoding="utf-8") as handle:
            assert json.load(handle)["config"]["input"] == name
    else:
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == f"# input = {name}"
        assert lines[6] == "K,fitted_density,universal_density"
        assert all(line.startswith("#") for line in lines[:6])


@pytest.mark.parametrize("name", [b"a\nb.txt", b"a\rb.txt", b"bad\xff.txt"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_input_name_that_no_header_can_hold_is_refused(tmp_path, capsys, name, fmt):
    path = _fit_input_named(tmp_path, name)
    out = tmp_path / f"curve.{fmt}"
    assert run(["fit", "--input", path, "--out", out, "--format", fmt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input name ") and err.count("\n") == 1
    assert not out.exists()
