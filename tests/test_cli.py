import hashlib
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from boxdet import cli
from boxdet.cli import format_rows_csv, main, parse_box, read_matrix
from boxdet.cli import InputError
from boxdet.chart import SERIES, render_chart
from boxdet.experiment import ExperimentConfig, ExperimentRow, run_experiment
from boxdet.gaussbox import McEstimate
from boxdet.model import BoxConstraint, classify
from boxdet.linalg import qr_positive
from boxdet.success import p_bb_bounds, p_bb_uniform

EX1_TEXT = "2 -1\n0 1\n"
EX3_TEXT = "1.5 0.3 -0.4\n0.2 1.1 0.6\n-0.3 0.5 0.9\n"
# (matrix, box, pattern) of the pinned exact-sp runs: mixed widths 0-5.
EXACT_SP_CASES = [
    (EX1_TEXT, "0..3", None), (EX1_TEXT, "0..3", "LL"), (EX1_TEXT, "0..1", None),
    (EX1_TEXT, "0..0,0..3", None), (EX1_TEXT, "-1..1,0..2", None),
    (EX1_TEXT, "0..1,0..0", None), (EX1_TEXT, "2..3,5..9", None),
    (EX3_TEXT, "0..1,0..0,0..5", None), (EX3_TEXT, "0..0,0..0,0..0", None),
    (EX3_TEXT, "0..1,0..1,0..1", None), (EX3_TEXT, "0..2,0..1,3..3", "IUS"),
]
EXACT_SP_DIGEST = "dd2c45d6a64f726628730314704deb20d387fb9532ce1b53a891b37e6e36d3a5"
REDUCED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "figure1_reduced.json"


@pytest.fixture
def ex1(tmp_path):
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_TEXT)
    return str(path)


@pytest.fixture
def y_zero(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("0\n0\n")
    return str(path)


def _config_file(tmp_path, **overrides):
    doc = {
        "n": 2,
        "box": {"lower": 0, "upper": 3},
        "sigma_grid": [0.2, 0.4],
        "num_matrices": 2,
        "trials_per_matrix": 1000,
        "seed": 3,
        "integrator": {"method": "qmc", "samples": 1024},
        "compute_exact_br": True,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFileParsing:
    def test_read_matrix(self, ex1):
        np.testing.assert_array_equal(
            read_matrix(ex1), np.array([[2.0, -1.0], [0.0, 1.0]])
        )

    def test_malformed_line_is_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3 oops\n")
        with pytest.raises(InputError, match="line 2"):
            read_matrix(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(InputError, match="line 2"):
            read_matrix(str(path))

    def test_parse_box(self):
        box = parse_box("0..3", 2)
        assert box.num_points() == 16
        box = parse_box("0..1,-2..2", 2)
        assert list(box.lower) == [0, -2]
        with pytest.raises(InputError):
            parse_box("3..0", 1)
        with pytest.raises(InputError):
            parse_box("0..3,0..3", 3)
        with pytest.raises(InputError):
            parse_box("abc", 1)


class TestDetect:
    def test_noiseless_both_modes(self, ex1, y_zero, capsys):
        assert main(["detect", ex1, y_zero, "--box", "0..3", "--mode", "both"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["BR: 0 0", "BB: 0 0"]

    def test_single_mode_prints_bare_vector(self, ex1, y_zero, capsys):
        for mode in ("rounding", "babai"):
            assert main(["detect", ex1, y_zero, "--box", "0..3", "--mode", mode]) == 0
            assert capsys.readouterr().out.strip() == "0 0"

    def test_bils_mode(self, ex1, y_zero, capsys):
        assert main(["detect", ex1, y_zero, "--box", "0..3", "--mode", "bils"]) == 0
        assert capsys.readouterr().out.strip() == "0 0"

    def test_clamping_instance(self, ex1, tmp_path, capsys):
        # ytilde = (-1.2, -0.4) with Q1 = I: rounding clamps to the box,
        # Babai rounds c2 = -0.4 to 0 then c1 = -0.6/2 to 0
        y = tmp_path / "yc.txt"
        y.write_text("-1.2\n-0.4\n")
        assert main(["detect", ex1, str(y), "--box", "0..3", "--mode", "both"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "BR: 0 0"
        assert out[1].startswith("BB: ")

    def test_noiseless_rectangular_model_recovers_x(self, tmp_path, capsys):
        # detect reduces y = A xhat to ytilde = q1.T y = R xhat itself.
        a = np.random.default_rng(11).standard_normal((4, 2))
        a_path, y_path = tmp_path / "a.txt", tmp_path / "y.txt"
        np.savetxt(a_path, a, fmt="%.17g")
        np.savetxt(y_path, a @ [1.0, 2.0], fmt="%.17g")
        assert main(["detect", str(a_path), str(y_path), "--box", "0..3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["BR: 1 2", "BB: 1 2"]

    def test_out_of_range_box_exits_2(self, ex1, y_zero, capsys):
        assert main(["detect", ex1, y_zero, "--box", "0..99999999999999999999"]) == 2
        assert "box upper bound 99999999999999999999" in capsys.readouterr().err

    def test_malformed_matrix_exits_2(self, tmp_path, y_zero, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 -1\nzz 1\n")
        assert main(["detect", str(bad), y_zero, "--box", "0..3"]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, box, message", [
        ("\n \n", "0..3", "holds no numeric rows"),
        (EX1_TEXT, "0..2.5", "bounds must be integers"),
    ], ids=["empty-matrix", "fractional-bound"])
    def test_unusable_input_exits_2(self, tmp_path, y_zero, capsys, text, box, message):
        a = tmp_path / "a.txt"
        a.write_text(text)
        assert main(["detect", str(a), y_zero, "--box", box]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_dimension_mismatch_exits_2(self, ex1, tmp_path):
        y = tmp_path / "y3.txt"
        y.write_text("1\n2\n3\n")
        assert main(["detect", ex1, str(y), "--box", "0..3"]) == 2

    def test_missing_file_exits_2(self, y_zero):
        assert main(["detect", "/nonexistent.txt", y_zero, "--box", "0..3"]) == 2

    def test_bils_guard_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a3.txt"
        a.write_text("1 0 0\n0 1 0\n0 0 1\n")
        y = tmp_path / "y3.txt"
        y.write_text("0\n0\n0\n")
        code = main(["detect", str(a), str(y), "--box", "0..100", "--mode", "bils"])
        assert code == 3


class TestExactSp:
    def test_example_output(self, ex1, capsys):
        code = main(["exact-sp", ex1, "--sigma", "1", "--box", "0..3",
                     "--pattern", "LL"])
        assert code == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            key, _, val = line.rpartition("=")
            values[key.strip()] = float(val)
        assert values["P_R^BB"] == pytest.approx(0.409351, abs=1e-6)
        assert values["P_D^BB lower bound"] == pytest.approx(0.261419, abs=1e-6)
        assert values["P_D^BB"] == pytest.approx(0.5818, abs=5e-4)
        assert values["P_D^BB upper bound"] == values["P_D^BB"]

    @pytest.mark.parametrize("box", ["0..0,0..3", "0..1"])
    def test_bounds_hold_for_every_admissible_pattern(self, ex1, capsys, box):
        # Singleton and width-1 coordinates narrow the admissible patterns,
        # so the bounds must come from the box, not from R alone.
        bounds = parse_box(box, 2)
        for point in itertools.product(*(range(lo, hi + 1) for lo, hi
                                          in zip(bounds.lower, bounds.upper))):
            letters = "".join(tag.value for tag in classify(np.array(point), bounds))
            assert main(["exact-sp", ex1, "--sigma", "0.5", "--box", box,
                         "--pattern", letters]) == 0
            values = {}
            for line in capsys.readouterr().out.strip().splitlines():
                key, _, val = line.rpartition("=")
                values[key.strip()] = float(val)
            assert (values["P_D^BB lower bound"] <= values["P_D^BB"]
                    <= values["P_D^BB upper bound"]), letters

    @pytest.mark.parametrize("box", ["0..3", "-1..1,0..2", "0..2,5..9", "0..0,0..3",
                                     "0..1", "0..1,0..0", "2..3,5..9"])
    def test_bounds_are_p_bb_bounds_of_the_box(self, ex1, capsys, box):
        assert main(["exact-sp", ex1, "--sigma", "0.7", f"--box={box}"]) == 0
        out = capsys.readouterr().out
        lower, upper = p_bb_bounds(qr_positive(read_matrix(ex1))[1], 0.7, parse_box(box, 2))
        assert f"P_D^BB lower bound = {lower:.6f}\n" in out
        assert f"P_D^BB upper bound = {upper:.6f}\n" in out

    def test_mixed_width_output_bytes_are_pinned(self, tmp_path, capsys):
        # The sha256 of the stdout of every case, in order: any printed
        # digit that moves changes it.
        outputs = []
        for text, box, pattern in EXACT_SP_CASES:
            path = tmp_path / "r.txt"
            path.write_text(text)
            extra = ["--pattern", pattern] if pattern else []
            assert main(["exact-sp", str(path), "--sigma", "0.7", f"--box={box}", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(outputs).encode()).hexdigest() == EXACT_SP_DIGEST

    def test_pattern_length_mismatch_exits_2(self, ex1, capsys):
        assert main(["exact-sp", ex1, "--sigma", "1", "--box", "0..3",
                     "--pattern", "LLL"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any result is printed
        assert "pattern length 3 does not match box dimension 2" in captured.err

    def test_infinite_sigma_exits_2(self, ex1, capsys):
        assert main(["exact-sp", ex1, "--sigma", "inf", "--box", "0..3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma must be positive and finite" in captured.err

    def test_pattern_inconsistent_with_box_exits_2(self, ex1, capsys):
        assert main(["exact-sp", ex1, "--sigma", "1", "--box", "0..3",
                     "--pattern", "SS"]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["detect", "exact-sp", "mc-sp"])
def test_spaced_box_may_start_with_a_minus_sign(ex1, y_zero, capsys, command):
    # argparse alone reads the spaced "-1..1,0..2" as an option and exits 2.
    head = {"detect": [ex1, y_zero], "exact-sp": [ex1, "--sigma", "0.7"],
            "mc-sp": [ex1, "--sigma", "0.7", "--method", "quad"]}[command]
    assert main([command, *head, "--box=-1..1,0..2"]) == 0
    glued = capsys.readouterr().out
    assert main([command, *head, "--box", "-1..1,0..2"]) == 0
    assert capsys.readouterr().out == glued


class TestMcSp:
    def test_pattern_estimate(self, ex1, capsys):
        code = main(["mc-sp", ex1, "--sigma", "1", "--box", "0..3",
                     "--pattern", "LL", "--samples", "100000", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("P_D^BR = ")
        value = float(out.split("=")[1].split("+/-")[0])
        stderr = float(out.split("+/-")[1].split("(")[0])
        assert abs(value - 0.6192) <= 3 * stderr + 1e-3

    def test_same_seed_same_output(self, ex1, capsys):
        argv = ["mc-sp", ex1, "--sigma", "0.5", "--box", "0..3",
                "--samples", "20000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_uniform_quadrature_matches_exact_for_diagonal(self, tmp_path, capsys):
        a = tmp_path / "diag.txt"
        a.write_text("1 0\n0 2\n")
        assert main(["mc-sp", str(a), "--sigma", "0.8", "--box", "0..3",
                     "--method", "quad"]) == 0
        br_line = capsys.readouterr().out
        br = float(br_line.split("=")[1].split("+/-")[0])
        assert main(["exact-sp", str(a), "--sigma", "0.8", "--box", "0..3"]) == 0
        bb_line = capsys.readouterr().out.splitlines()[0]
        bb = float(bb_line.split("=")[1])
        assert br == pytest.approx(bb, abs=1e-6)

    @pytest.mark.parametrize("threads", ["abc", "2.5", "-3"])
    def test_bad_thread_count_exits_2(self, ex1, capsys, monkeypatch, threads):
        monkeypatch.setenv("BOXDET_THREADS", threads)
        assert main(["mc-sp", ex1, "--sigma", "1", "--box", "0..3",
                     "--method", "qmc"]) == 2
        assert "BOXDET_THREADS" in capsys.readouterr().err

    def test_nan_sigma_exits_2(self, ex1, capsys):
        assert main(["mc-sp", ex1, "--sigma", "nan", "--box", "0..3",
                     "--method", "quad"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma must be positive and finite" in captured.err

    def test_tiny_sigma_quadrature(self, ex1, capsys):
        # sigma^2 underflows; quadrature integrates in units of sigma, so
        # the answer (certain detection) still comes out.
        assert main(["mc-sp", ex1, "--sigma", "1e-300", "--box", "0..3",
                     "--pattern", "LL", "--method", "quad"]) == 0
        assert capsys.readouterr().out.startswith("P_D^BR = 1.000000 +/- 0.000000")

    @pytest.mark.parametrize("argv, line", [
        (["mc-sp", "--sigma", "1e308", "--method", "mc", "--pattern", "II"], "P_D^BR = 0.000000"),
        (["mc-sp", "--sigma", "1e308", "--method", "qmc", "--samples", "2048"],
         "P_R^BR = 0.062500"),  # only the floors (1/4)^2 remain
        (["mc-sp", "--sigma", "1e-320", "--method", "qmc", "--samples", "2048"],
         "P_R^BR = 1.000000"),
        (["mc-sp", "--sigma", "1e-320", "--method", "quad"], "P_R^BR = 1.000000"),
        (["exact-sp", "--sigma", "1e-320"], "P_R^BB = 1.000000"),
    ], ids=["mc-1e308", "qmc-1e308", "qmc-1e-320", "quad-1e-320", "exact-1e-320"])
    def test_extreme_sigma_prints_the_limit(self, ex1, capsys, argv, line):
        # The suite turns a RuntimeWarning into an error, so an overflow
        # on the way fails here.
        assert main(argv[:1] + [ex1, "--box", "0..3"] + argv[1:]) == 0
        assert capsys.readouterr().out.startswith(line)

    @pytest.mark.parametrize("method", ["qmc", "quad"])
    def test_large_diagonal_near_the_overflow_edge(self, tmp_path, capsys, method):
        # The limits in units of sigma stay finite, but dividing them by a
        # conditional sd below 1 overflows to an infinite limit, which is
        # exact; the suite turns a RuntimeWarning into an error.
        path = tmp_path / "d.txt"
        path.write_text("100 0\n0 100\n")
        assert main(["mc-sp", str(path), "--sigma", "1e-307", "--box", "0..3",
                     "--method", method]) == 0
        assert capsys.readouterr().out.startswith("P_R^BR = 1.000000")

    def test_ill_conditioned_quadrature(self, tmp_path, capsys):
        # The density of R = [[1, 1], [0, 0.01]] lies on a narrow ridge;
        # the LU value is the 1-D integral of phi(v) Phi(0.5 + 100 v) over
        # v >= -0.005, which scipy's adaptive quad puts at 0.5004032.
        a = tmp_path / "ridge.txt"
        a.write_text("1 1\n0 0.01\n")
        assert main(["mc-sp", str(a), "--sigma", "1", "--box", "0..3",
                     "--pattern", "LU", "--method", "quad"]) == 0
        value = float(capsys.readouterr().out.split("=")[1].split("+/-")[0])
        assert abs(value - 0.5004032) < 1e-4

    def test_singleton_coordinate_is_integrated_out(self, tmp_path, capsys):
        # The singleton's full line leaves xi_1 with its marginal
        # N(0, sigma^2 [(R^T R)^{-1}]_11), so the LS value is
        # Phi(0.5 / sd_1) = 0.556225; a node rule over the coupled full
        # line read 0.555851.
        a = tmp_path / "coupled.txt"
        a.write_text("0.541 2.446\n0 0.627\n")
        assert main(["mc-sp", str(a), "--sigma", "0.475", "--box", "0..1,0..0",
                     "--pattern", "LS", "--method", "quad"]) == 0
        assert capsys.readouterr().out.startswith("P_D^BR = 0.556225 +/- 0.000000")

    def test_pattern_budget_exits_3(self, tmp_path, capsys):
        # No pattern budget any more: an 11-D uniform cell runs on QMC,
        # and quadrature refuses n > 4 before it enumerates any pattern.
        def identity(n):
            path = tmp_path / f"eye{n}.txt"
            path.write_text("\n".join(
                " ".join("1" if i == j else "0" for j in range(n)) for i in range(n)))
            return str(path)

        assert main(["mc-sp", identity(11), "--sigma", "0.5", "--box", "0..3",
                     "--method", "qmc", "--samples", "1000"]) == 0
        # With R = I rounding is Babai, so the value is the closed form.
        value = float(capsys.readouterr().out.split("=")[1].split("+/-")[0])
        assert value == pytest.approx(p_bb_uniform(np.eye(11), 0.5,
                                                   BoxConstraint.cube(0, 3, 11)), abs=1e-6)
        for n in (11, 30):
            start = time.perf_counter()
            code = main(["mc-sp", identity(n), "--sigma", "0.5", "--box", "0..3",
                         "--method", "quad"])
            assert code == 2
            assert time.perf_counter() - start < 1.0
            assert f"dimension <= 4, got {n}" in capsys.readouterr().err


class TestExperimentCommand:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        cfg = _config_file(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out2)]) == 0
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        lines = data1.decode().splitlines()
        assert lines[0] == ("sigma,theo_pbb,theo_pbr,theo_pbr_stderr,"
                            "emp_pbb,emp_pbb_stderr,emp_pbr,emp_pbr_stderr")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert len(first) == 8
        assert float(first[0]) == 0.2

    def test_missing_br_columns_empty(self, tmp_path):
        cfg = _config_file(tmp_path, compute_exact_br=False)
        out = tmp_path / "c.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == "" and row[3] == ""

    def test_svg_written_and_valid(self, tmp_path):
        import xml.etree.ElementTree as ET

        cfg = _config_file(tmp_path)
        out = tmp_path / "d.csv"
        svg = tmp_path / "d.svg"
        assert main(["experiment", "--config", cfg, "--out", str(out),
                     "--svg", str(svg)]) == 0
        tree = ET.parse(svg)
        text = svg.read_text()
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "Average success probabilit" in text

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["experiment", "--config", str(path), "--out",
                     str(tmp_path / "x.csv")]) == 2
        path.write_text(json.dumps({"n": 2}))
        assert main(["experiment", "--config", str(path), "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_sigma_whose_observations_overflow_exits_2(self, tmp_path, capsys):
        # At sigma 1e308, sigma z overflows float64 for |z| > 1.8.  The suite
        # turns a RuntimeWarning into an error, so the sweep must not warn.
        cfg = _config_file(tmp_path, n=8, sigma_grid=[0.1, 1e308], trials_per_matrix=5000,
                           compute_exact_br=False)
        out = tmp_path / "x.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("boxdet: sigma 1e+308: the simulated observations "
                                "overflow float64\n")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, sead=7)
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "sead" in capsys.readouterr().err

    def test_non_boolean_compute_exact_br_exits_2(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, compute_exact_br="false")
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "compute_exact_br must be a JSON boolean" in capsys.readouterr().err

    def test_removed_truncation_key_exits_2(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, integrator={"method": "quad", "truncation": 10.0})
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "truncation" in capsys.readouterr().err

    @pytest.mark.parametrize("box, name", [
        ({"lower": 0, "upper": 99999999999999999999}, "upper"),  # no int64 holds it
        ({"lower": -2 ** 63, "upper": 2 ** 63 - 1}, "lower"),   # the width overflows
        ({"lower": 0, "upper": 2 ** 63 - 1}, "upper"),          # width + 1 wraps
    ])
    def test_out_of_range_box_exits_2(self, tmp_path, capsys, box, name):
        cfg = _config_file(tmp_path, box=box)
        out = tmp_path / "x.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        assert f"box {name} bound" in capsys.readouterr().err
        assert not out.exists()

    def test_quad_points_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)  # never built
        cfg = _config_file(tmp_path, integrator={"method": "quad", "quad_points": 129})
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "quad_points must be between 2 and 128" in capsys.readouterr().err

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def never(cfg):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_experiment", never)

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_missing_output_directory_exits_2_before_sweep(self, tmp_path, capsys,
                                                         no_sweep, flag):
        missing = str(tmp_path / "no" / "such" / "x.out")
        paths = {"--out": str(tmp_path / "x.csv"), "--svg": str(tmp_path / "x.svg")}
        paths[flag] = missing
        argv = ["experiment", "--config", _config_file(tmp_path)]
        for name, path in paths.items():
            argv += [name, path]
        assert main(argv) == 2
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_empty_output_path_exits_2_before_sweep(self, tmp_path, capsys, no_sweep,
                                                    flag):
        paths = {"--out": str(tmp_path / "x.csv"), "--svg": str(tmp_path / "x.svg")}
        paths[flag] = ""
        argv = ["experiment", "--config", _config_file(tmp_path)]
        for name, path in paths.items():
            argv += [name, path]
        assert main(argv) == 2
        assert "empty output path" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_output_directory_as_path_exits_2_before_sweep(self, tmp_path, capsys,
                                                          no_sweep):
        assert main(["experiment", "--config", _config_file(tmp_path),
                     "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_parent_of_missing_directory_exits_2_before_sweep(self, tmp_path, capsys,
                                                               no_sweep):
        # The OS resolves missing/.. literally, so the write could never succeed.
        path = str(tmp_path / "missing" / ".." / "f.csv")
        assert main(["experiment", "--config", _config_file(tmp_path),
                     "--out", path]) == 2
        assert path in capsys.readouterr().err

    def test_svg_onto_the_csv_exits_2_before_sweep(self, tmp_path, capsys, no_sweep):
        out = str(tmp_path / "x.csv")
        same = os.path.join(str(tmp_path), ".", "x.csv")
        assert main(["experiment", "--config", _config_file(tmp_path),
                     "--out", out, "--svg", same]) == 2
        assert "same file" in capsys.readouterr().err

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_outputs_get_the_mode_open_would_give(self, tmp_path, umask):
        out, svg = tmp_path / "m.csv", tmp_path / "m.svg"
        previous = os.umask(umask)
        try:
            assert main(["experiment", "--config", _config_file(tmp_path),
                         "--out", str(out), "--svg", str(svg)]) == 0
        finally:
            os.umask(previous)
        for path in (out, svg):
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            cli._write_atomic(str(tmp_path / "out.csv"), "text\n")
        assert list(tmp_path.iterdir()) == []

    def test_reduced_sweep_digest(self, tmp_path):
        # Pins the sampling and both detector kernels: any change to their
        # numbers moves this digest of configs/figure1_reduced.json's CSV.
        out = tmp_path / "reduced.csv"
        assert main(["experiment", "--config", str(REDUCED_CONFIG), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aecf029755885e287f310cacdd52dd7b9991e3c9ece422925e5bb8a88b72f05e")

    def test_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_json_file(_config_file(tmp_path))
        rows = run_experiment(cfg)
        text = format_rows_csv(rows)
        parsed = [line.split(",") for line in text.strip().splitlines()[1:]]
        for row, fields in zip(rows, parsed):
            assert float(fields[0]) == pytest.approx(row.sigma, abs=1e-6)
            assert float(fields[1]) == pytest.approx(row.theo_p_bb, abs=1e-6)
            assert float(fields[4]) == pytest.approx(row.emp_p_bb.value, abs=1e-6)

    def test_chart_handles_missing_theoretical_series(self, tmp_path):
        cfg = ExperimentConfig.from_json_file(
            _config_file(tmp_path, compute_exact_br=False)
        )
        rows = run_experiment(cfg)
        text = render_chart(rows)
        assert text.startswith("<?xml")
        assert "Theo. P_R^BR" not in text


class TestChart:
    SIGMAS = (0.1, 0.25, 0.4, 0.55, 0.7)

    @staticmethod
    def _rows(curve):
        def est(value):
            return McEstimate(value, 0.001, 100, "seed=0")

        return [ExperimentRow(s, 1.0 - s, est(0.95 - s) if curve else None,
                              est(1.01 - s), est(0.9 - s)) for s in TestChart.SIGMAS]

    @pytest.mark.parametrize("curve, digest", [
        (True, "ca495032a5929d2ddbea4bf4e225089682178bb7a1b5bae1a027f5155467a9e6"),
        (False, "9662dfcd5e9997461cf0b64d5a772d3f09bee65dbb5ec5a6fbc2ae54fcc474f6"),
    ], ids=["curve", "no-curve"])
    def test_render_is_pinned(self, curve, digest):
        text = render_chart(self._rows(curve))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("curve", [True, False], ids=["curve", "no-curve"])
    def test_series_marks_and_legend(self, curve):
        text = render_chart(self._rows(curve))
        lines = 2 if curve else 1
        rows = len(self.SIGMAS)
        assert text.count("<polyline") == 2 * lines  # plot and legend
        assert text.count("<circle") == rows + 1
        assert text.count('<rect x=') == rows + 1
        labels = [label for label, *_ in SERIES if curve or label != "Theo. P_R^BR"]
        positions = [text.index(f">{label}</text>") for label in labels]
        assert positions == sorted(positions)
        assert ("Theo. P_R^BR" in text) is curve
        assert ('stroke="#d62728" stroke-width="1.8" stroke-dasharray' in text) is curve


class TestNegativeSeed:
    def test_mc_sp_names_the_seed(self, ex1, capsys):
        assert main(["mc-sp", ex1, "--sigma", "0.5", "--box", "0..3",
                     "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err
        assert captured.out == ""

    def test_experiment_config_names_the_seed(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, seed=-4)
        out = tmp_path / "x.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mc-sp", "{a}", "--sigma", "1", "--box", "0..3", "--method", "qmc", "--samples", "2048"],
    ["mc-sp", "{a}", "--sigma", "1", "--box", "0..3", "--method", "quad"],
])
def test_bad_thread_count_exits_2_without_a_pool(ex1, capsys, monkeypatch, argv):
    # refused before any integral: the QMC one would pool, the quadrature one not
    monkeypatch.setenv("BOXDET_THREADS", "abc")
    assert main([ex1 if arg == "{a}" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert "BOXDET_THREADS" in captured.err
    assert captured.out == ""
