"""Command-line front end.

Subcommands: ``detect`` runs the detectors on one instance, ``exact-sp``
prints the closed-form success probabilities, ``mc-sp`` the integral
ones, and ``experiment`` runs a configured sweep and writes CSV plus an
optional SVG chart.

Exit codes: 0 success, 2 usage/input error, 3 resource guard tripped
(brute-force box too large).

Matrix and vector files are plain text, one row per line,
whitespace-separated decimals.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from ._parallel import worker_count
from .chart import render_chart
from .detectors import bils_brute_force, box_babai, box_rounding
from .errors import BoxdetError, BoxTooLargeError
from .experiment import ExperimentConfig, run_experiment
from .gaussbox import IntegratorConfig, IntegratorMethod
from .linalg import qr_positive
from .model import BoxConstraint, parse_pattern, validate_pattern_for_box
from .rng import RngStream
from .success import (
    p_bb_bounds,
    p_bb_deterministic,
    p_bb_uniform,
    p_br_deterministic,
    p_br_uniform,
)

CSV_HEADER = (
    "sigma,theo_pbb,theo_pbr,theo_pbr_stderr,"
    "emp_pbb,emp_pbb_stderr,emp_pbr,emp_pbr_stderr"
)


class InputError(BoxdetError):
    """User-facing input problem; maps to exit code 2."""


def read_matrix(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                row = [float(tok) for tok in stripped.split()]
            except ValueError:
                raise InputError(f"{path} line {lineno}: could not parse {stripped!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise InputError(
                    f"{path} line {lineno}: expected {width} values, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise InputError(f"{path}: file holds no numeric rows")
    return np.asarray(rows, dtype=float)


def read_vector(path) -> np.ndarray:
    return read_matrix(path).reshape(-1)


def parse_box(spec: str, dim: int) -> BoxConstraint:
    """Parse 'L..U' (broadcast over all coordinates) or a comma-separated
    per-coordinate list 'L1..U1,L2..U2,...'."""
    parts = spec.split(",")
    pairs = []
    for part in parts:
        pieces = part.split("..")
        if len(pieces) != 2:
            raise InputError(f"bad box range {part!r}; expected L..U")
        try:
            pairs.append((int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise InputError(f"bad box range {part!r}; bounds must be integers")
    if len(pairs) == 1:
        pairs = pairs * dim
    if len(pairs) != dim:
        raise InputError(f"box has {len(pairs)} ranges but the problem has {dim} coordinates")
    try:
        return BoxConstraint([p[0] for p in pairs], [p[1] for p in pairs])
    except ValueError as exc:
        raise InputError(str(exc))


def _format_vec(x) -> str:
    return " ".join(str(int(v)) for v in x)


def _reduced_from_files(matrix_path, y_path):
    a = read_matrix(matrix_path)
    y = read_vector(y_path)
    if y.size != a.shape[0]:
        raise InputError(
            f"observation length {y.size} does not match matrix rows {a.shape[0]}"
        )
    q1, r = qr_positive(a)
    return r, q1.T @ y


def cmd_detect(args) -> int:
    r, ytilde = _reduced_from_files(args.matrix, args.y)
    box = parse_box(args.box, r.shape[0])
    if args.mode == "rounding":
        print(_format_vec(box_rounding(r, ytilde, box)))
    elif args.mode == "babai":
        print(_format_vec(box_babai(r, ytilde, box)))
    elif args.mode == "bils":
        print(_format_vec(bils_brute_force(r, ytilde, box)))
    else:
        print(f"BR: {_format_vec(box_rounding(r, ytilde, box))}")
        print(f"BB: {_format_vec(box_babai(r, ytilde, box))}")
    return 0


def _problem_from_args(args):
    """(R, box, pattern) of exact-sp and mc-sp: the R factor of the matrix
    file, the --box, and the --pattern letters checked against the box
    (None without one)."""
    _, r = qr_positive(read_matrix(args.matrix))
    box = parse_box(args.box, r.shape[0])
    if args.pattern is None:
        return r, box, None
    pattern = parse_pattern(args.pattern)
    try:
        validate_pattern_for_box(pattern, box)
    except ValueError as exc:
        raise InputError(str(exc))
    return r, box, pattern


def cmd_exact_sp(args) -> int:
    r, box, pattern = _problem_from_args(args)
    print(f"P_R^BB = {p_bb_uniform(r, args.sigma, box):.6f}")
    lower, upper = p_bb_bounds(r, args.sigma, box)
    print(f"P_D^BB lower bound = {lower:.6f}")
    print(f"P_D^BB upper bound = {upper:.6f}")
    if pattern is not None:
        print(f"P_D^BB = {p_bb_deterministic(r, args.sigma, pattern):.6f}")
    return 0


def cmd_mc_sp(args) -> int:
    r, box, pattern = _problem_from_args(args)
    cfg = IntegratorConfig(method=IntegratorMethod(args.method), samples=args.samples)
    stream = RngStream(args.seed)
    if pattern is not None:
        est = p_br_deterministic(r, args.sigma, pattern, cfg, stream)
        label = "P_D^BR"
    else:
        est = p_br_uniform(r, args.sigma, box, cfg, stream)
        label = "P_R^BR"
    print(f"{label} = {est.value:.6f} +/- {est.stderr:.6f} ({est.seed})")
    return 0


def format_rows_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        theo_br = f"{row.theo_p_br.value:.6f}" if row.theo_p_br is not None else ""
        theo_br_se = f"{row.theo_p_br.stderr:.6f}" if row.theo_p_br is not None else ""
        lines.append(
            f"{row.sigma:.6f},{row.theo_p_bb:.6f},{theo_br},{theo_br_se},"
            f"{row.emp_p_bb.value:.6f},{row.emp_p_bb.stderr:.6f},"
            f"{row.emp_p_br.value:.6f},{row.emp_p_br.stderr:.6f}"
        )
    return "\n".join(lines) + "\n"


def _check_writable_path(path) -> None:
    """Refuse, before any work, an output path whose directory is missing
    or that is a directory itself.  The directory is taken as the OS will
    resolve it: ``missing/..`` is not normalized away."""
    if not path:
        raise InputError("cannot write an empty output path")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise InputError(f"cannot write {path}: no directory {directory}")
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")


def _write_atomic(path, text) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            # mkstemp creates the file 0600; give it the mode open() would.
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    for path in (args.out, args.svg):
        if path is not None:
            _check_writable_path(path)
    if args.svg is not None and os.path.realpath(args.svg) == os.path.realpath(args.out):
        raise InputError(f"cannot write {args.svg}: it is the same file as --out")
    rows = run_experiment(cfg)
    _write_atomic(args.out, format_rows_csv(rows))
    print(f"wrote {args.out}")
    if args.svg is not None:
        _write_atomic(args.svg, render_chart(rows))
        print(f"wrote {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxdet",
        description="Box-constrained rounding/Babai detectors and their "
        "success probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run detectors on one instance")
    p.add_argument("matrix", help="model matrix file (text rows)")
    p.add_argument("y", help="observation vector file")
    p.add_argument("--box", required=True, help="integer box, e.g. 0..3")
    p.add_argument("--mode", choices=["rounding", "babai", "both", "bils"],
                   default="both")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("exact-sp", help="closed-form success probabilities")
    p.add_argument("matrix")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--pattern", help="per-coordinate letters L/I/U/S")
    p.set_defaults(func=cmd_exact_sp)

    p = sub.add_parser("mc-sp", help="integral success probabilities")
    p.add_argument("matrix")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", help="per-coordinate letters L/I/U/S")
    p.add_argument("--method", choices=[m.value for m in IntegratorMethod],
                   default="mc")
    p.set_defaults(func=cmd_mc_sp)

    p = sub.add_parser("experiment", help="run a configured sweep")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", help="optional SVG chart path")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse takes "--box -1..1" for two options
        if argv[i - 1] == "--box" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"--box={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        worker_count()  # refuse a malformed BOXDET_THREADS whether or not a pool starts
        return args.func(args)
    except BoxTooLargeError as exc:
        print(f"boxdet: {exc}", file=sys.stderr)
        return 3
    except (BoxdetError, ValueError, OSError) as exc:
        print(f"boxdet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
