"""Command-line surface: align, gradcheck, datagen, train, eval.

File format ("sequence file"): a header line `rows cols`, then one
whitespace-separated row of reals per line. Values are written with 17
significant digits so write-then-read round-trips exactly; NaN and
infinity tokens are rejected on read.

Reports are flat `key value` lines on stdout, written once the command has
succeeded. A command that fails writes nothing to stdout and one `error:`
line to stderr, after the usage text for a usage error; `align` reports a
float64 overflow as such an error, and `train` and `gradcheck` a gamma at
which soft-DTW overflows float64.
Exit codes: 0 success, 1 usage, parse or overflow error, 2 tolerance failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (
    _check_gamma,
    _costs_and_gradients,
    brute_force_softdtw,
    classical_dtw,
    path_count,
    softdtw_forward,
)
from .core import FeatureSequence, PianoRoll
from .cost import CostKind, build_cost_matrix
from .metrics import DEFAULT_THRESHOLD, evaluate
from .targets import LabelVariant
from .training import (
    LossKind,
    SyntheticExcerpt,
    TrainConfig,
    TOY_DATASET_PARAMS,
    generate_synthetic_dataset,
    toy_config,
    train,
)

ORACLE_CHECK_PATH_LIMIT = 10**5
FD_STEP = 1e-5


class SequenceFileError(ValueError):
    """Raised when a sequence file cannot be parsed."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, Enum):
        return value.value
    return str(value)  # floats print as their shortest exact round-trip


def _report_text(report) -> str:
    return "".join(f"{key} {_fmt(value)}\n" for key, value in report)


def write_sequence_file(path, matrix) -> None:
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:  # a handle: savetxt would gzip a path ending in .gz
        np.savetxt(fh, arr, fmt="%.17g", header=f"{arr.shape[0]} {arr.shape[1]}", comments="")


def read_sequence_file(path) -> np.ndarray:
    try:
        lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise SequenceFileError(f"{path}: not UTF-8 text") from exc
    if not lines:
        raise SequenceFileError(f"{path}: empty file")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError as exc:
        raise SequenceFileError(f"{path}: bad header {lines[0]!r}") from exc
    if rows < 1 or cols < 1 or len(lines) - 1 != rows:
        raise SequenceFileError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise SequenceFileError(f"{path}: row {i + 1} has {len(parts)} values, expected {cols}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise SequenceFileError(f"{path}: row {i + 1} has a non-numeric token") from exc
        if not all(np.isfinite(vals)):
            raise SequenceFileError(f"{path}: row {i + 1} contains NaN or infinity")
        data[i] = vals
    return data


def _read_as(make, path):
    """`make(read_sequence_file(path))`, naming the file when `make`'s checks fail."""
    frames = read_sequence_file(path)
    try:
        return make(frames)
    except ValueError as exc:  # the sequence checks do not know the file
        raise SequenceFileError(f"{path}: {exc}") from exc


def norm_rel_err(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Max-norm relative error: ||candidate - reference||_inf / ||reference||_inf."""
    denom = float(np.abs(reference).max()) or 1.0  # a zero reference: the absolute error
    return float(np.abs(candidate - reference).max() / denom)


def finite_difference_gradient(costs: np.ndarray, gamma: float) -> np.ndarray:
    """Central finite differences of the forward cost over every cell, step FD_STEP."""
    c = np.array(costs, dtype=np.float64)
    grad = np.empty_like(c)
    for idx in np.ndindex(c.shape):
        keep = c[idx]
        c[idx] = keep + FD_STEP
        hi = softdtw_forward(c, gamma).cost
        c[idx] = keep - FD_STEP
        lo = softdtw_forward(c, gamma).cost
        c[idx] = keep
        grad[idx] = (hi - lo) / (2.0 * FD_STEP)
    return grad


@contextmanager
def _gamma_in_range(gamma: float):
    """Raise one FloatingPointError naming gamma, under any warning filter,
    where the soft-DTW arithmetic inside overflows float64 or turns invalid.

    At a huge gamma D itself overflows; at a tiny one a cost difference
    divided by gamma overflows, and the weight it makes is decided by
    rounding, so the gradient has lost its digits.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"gamma {gamma!r} takes soft-DTW out of float64's range: {exc}") from None


def _cmd_align(args):
    x = _read_as(FeatureSequence, args.x_file)
    y = _read_as(FeatureSequence, args.y_file)

    def finite(value):
        # finite inputs can still overflow float64 (squared differences, border sums)
        if not np.isfinite(value).all():
            raise FloatingPointError(f"float64 overflow aligning {args.x_file} with {args.y_file}")
        return value

    report = [("rows_x", len(x)), ("rows_y", len(y)), ("dim", x.dim), ("gamma", args.gamma)]
    with np.errstate(over="ignore", invalid="ignore"):
        costs = finite(build_cost_matrix(CostKind.SQUARED_EUCLIDEAN, x, y))
        if args.grad is None:
            cost, grad = softdtw_forward(costs, args.gamma).cost, None
        else:  # one forward sweep serves the cost and the gradient
            [cost], [grad] = _costs_and_gradients([costs], _check_gamma(args.gamma))
        report.append(("softdtw_cost", finite(cost)))
        if args.hard:
            hard_cost, path = classical_dtw(costs)
            report += [("dtw_cost", finite(hard_cost)), ("dtw_path_length", len(path))]
            report += [(f"dtw_path.{k}", f"{n} {m}") for k, (n, m) in enumerate(path)]
        if grad is not None:
            write_sequence_file(args.grad, finite(grad))
            report.append(("grad_file", args.grad))
    return 0, report


# gradcheck flag -> default, whose type is the flag's type
_GRADCHECK_FLAGS = {"rows": 8, "cols": 7, "dim": 4, "gamma": 1.0, "seed": 0, "trials": 20,
                    "fd-tolerance": 1e-5, "oracle-tolerance": 1e-9}


def _cmd_gradcheck(args):
    if args.rows < 1 or args.cols < 1 or args.dim < 1 or args.trials < 1:
        raise ValueError("rows, cols, dim and trials must be >= 1")
    if not (args.fd_tolerance > 0.0 and args.oracle_tolerance > 0.0):  # False for NaN
        raise ValueError("fd-tolerance and oracle-tolerance must be positive")
    gamma = _check_gamma(args.gamma)
    rng = np.random.default_rng(args.seed)
    run_oracle = path_count(args.rows, args.cols) <= ORACLE_CHECK_PATH_LIMIT
    worst = {}  # report key -> largest error over the trials
    for _ in range(args.trials):
        x = FeatureSequence(rng.standard_normal((args.rows, args.dim)))
        y = FeatureSequence(rng.standard_normal((args.cols, args.dim)))
        costs = build_cost_matrix(CostKind.SQUARED_EUCLIDEAN, x, y)
        with _gamma_in_range(args.gamma):  # overflow would leave NaN errors, which max() drops
            [dp_cost], [grad] = _costs_and_gradients([costs], gamma)
            errors = {"max_rel_err_fd": norm_rel_err(grad, finite_difference_gradient(costs, args.gamma))}
            if run_oracle:
                oracle_cost, oracle_grad = brute_force_softdtw(costs, args.gamma)
                errors["max_rel_err_oracle_cost"] = abs(dp_cost - oracle_cost) / max(abs(oracle_cost), 1e-300)
                errors["max_rel_err_oracle_grad"] = norm_rel_err(grad, oracle_grad)
        worst = {key: max(worst.get(key, 0.0), error) for key, error in errors.items()}
    ok = all(error < (args.oracle_tolerance if "oracle" in key else args.fd_tolerance)
             for key, error in worst.items())
    settings = [(key, getattr(args, key)) for key in ("rows", "cols", "dim", "gamma", "trials")]
    return (0 if ok else 2), [*settings, ("oracle_checked", run_oracle), *worst.items(), ("pass", ok)]


_EXCERPT_KINDS = ("input", "strong", "score")
# dataset flag -> generate_synthetic_dataset parameter
_GENERATOR_FLAGS = {
    "excerpts": "excerpt_count",
    "frames": "frames",
    "polyphony": "polyphony",
    "noise": "noise_level",
}


def _excerpt_file(directory: Path, index: int, kind: str) -> Path:
    return directory / f"excerpt_{index:03d}_{kind}.txt"


def _generate_dataset(args, seed_flag: str) -> list[SyntheticExcerpt]:
    # a dataset flag that train was not given is absent from its args: the toy value stands
    flags = {seed_flag: "seed", **_GENERATOR_FLAGS}
    return generate_synthetic_dataset(**{param: getattr(args, flag, TOY_DATASET_PARAMS[param])
                                         for flag, param in flags.items()})


def _cmd_datagen(args):
    dataset = _generate_dataset(args, "seed")
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    for i, excerpt in enumerate(dataset):
        for kind, seq in zip(_EXCERPT_KINDS, (excerpt.input, excerpt.strong_target, excerpt.score_target)):
            write_sequence_file(_excerpt_file(directory, i, kind), seq.frames)
    (directory / "dataset.txt").write_text(_report_text([
        ("excerpts", args.excerpts),
        ("frames", args.frames),
        ("polyphony", args.polyphony),
        ("noise_level", args.noise),
        ("seed", args.seed),
    ]), encoding="utf-8")
    return 0, [("out_dir", directory), ("excerpts", args.excerpts)]


def _manifest_excerpt_count(directory: Path) -> int | None:
    """Excerpt count from the `dataset.txt` that datagen writes, if present."""
    manifest = directory / "dataset.txt"
    if not manifest.exists():
        return None
    try:  # a later line for the same key wins
        fields = dict(line.strip().partition(" ")[::2]
                      for line in manifest.read_text(encoding="utf-8").splitlines())
        return int(fields["excerpts"])
    except (KeyError, ValueError) as exc:  # ValueError includes text that is not UTF-8
        raise SequenceFileError(f"{manifest}: missing or malformed 'excerpts' line") from exc


def _load_dataset(directory: Path) -> list[SyntheticExcerpt]:
    """Excerpts 000, 001, ... up to the first missing input file; raises
    unless that is every excerpt the directory holds."""
    excerpts = []
    while (gap := _excerpt_file(directory, len(excerpts), "input")).exists():
        excerpts.append(SyntheticExcerpt(*(
            _read_as(make, _excerpt_file(directory, len(excerpts), kind))
            for kind, make in zip(_EXCERPT_KINDS, (FeatureSequence, PianoRoll, PianoRoll))
        )))
    expected = _manifest_excerpt_count(directory)
    if expected is not None and expected != len(excerpts):
        raise SequenceFileError(f"{directory}: dataset.txt lists {expected} excerpts, found {len(excerpts)}"
                                + (f"; {gap} is missing" if expected > len(excerpts) else ""))
    if len(list(directory.glob("excerpt_*_input.txt"))) > len(excerpts):
        raise SequenceFileError(f"{gap} is missing")
    if not excerpts:
        raise SequenceFileError(f"no excerpt files found in {directory}")
    return excerpts


# train flag -> (TrainConfig field, report key); the bundled toy config holds the defaults
_TRAIN_FLAGS = {
    "variant": ("variant", "variant"), "loss": ("loss_kind", "loss"), "gamma": ("gamma", "gamma"),
    "lr": ("learning_rate", "learning_rate"), "momentum": ("momentum", "momentum"),
    "epochs": ("epochs", "epochs"), "seed": ("seed", "seed"), "threshold": ("threshold", "threshold"),
}
_TRAIN_DEFAULTS = toy_config(LabelVariant.COLLAPSE_STRETCH, LossKind.SOFT_ALIGNMENT)


def _cmd_train(args):
    given = [f"--{flag}" for flag in _dataset_defaults("data-seed") if hasattr(args, flag.replace("-", "_"))]
    if args.data_dir is not None and given:  # a dataset directory brings its own data
        raise ValueError(f"{', '.join(given)} not allowed with --data-dir")
    dataset = (_load_dataset(Path(args.data_dir)) if args.data_dir is not None
               else _generate_dataset(args, "data_seed"))
    # each value as its default's type: an enum member from its value
    config = TrainConfig(**{field: type(getattr(_TRAIN_DEFAULTS, field))(getattr(args, flag))
                            for flag, (field, _) in _TRAIN_FLAGS.items()})
    # Only the soft-DTW loss reads gamma. Its costs are bounded (model
    # outputs and targets lie in [0, 1]), so a float64 overflow there is gamma's.
    with _gamma_in_range(config.gamma) if config.loss_kind is LossKind.SOFT_ALIGNMENT else nullcontext():
        model, history = train(dataset, config)

    final = history[-1].report
    report = [
        ("tool_version", __version__),
        *((f"config.{key}", getattr(config, field)) for field, key in _TRAIN_FLAGS.values()),
        ("data.excerpts", len(dataset)),
        ("first_batch_loss", history[0].batch_losses[0]),
        *((f"epoch.{record.epoch}.loss", record.mean_loss) for record in history),
        *((f"final.{name}", value) for name, value in vars(final).items() if name != "threshold"),
    ]
    if args.report is not None:
        Path(args.report).write_text(_report_text(report), encoding="utf-8")
    if args.model_out is not None:
        # one row per output bin: the input weights followed by the bias
        write_sequence_file(args.model_out, np.hstack([model.weight, model.bias[:, None]]))
    return 0, report


def _cmd_eval(args):
    pred = _read_as(FeatureSequence, args.pred_file)
    ref = _read_as(PianoRoll, args.ref_file)
    report = dict(vars(evaluate(pred, ref, args.threshold)))
    return 0, [("threshold", float(report.pop("threshold"))), *report.items()]


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, defaults: dict) -> list[argparse.Action]:
    """One `--flag` per `flag -> default`, of its default's type; an enum
    default is given and parsed as its value, one of its members' values.
    Returns the flags' actions."""
    actions = []
    for flag, default in defaults.items():
        choices = [member.value for member in type(default)] if isinstance(default, Enum) else None
        value = default.value if isinstance(default, Enum) else default
        actions.append(parser.add_argument(f"--{flag}", type=type(value), default=value, choices=choices))
    return actions


def _dataset_defaults(seed_flag: str) -> dict:
    """The generator's flags, read by `_generate_dataset`, and their defaults."""
    return {seed_flag: TOY_DATASET_PARAMS["seed"],
            **{flag: TOY_DATASET_PARAMS[param] for flag, param in _GENERATOR_FLAGS.items()}}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="soft alignment cost between two sequence files")
    p_align.set_defaults(handler=_cmd_align)
    p_align.add_argument("x_file")
    p_align.add_argument("y_file")
    p_align.add_argument("--gamma", type=float, default=10.0)
    p_align.add_argument("--hard", action="store_true", help="also run classical DTW and print its path")
    p_align.add_argument("--grad", default=None, help="write the occupancy matrix to this file")

    p_grad = sub.add_parser("gradcheck", help="verify gradients against the oracle and finite differences")
    p_grad.set_defaults(handler=_cmd_gradcheck)
    _add_flags(p_grad, _GRADCHECK_FLAGS)

    p_data = sub.add_parser("datagen", help="write a synthetic dataset to a directory")
    p_data.set_defaults(handler=_cmd_datagen)
    p_data.add_argument("--out", required=True)
    _add_flags(p_data, _dataset_defaults("seed"))

    p_train = sub.add_parser("train", help="train the per-frame model and report metrics")
    p_train.set_defaults(handler=_cmd_train)
    _add_flags(p_train, {flag: getattr(_TRAIN_DEFAULTS, field) for flag, (field, _) in _TRAIN_FLAGS.items()})
    p_train.add_argument("--data-dir", default=None, help="load a datagen directory instead of generating")
    for action in _add_flags(p_train, _dataset_defaults("data-seed")):
        action.default = argparse.SUPPRESS  # absent unless given, so that _cmd_train can refuse it
    p_train.add_argument("--report", default=None, help="also write the report to this file")
    p_train.add_argument("--model-out", default=None, help="write final parameters (bias in last column)")

    p_eval = sub.add_parser("eval", help="evaluate a prediction file against a reference roll")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("pred_file")
    p_eval.add_argument("ref_file")
    p_eval.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a handler returns its report or raises, so a failed command writes no stdout
    try:
        code, report = args.handler(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_report_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
