"""Command-line surface: align, gradcheck, datagen, train, eval.

File format ("sequence file"): a header line `rows cols`, then one
whitespace-separated row of reals per line. Values are written with 17
significant digits so write-then-read round-trips exactly; NaN and
infinity tokens are rejected on read.

Reports are flat `key value` lines on stdout, written once the command has
succeeded. A command that fails writes nothing to stdout and one `error:`
line to stderr; `align` reports a float64 overflow as such an error.
Exit codes: 0 success, 1 usage, parse or overflow error, 2 tolerance failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (
    brute_force_softdtw,
    classical_dtw,
    path_count,
    softdtw_forward,
    softdtw_gradient,
)
from .core import DimensionMismatchError, FeatureSequence, PianoRoll
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

# EvalReport measures in the order the eval and train reports print them.
_REPORT_FIELDS = (
    "cosine_similarity", "precision", "recall", "f_measure", "accuracy", "average_precision",
)


class SequenceFileError(ValueError):
    """Raised when a sequence file cannot be parsed."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    return str(value)  # floats print as their shortest exact round-trip


def _report_text(report) -> str:
    return "".join(f"{key} {_fmt(value)}\n" for key, value in report)


def write_sequence_file(path, matrix) -> None:
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    lines = [f"{arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_sequence_file(path) -> np.ndarray:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SequenceFileError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise SequenceFileError(f"{path}: header must be 'rows cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
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


def norm_rel_err(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Max-norm relative error: ||candidate - reference||_inf / ||reference||_inf."""
    denom = float(np.abs(reference).max())
    if denom == 0.0:
        return float(np.abs(candidate - reference).max())
    return float(np.abs(candidate - reference).max() / denom)


def finite_difference_gradient(costs: np.ndarray, gamma: float, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the forward cost over every cell."""
    c = np.array(costs, dtype=np.float64)
    grad = np.empty_like(c)
    for idx in np.ndindex(c.shape):
        keep = c[idx]
        c[idx] = keep + h
        hi = softdtw_forward(c, gamma).cost
        c[idx] = keep - h
        lo = softdtw_forward(c, gamma).cost
        c[idx] = keep
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def _cmd_align(args):
    x = FeatureSequence(read_sequence_file(args.x_file))
    y = FeatureSequence(read_sequence_file(args.y_file))
    if x.dim != y.dim:
        raise DimensionMismatchError(
            f"sequence dimensions differ: {args.x_file} has {x.dim}, {args.y_file} has {y.dim}"
        )

    def finite(value):
        # finite inputs can still overflow float64 (squared differences, border sums)
        if not np.isfinite(value).all():
            raise FloatingPointError(f"float64 overflow aligning {args.x_file} with {args.y_file}")
        return value

    report = [("rows_x", len(x)), ("rows_y", len(y)), ("dim", x.dim), ("gamma", float(args.gamma))]
    with np.errstate(over="ignore", invalid="ignore"):
        costs = finite(build_cost_matrix(CostKind.SQUARED_EUCLIDEAN, x, y))
        report.append(("softdtw_cost", finite(softdtw_forward(costs, args.gamma).cost)))
        if args.hard:
            hard_cost, path = classical_dtw(costs)
            report += [("dtw_cost", finite(hard_cost)), ("dtw_path_length", len(path))]
            report += [(f"dtw_path.{k}", f"{n} {m}") for k, (n, m) in enumerate(path)]
        if args.grad is not None:
            write_sequence_file(args.grad, finite(softdtw_gradient(costs, args.gamma)))
            report.append(("grad_file", args.grad))
    return 0, report


def _cmd_gradcheck(args):
    if args.rows < 1 or args.cols < 1 or args.dim < 1 or args.trials < 1:
        raise ValueError("rows, cols, dim and trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    run_oracle = (
        path_count(args.rows, args.cols, cap=ORACLE_CHECK_PATH_LIMIT + 1)
        <= ORACLE_CHECK_PATH_LIMIT
    )
    worst_fd = 0.0
    worst_oracle_cost = 0.0
    worst_oracle_grad = 0.0
    for _ in range(args.trials):
        x = FeatureSequence(rng.standard_normal((args.rows, args.dim)))
        y = FeatureSequence(rng.standard_normal((args.cols, args.dim)))
        costs = build_cost_matrix(CostKind.SQUARED_EUCLIDEAN, x, y)
        grad = softdtw_gradient(costs, args.gamma)
        fd = finite_difference_gradient(costs, args.gamma)
        worst_fd = max(worst_fd, norm_rel_err(grad, fd))
        if run_oracle:
            oracle_cost, oracle_grad = brute_force_softdtw(costs, args.gamma)
            dp_cost = softdtw_forward(costs, args.gamma).cost
            denom = max(abs(oracle_cost), 1e-300)
            worst_oracle_cost = max(worst_oracle_cost, abs(dp_cost - oracle_cost) / denom)
            worst_oracle_grad = max(worst_oracle_grad, norm_rel_err(grad, oracle_grad))
    report = [
        ("rows", args.rows),
        ("cols", args.cols),
        ("dim", args.dim),
        ("gamma", float(args.gamma)),
        ("trials", args.trials),
        ("oracle_checked", run_oracle),
        ("max_rel_err_fd", worst_fd),
    ]
    ok = worst_fd < args.fd_tolerance
    if run_oracle:
        report += [
            ("max_rel_err_oracle_cost", worst_oracle_cost),
            ("max_rel_err_oracle_grad", worst_oracle_grad),
        ]
        ok = ok and worst_oracle_cost < args.oracle_tolerance
        ok = ok and worst_oracle_grad < args.oracle_tolerance
    report.append(("pass", ok))
    return (0 if ok else 2), report


def _dataset_paths(directory: Path, index: int) -> dict[str, Path]:
    stem = f"excerpt_{index:03d}"
    return {
        "input": directory / f"{stem}_input.txt",
        "strong": directory / f"{stem}_strong.txt",
        "score": directory / f"{stem}_score.txt",
    }


def _generate_dataset(args, seed: int) -> list[SyntheticExcerpt]:
    return generate_synthetic_dataset(
        seed=seed,
        excerpt_count=args.excerpts,
        frames=args.frames,
        polyphony=args.polyphony,
        noise_level=args.noise,
    )


def _cmd_datagen(args):
    dataset = _generate_dataset(args, args.seed)
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    for i, excerpt in enumerate(dataset):
        paths = _dataset_paths(directory, i)
        write_sequence_file(paths["input"], excerpt.input.frames)
        write_sequence_file(paths["strong"], excerpt.strong_target.frames)
        write_sequence_file(paths["score"], excerpt.score_target.frames)
    (directory / "dataset.txt").write_text(_report_text([
        ("excerpts", args.excerpts),
        ("frames", args.frames),
        ("polyphony", args.polyphony),
        ("noise_level", float(args.noise)),
        ("seed", args.seed),
    ]))
    return 0, [("out_dir", directory), ("excerpts", args.excerpts)]


def _manifest_excerpt_count(directory: Path) -> int | None:
    """Excerpt count from the `dataset.txt` that datagen writes, if present."""
    manifest = directory / "dataset.txt"
    if not manifest.exists():
        return None
    fields = {}
    for line in manifest.read_text().splitlines():
        key, _, value = line.strip().partition(" ")
        fields[key] = value.strip()
    try:
        return int(fields["excerpts"])
    except (KeyError, ValueError) as exc:
        raise SequenceFileError(f"{manifest}: missing or malformed 'excerpts' line") from exc


def _load_dataset(directory: Path) -> list[SyntheticExcerpt]:
    excerpts = []
    index = 0
    while True:
        paths = _dataset_paths(directory, index)
        if not paths["input"].exists():
            break
        excerpts.append(
            SyntheticExcerpt(
                input=FeatureSequence(read_sequence_file(paths["input"])),
                strong_target=PianoRoll(read_sequence_file(paths["strong"])),
                score_target=PianoRoll(read_sequence_file(paths["score"])),
            )
        )
        index += 1
    if not excerpts:
        raise SequenceFileError(f"no excerpt files found in {directory}")
    expected = _manifest_excerpt_count(directory)
    if expected is not None and expected != len(excerpts):
        raise SequenceFileError(
            f"{directory}: dataset.txt lists {expected} excerpts, found {len(excerpts)}"
        )
    return excerpts


def _cmd_train(args):
    if args.data_dir is not None:
        dataset = _load_dataset(Path(args.data_dir))
    else:
        dataset = _generate_dataset(args, args.data_seed)
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        gamma=args.gamma,
        momentum=args.momentum,
        seed=args.seed,
        variant=LabelVariant(args.variant),
        loss_kind=LossKind(args.loss),
        threshold=args.threshold,
    )
    model, history = train(dataset, config)

    final = history[-1].report
    report = [
        ("tool_version", __version__),
        ("config.variant", config.variant.value),
        ("config.loss", config.loss_kind.value),
        ("config.gamma", config.gamma),
        ("config.learning_rate", config.learning_rate),
        ("config.momentum", config.momentum),
        ("config.epochs", config.epochs),
        ("config.seed", config.seed),
        ("config.threshold", config.threshold),
        ("data.excerpts", len(dataset)),
        ("first_batch_loss", history[0].batch_losses[0]),
        *((f"epoch.{record.epoch}.loss", record.mean_loss) for record in history),
        *((f"final.{name}", getattr(final, name)) for name in _REPORT_FIELDS),
    ]
    if args.report is not None:
        Path(args.report).write_text(_report_text(report))
    if args.model_out is not None:
        # one row per output bin: the input weights followed by the bias
        write_sequence_file(args.model_out, np.hstack([model.weight, model.bias[:, None]]))
    return 0, report


def _cmd_eval(args):
    pred = FeatureSequence(read_sequence_file(args.pred_file))
    ref = PianoRoll(read_sequence_file(args.ref_file))
    report = evaluate(pred, ref, args.threshold)
    return 0, [
        ("threshold", float(report.threshold)),
        *((name, getattr(report, name)) for name in _REPORT_FIELDS),
    ]


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _add_dataset_flags(parser: argparse.ArgumentParser, seed_flag: str) -> None:
    """The generator's flags, read by `_generate_dataset`."""
    parser.add_argument(seed_flag, type=int, default=TOY_DATASET_PARAMS["seed"])
    parser.add_argument("--excerpts", type=int, default=TOY_DATASET_PARAMS["excerpt_count"])
    parser.add_argument("--frames", type=int, default=TOY_DATASET_PARAMS["frames"])
    parser.add_argument("--polyphony", type=int, default=TOY_DATASET_PARAMS["polyphony"])
    parser.add_argument("--noise", type=float, default=TOY_DATASET_PARAMS["noise_level"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="soft alignment cost between two sequence files")
    p_align.add_argument("x_file")
    p_align.add_argument("y_file")
    p_align.add_argument("--gamma", type=float, default=10.0)
    p_align.add_argument("--hard", action="store_true", help="also run classical DTW and print its path")
    p_align.add_argument("--grad", default=None, help="write the occupancy matrix to this file")

    p_grad = sub.add_parser("gradcheck", help="verify gradients against the oracle and finite differences")
    p_grad.add_argument("--rows", type=int, default=8)
    p_grad.add_argument("--cols", type=int, default=7)
    p_grad.add_argument("--dim", type=int, default=4)
    p_grad.add_argument("--gamma", type=float, default=1.0)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--trials", type=int, default=20)
    p_grad.add_argument("--fd-tolerance", type=float, default=1e-5)
    p_grad.add_argument("--oracle-tolerance", type=float, default=1e-9)

    p_data = sub.add_parser("datagen", help="write a synthetic dataset to a directory")
    p_data.add_argument("--out", required=True)
    _add_dataset_flags(p_data, "--seed")

    p_train = sub.add_parser("train", help="train the per-frame model and report metrics")
    toy = toy_config(LabelVariant.COLLAPSE_STRETCH, LossKind.SOFT_ALIGNMENT)
    p_train.add_argument("--variant", default=toy.variant.value, choices=[v.value for v in LabelVariant])
    p_train.add_argument("--loss", default=toy.loss_kind.value, choices=[k.value for k in LossKind])
    p_train.add_argument("--gamma", type=float, default=toy.gamma)
    p_train.add_argument("--lr", type=float, default=toy.learning_rate)
    p_train.add_argument("--momentum", type=float, default=toy.momentum)
    p_train.add_argument("--epochs", type=int, default=toy.epochs)
    p_train.add_argument("--seed", type=int, default=toy.seed)
    p_train.add_argument("--threshold", type=float, default=toy.threshold)
    p_train.add_argument("--data-dir", default=None, help="load a datagen directory instead of generating")
    _add_dataset_flags(p_train, "--data-seed")
    p_train.add_argument("--report", default=None, help="also write the report to this file")
    p_train.add_argument("--model-out", default=None, help="write final parameters (bias in last column)")

    p_eval = sub.add_parser("eval", help="evaluate a prediction file against a reference roll")
    p_eval.add_argument("pred_file")
    p_eval.add_argument("ref_file")
    p_eval.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    return parser


_HANDLERS = {
    "align": _cmd_align,
    "gradcheck": _cmd_gradcheck,
    "datagen": _cmd_datagen,
    "train": _cmd_train,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a handler returns its report or raises, so a failed command writes no stdout
    try:
        code, report = _HANDLERS[args.command](args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_report_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
