"""Desk-scale training harness around the soft alignment loss.

A single affine-plus-sigmoid per-frame model stands in for a feature
network: 72 outputs per frame, explicit parameter gradients, everything
deterministic given a seed. The soft alignment loss is chained by hand:
occupancy matrix -> local-cost gradients -> sigmoid -> affine parameters.
Inputs are synthetic overtone spectra so the whole suite runs in seconds.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .alignment import _check_gamma, _costs_and_gradients
from .alignment import _backward_fill, _forward_fill  # unused: perfbench/spans.py wraps them here
from .core import (DimensionMismatchError, FeatureSequence, LengthMismatchError, PianoRoll, PITCH_COUNT,
                   _owned_sequence)
from .cost import CostKind, build_cost_matrix
from .metrics import DEFAULT_THRESHOLD, EvalReport, Reference, evaluate, prepare_reference
from .targets import LabelVariant, apply_overtones, make_variant


class ConfigError(ValueError):
    """Raised for invalid or inconsistent training configurations."""


class LossKind(Enum):
    SOFT_ALIGNMENT = "softdtw"
    PER_FRAME_L2 = "l2"
    PER_FRAME_CE = "ce"


@dataclass
class LinearModel:
    """Per-frame affine map into 72 sigmoid outputs."""

    weight: np.ndarray  # (72, d_in)
    bias: np.ndarray  # (72,)

    @classmethod
    def initialize(cls, d_in: int, rng: np.random.Generator, scale: float = 0.01) -> LinearModel:
        return cls(weight=scale * rng.standard_normal((PITCH_COUNT, d_in)), bias=np.zeros(PITCH_COUNT))

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array nothing else reads, computed in place and returned."""
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without a masked
    # pass: e^-|x| is one of the two exponentials and the numerator is 1 or it.
    ez = np.abs(x)
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    np.greater_equal(x, 0.0, out=x)
    np.maximum(x, ez, out=x)
    ez += 1.0
    x /= ez
    return x


def model_forward(model: LinearModel, input: FeatureSequence) -> FeatureSequence:
    """Apply the model frame-wise: sigmoid(W x_n + b), output dimension 72."""
    return _owned_sequence(_concatenated_forward(model, [input]))


def _concatenated_forward(
    model: LinearModel, inputs: list[FeatureSequence], out: np.ndarray | None = None
) -> np.ndarray:
    """The model applied to several inputs, as one concatenated frame array.

    Each input's matrix product goes into its own rows, so it keeps the
    shape and the bits of a forward pass over that input alone; the bias
    add and the sigmoid then run once over all rows. The array is `out`
    when given (a writable float64 array of that shape), else a new one.
    """
    shape = (sum(len(x) for x in inputs), PITCH_COUNT)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
    start = 0
    for x in inputs:
        if x.dim != model.d_in:
            raise DimensionMismatchError(f"input dimension {x.dim} != model dimension {model.d_in}")
        np.matmul(x.frames, model.weight.T, out=out[start : start + len(x)])
        start += len(x)
    out += model.bias
    return _sigmoid(out)


@dataclass
class LossNormalizer:
    """Divides losses by the raw loss of the first batch it sees.

    The reference freezes after first use, so the first normalized loss is
    exactly 1 and the value range stays comparable across configurations.
    A first loss that is not finite and positive (a perfect model, or a
    soft-DTW loss negative at large gamma) sets the reference to 1, leaving
    every loss unnormalized. A given reference must be finite and positive.
    """

    reference: float | None = None

    def __setattr__(self, name: str, value) -> None:  # construction assigns through it too
        if name == "reference" and value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"reference must be a finite positive number, got {value!r}")
        super().__setattr__(name, value)

    def normalize(self, raw_loss: float) -> float:
        if self.reference is None:
            self.reference = raw_loss if 0.0 < raw_loss < math.inf else 1.0
        return raw_loss / self.reference


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    gamma: float = 10.0
    momentum: float = 0.0
    batch_excerpts: int = 1
    seed: int = 0
    variant: LabelVariant = LabelVariant.STRONG
    loss_kind: LossKind = LossKind.SOFT_ALIGNMENT
    threshold: float = DEFAULT_THRESHOLD


@dataclass(frozen=True)
class SyntheticExcerpt:
    """One training pair: input features, strongly aligned roll, score roll.

    The strong roll has one frame per input frame; the score roll carries
    the same sequence of distinct chords with independently drawn
    durations (a tempo-warped rendition of the same notes).
    """

    input: FeatureSequence
    strong_target: PianoRoll
    score_target: PianoRoll


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    batch_losses: list[float]
    mean_loss: float
    report: EvalReport


def softdtw_loss_and_grads(
    model: LinearModel,
    input: FeatureSequence | Sequence[FeatureSequence],
    target: FeatureSequence | PianoRoll | Sequence[FeatureSequence | PianoRoll],
    gamma: float,
    normalizer: LossNormalizer,
    *,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Normalized soft alignment loss and its parameter gradients.

    Builds the squared-Euclidean cost matrix between the model output and
    the target, runs the forward and gradient dynamic programs, and chains
    d loss / d C(n, m) through the cost and the sigmoid into (dW, db).

    Given equally long sequences of inputs and targets, the loss is the
    normalized sum of the excerpts' raw losses, and both dynamic programs
    run once over a stack of all the excerpts' lattices; the results equal
    those of summing single-excerpt calls in order. A single sequence on
    one side and a batch on the other raises ValueError before any work.

    `out`, a writable float64 array with one row per input frame and 72
    columns, receives the model outputs when given; the call reads them
    through read-only views and keeps none of them.
    """
    g = _check_gamma(gamma)
    if isinstance(input, FeatureSequence) != isinstance(target, FeatureSequence):
        raise ValueError("softdtw_loss_and_grads needs one input with one target, or a batch of each")
    if isinstance(input, FeatureSequence):
        input, target = [input], [target]
    if not 0 < len(input) == len(target):
        raise ValueError(f"softdtw_loss_and_grads needs a non-empty batch with one target per input, "
                         f"got {len(input)} inputs and {len(target)} targets")
    frames = _concatenated_forward(model, input, out)
    rows = [0, *itertools.accumulate(map(len, input))]
    outputs = [_owned_sequence(frames[a:b]) for a, b in zip(rows, rows[1:])]
    costs = [build_cost_matrix(CostKind.SQUARED_EUCLIDEAN, z, y) for z, y in zip(outputs, target)]
    corners, occupancies = _costs_and_gradients(costs, g)
    raw = 0.0
    for corner in corners:  # left to right: sum() compensates on Python >= 3.12
        raw += corner
    loss = normalizer.normalize(raw)
    scale = 1.0 / normalizer.reference

    grad_w = np.zeros_like(model.weight)
    grad_b = np.zeros_like(model.bias)
    for x, z, y, occupancy in zip(input, outputs, target, occupancies):
        zf, yf = z.frames, y.frames
        # d loss / d z_n = sum_m E(n, m) * 2 (z_n - y_m)
        grad_z = 2.0 * (zf * occupancy.sum(axis=1)[:, None] - occupancy @ yf)
        grad_pre = grad_z * zf * (1.0 - zf) * scale
        grad_w += grad_pre.T @ x.frames
        grad_b += grad_pre.sum(axis=0)
    return loss, grad_w, grad_b


def per_frame_baseline_loss(
    model: LinearModel,
    input: FeatureSequence,
    strong_target: PianoRoll | FeatureSequence,
    kind: LossKind,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Strongly aligned per-frame loss (mean over frames and bins) and grads."""
    z = model_forward(model, input)
    zf, yf = z.frames, strong_target.frames
    if zf.shape[0] != yf.shape[0]:
        raise LengthMismatchError(f"target length {yf.shape[0]} != input length {zf.shape[0]}")
    if zf.shape[1] != yf.shape[1]:
        raise DimensionMismatchError(f"target dimension {yf.shape[1]} != output dimension {zf.shape[1]}")
    cells = zf.size
    if kind is LossKind.PER_FRAME_L2:
        diff = zf - yf
        loss = float((diff * diff).sum() / cells)
        grad_pre = (2.0 * diff / cells) * zf * (1.0 - zf)
    elif kind is LossKind.PER_FRAME_CE:
        zc = np.clip(zf, 1e-12, 1.0 - 1e-12)
        loss = float(-(yf * np.log(zc) + (1.0 - yf) * np.log(1.0 - zc)).sum() / cells)
        grad_pre = (zf - yf) / cells  # sigmoid folds into the CE gradient
    else:
        raise ConfigError(f"per-frame baseline does not support loss kind {kind!r}")
    grad_w = grad_pre.T @ input.frames
    grad_b = grad_pre.sum(axis=0)
    return loss, grad_w, grad_b


def _validate_config(dataset: list[SyntheticExcerpt], config: TrainConfig) -> None:
    if not dataset:
        raise ConfigError("dataset is empty")
    for name, kind in (("variant", LabelVariant), ("loss_kind", LossKind)):
        if not isinstance(getattr(config, name), kind):
            raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(config, name)!r}")
    _check_gamma(config.gamma)
    if not (math.isfinite(config.learning_rate) and config.learning_rate > 0.0):
        raise ConfigError("learning_rate must be positive and finite")
    if not math.isfinite(config.threshold):
        raise ConfigError("threshold must be finite")
    for name in ("epochs", "batch_excerpts"):
        try:
            if operator.index(getattr(config, name)) < 1:
                raise ConfigError(f"{name} must be >= 1")
        except TypeError:
            raise ConfigError(f"{name} must be an integer") from None
    if not 0.0 <= config.momentum < 1.0:
        raise ConfigError("momentum must lie in [0, 1)")
    dims = {e.input.dim for e in dataset}
    if len(dims) != 1:
        raise ConfigError(f"excerpts have mixed input dimensions {sorted(dims)}")
    for i, e in enumerate(dataset):
        if len(e.strong_target) != len(e.input):
            raise ConfigError(f"excerpt {i}: strong targets must have one frame per input frame, "
                              f"found {len(e.strong_target)} for {len(e.input)}")
        # Targets are piano rolls, finite by construction; the training path
        # never re-validates the costs built from the inputs.
        if not np.isfinite(e.input.frames).all():
            raise ConfigError(f"excerpt {i} has non-finite input frames")
    if config.loss_kind is not LossKind.SOFT_ALIGNMENT:
        frame_aligned = (LabelVariant.STRONG, LabelVariant.COLLAPSE_STRETCH,
                         LabelVariant.SCORE_STRETCH, LabelVariant.OVERTONE)
        if config.variant not in frame_aligned:
            raise ConfigError(
                f"per-frame loss needs a frame-aligned variant, not {config.variant.value}"
            )
        if config.loss_kind is LossKind.PER_FRAME_CE and config.variant is LabelVariant.OVERTONE:
            raise ConfigError("cross-entropy baseline needs binary targets")


def _strong_reference(dataset: list[SyntheticExcerpt], cosine_ref=None) -> Reference:
    """The concatenated strong rolls, prepared; `cosine_ref` (the excerpts'
    concatenated real-valued targets, e.g. overtones) replaces them for the cosine."""
    rolls = PianoRoll(np.concatenate([e.strong_target.frames for e in dataset]))
    return prepare_reference(rolls, cosine_ref)


def evaluate_model(
    model: LinearModel,
    dataset: list[SyntheticExcerpt],
    threshold: float,
    reference: Reference,
    out: np.ndarray | None = None,
) -> EvalReport:
    """Evaluate predictions against the strongly aligned annotations.

    Excerpts are concatenated (micro-averaging). `reference` is the
    `prepare_reference` of the concatenated strong rolls, which `train`
    builds once per run. Raises TypeError for anything but a prepared
    Reference (a sequence would be thresholded as its own reference), and
    ValueError for an empty dataset. `out`, a writable float64 array with
    one row per frame of the dataset and 72 columns, receives the
    predictions when given; they are read through a read-only view that
    does not outlive the call.
    """
    if not dataset:
        raise ValueError("evaluate_model needs a non-empty dataset")
    if not isinstance(reference, Reference):
        raise TypeError(f"reference must be a prepared Reference, not {type(reference).__name__}")
    preds = _owned_sequence(_concatenated_forward(model, [e.input for e in dataset], out).view())
    return evaluate(preds, reference, threshold)


def train(
    dataset: list[SyntheticExcerpt], config: TrainConfig
) -> tuple[LinearModel, list[EpochRecord]]:
    """Gradient-descent training loop, deterministic given config.seed.

    One batch is `batch_excerpts` consecutive excerpt pairs; their raw
    losses and gradients are averaged, normalized by the first batch's raw
    loss, and applied with (optional momentum) gradient descent. A
    soft-DTW batch runs its dynamic programs once, over a stack of its
    excerpts' lattices. Every epoch records the normalized batch losses,
    their mean, and an evaluation against the strongly aligned annotations.
    Raises FloatingPointError, naming the epoch and batch, as soon as a
    batch loss or the updated parameters are not finite.
    """
    _validate_config(dataset, config)
    rng = np.random.default_rng(config.seed)
    model = LinearModel.initialize(dataset[0].input.dim, rng)
    targets = [
        make_variant(config.variant, strong_roll=e.strong_target, score_roll=e.score_target,
                     input_len=len(e.input))
        for e in dataset
    ]
    normalizer = LossNormalizer()
    vel_w = np.zeros_like(model.weight)
    vel_b = np.zeros_like(model.bias)
    # Excerpt i's frames are rows first_row[i]:first_row[i + 1] of the run's
    # concatenated inputs, strong rolls and overtone targets alike.
    first_row = [0, *itertools.accumulate(len(e.input) for e in dataset)]
    cosine_ref = None
    if config.variant is LabelVariant.OVERTONE:
        # One read-only copy of the real-valued targets: the loss reads row
        # views of it, evaluation the whole as its cosine reference.
        cosine_ref = _owned_sequence(np.concatenate([t.frames for t in targets]))
        targets = [_owned_sequence(cosine_ref.frames[a:b]) for a, b in zip(first_row, first_row[1:])]
    reference = _strong_reference(dataset, cosine_ref)
    # One prediction buffer for the run: each soft-DTW step writes its
    # batch's outputs into that batch's rows, each evaluation all of them.
    buffer = np.empty(reference.shape)

    history: list[EpochRecord] = []
    for epoch in range(config.epochs):
        batch_losses: list[float] = []
        for batch, start in enumerate(range(0, len(dataset), config.batch_excerpts)):
            inputs = [e.input for e in dataset[start : start + config.batch_excerpts]]
            batch_targets = targets[start : start + config.batch_excerpts]
            if config.loss_kind is LossKind.SOFT_ALIGNMENT:
                # normalizer applied after batch averaging; use raw here
                raw_sum, gw, gb = softdtw_loss_and_grads(
                    model, inputs, batch_targets, config.gamma, LossNormalizer(reference=1.0),
                    out=buffer[first_row[start] : first_row[start + len(inputs)]],
                )
            else:
                raw_sum = 0.0
                gw = np.zeros_like(model.weight)
                gb = np.zeros_like(model.bias)
                for x, target in zip(inputs, batch_targets):
                    raw, dw, db = per_frame_baseline_loss(model, x, target, config.loss_kind)
                    raw_sum += raw
                    gw += dw
                    gb += db
            k = len(inputs)
            loss = normalizer.normalize(raw_sum / k)
            scale = 1.0 / (normalizer.reference * k)
            vel_w = config.momentum * vel_w - config.learning_rate * scale * gw
            vel_b = config.momentum * vel_b - config.learning_rate * scale * gb
            if not math.isfinite(loss):
                raise FloatingPointError(f"training diverged at epoch {epoch}, batch {batch}: "
                                         f"loss {loss!r}")
            model.weight = model.weight + vel_w
            model.bias = model.bias + vel_b
            if not (np.isfinite(model.weight).all() and np.isfinite(model.bias).all()):
                raise FloatingPointError(f"training diverged at epoch {epoch}, batch {batch}: "
                                         "the updated weight or bias is not finite")
            batch_losses.append(loss)
        report = evaluate_model(model, dataset, config.threshold, reference, buffer)
        history.append(
            EpochRecord(
                epoch=epoch,
                batch_losses=batch_losses,
                mean_loss=float(np.mean(batch_losses)),
                report=report,
            )
        )
    return model, history


# Bundled desk-scale experiment: small enough to train in seconds, large
# enough that the label-variant ordering (collapsed targets fail, collapsed
# and stretched targets track the strongly aligned baselines) is stable.
TOY_DATASET_PARAMS = dict(seed=17, excerpt_count=6, frames=60, polyphony=3, noise_level=0.05)


def toy_dataset() -> list[SyntheticExcerpt]:
    """The bundled synthetic training set used by the experiment scripts."""
    return generate_synthetic_dataset(**TOY_DATASET_PARAMS)


def toy_config(variant: LabelVariant, loss_kind: LossKind) -> TrainConfig:
    """Bundled hyperparameters for one toy run; also the defaults of `softalign train`."""
    return TrainConfig(
        learning_rate=2.0, epochs=70, gamma=10.0, momentum=0.9, seed=1,
        variant=variant, loss_kind=loss_kind,
    )


# Range of chord-run durations in generated rolls, in frames, inclusive.
MIN_RUN, MAX_RUN = 4, 9


def generate_synthetic_dataset(
    seed: int,
    excerpt_count: int,
    frames: int,
    polyphony: int,
    noise_level: float,
) -> list[SyntheticExcerpt]:
    """Random note-like excerpts with strongly aligned and score-like rolls.

    Each strong roll is a sequence of chord runs (distinct adjacent
    chords) drawn MIN_RUN to MAX_RUN frames long; the input is its overtone
    expansion plus additive Gaussian noise. The score roll repeats the
    same chord sequence with durations redrawn from the same range, then
    trimmed to at most max(runs, round(r_i * frames)) frames, with the
    ratios r_i evenly spaced from 0.6 to 1.0 over the excerpts. Score
    tempos thus differ from the input's, and a score roll never exceeds
    the input length (keeps the stretched variants well defined).
    Raises ValueError for a noise_level whose noise overflows float64.
    """
    try:
        valid = min(map(operator.index, (excerpt_count, frames, polyphony))) >= 1
    except TypeError:
        valid = False
    if not valid or polyphony > PITCH_COUNT:
        raise ValueError("invalid generator parameters")
    if not (math.isfinite(noise_level) and noise_level >= 0.0):
        raise ValueError("noise_level must be finite and >= 0")
    rng = np.random.default_rng(seed)
    excerpts = []
    for ratio in np.linspace(0.6, 1.0, excerpt_count):
        # The chord runs, each a chord unlike the one before, until they cover
        # `frames`; the last starts inside the roll, so every chord shows in it.
        chords, runs, covered = [], [], 0
        while covered < frames:
            runs.append(int(rng.integers(MIN_RUN, MAX_RUN + 1)))
            covered += runs[-1]
            while True:
                chord = np.zeros(PITCH_COUNT)  # 1 to `polyphony` distinct pitches on
                chord[rng.choice(PITCH_COUNT, size=int(rng.integers(1, polyphony + 1)), replace=False)] = 1.0
                if not chords or not np.array_equal(chord, chords[-1]):
                    break
            chords.append(chord)
        strong = PianoRoll(np.repeat(chords, runs, axis=0)[:frames])

        durs = rng.integers(MIN_RUN, MAX_RUN + 1, size=len(chords)).astype(int)
        score_len = max(len(chords), round(ratio * frames))
        while durs.sum() > score_len:
            durs[int(np.argmax(durs))] -= 1
        score = PianoRoll(np.repeat(chords, durs, axis=0))

        clean = apply_overtones(strong).frames
        with np.errstate(over="ignore"):  # refused just below, under any warning filter
            noisy = clean + noise_level * rng.standard_normal(clean.shape)
        if not np.isfinite(noisy).all():
            raise ValueError(f"noise_level {noise_level!r} overflows float64 inputs")
        excerpts.append(
            SyntheticExcerpt(
                input=FeatureSequence(noisy), strong_target=strong, score_target=score
            )
        )
    return excerpts
