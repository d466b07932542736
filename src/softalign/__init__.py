"""Differentiable sequence alignment as a loss for weakly aligned training."""

__version__ = "0.1.0"

from .core import (
    PITCH_COUNT,
    DimensionMismatchError,
    EmptySequenceError,
    FeatureSequence,
    LengthMismatchError,
    NonFiniteCostError,
    NotBinaryError,
    PianoRoll,
    RaggedRowsError,
    WrongWidthError,
)
from .alignment import (
    SoftDtwResult,
    TooManyPathsError,
    brute_force_softdtw,
    classical_dtw,
    path_count,
    softdtw_forward,
    softdtw_gradient,
)
from .cost import CostKind, build_cost_matrix
from .targets import (
    LabelVariant,
    ShrinkNotSupportedError,
    apply_overtones,
    collapse_durations,
    make_variant,
    stretch_to_length,
)
from .metrics import (
    EvalReport,
    Reference,
    average_precision,
    cosine_similarity,
    evaluate,
    prepare_reference,
    threshold_metrics,
)
from .training import (
    ConfigError,
    EpochRecord,
    LinearModel,
    LossKind,
    LossNormalizer,
    SyntheticExcerpt,
    TrainConfig,
    evaluate_model,
    generate_synthetic_dataset,
    model_forward,
    per_frame_baseline_loss,
    softdtw_loss_and_grads,
    toy_config,
    toy_dataset,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
