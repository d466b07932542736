"""Runtime span wrappers around the package's layer boundaries.

The tracer replaces module (or class) attributes with timing wrappers while
it is installed and restores them afterwards; no program file changes. A
wrapper sits on the name the caller resolves at call time, e.g.
`softalign.training._forward_fill`, because `training` imported that name
into its own namespace. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span fields, kept as a list per span so recording stays cheap.
NAME, START, END, PARENT, REQUEST, CHILD, COUNTS = range(7)


def _lattice(c, *_args, **_kwargs) -> dict:
    shape = np.shape(c)
    return {"cells": int(np.prod(shape)), "diagonals": int(shape[-2] + shape[-1] - 1)}


def _cost_build(_fn, x, y, *_args, **_kwargs) -> dict:
    # one squared difference per (frame of x, frame of y, feature) element
    return {"elements": len(x) * len(y) * x.dim}


def _frames(_model, seq, *_args, **_kwargs) -> dict:
    return {"frames": len(seq)}


def _eval_cells(pred, *_args, **_kwargs) -> dict:
    return {"cells": int(np.size(pred.frames))}


def targets(mods) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, counter) for every wrapped call site.

    `mods` holds the imported package modules. A name mapped from several
    owners gets one span per call, whichever owner the call went through.
    """
    t, a, m, c = mods.training, mods.alignment, mods.metrics, mods.core
    return [
        ("alignment.forward", t, "_forward_fill", _lattice),
        ("alignment.forward", a, "_forward_fill", _lattice),
        ("alignment.backward", t, "_backward_fill", _lattice),
        ("alignment.backward", a, "_backward_fill", _lattice),
        ("alignment.hard", a, "classical_dtw", _lattice),
        ("cost.build", t, "build_cost_matrix", _cost_build),
        ("cost.build", mods.cost, "build_cost_matrix", _cost_build),
        ("core.validate", c.FeatureSequence, "__post_init__", None),
        ("core.validate", c.PianoRoll, "__post_init__", None),
        ("core.validate", a, "as_cost_matrix", None),
        ("targets.make_variant", t, "make_variant", None),
        ("training.model_forward", t, "model_forward", _frames),
        ("training.loss_and_grads", t, "softdtw_loss_and_grads", None),
        ("training.per_frame_loss", t, "per_frame_baseline_loss", None),
        ("training.train", t, "train", None),
        ("training.evaluate_model", t, "evaluate_model", None),
        ("metrics.evaluate", t, "evaluate", _eval_cells),
        ("metrics.average_precision", m, "average_precision", None),
        ("metrics.threshold_metrics", m, "threshold_metrics", None),
        ("metrics.cosine_similarity", m, "cosine_similarity", None),
    ]


@contextmanager
def patched(replacements, absent: list[str] | None = None):
    """Set `owner.attr = make(original)` for each (owner, attr, make) in a block.

    A target that no longer exists (renamed or removed by a later change)
    is skipped and its label added to `absent`, so the run goes on.
    """
    saved = []
    for owner, attr, make in replacements:
        fn = owner.__dict__.get(attr)
        if fn is None:
            label = f"{owner.__name__}.{attr}"
            if absent is not None and label not in absent:
                absent.append(label)
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))
    try:
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


class Tracer:
    """Records nested spans for the wrapped calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            counts = counter(*args, **kwargs) if counter is not None else None
            span = [name, 0.0, 0.0, parent, self.request, 0.0, counts]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span[START], span[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD] += end - start

        return wrapper

    def installed(self, mods):
        """Wrap every target of `targets(mods)` for the duration of a block."""
        return patched(
            [(owner, attr, lambda fn, name=name, counter=counter: self._wrap(name, fn, counter))
             for name, owner, attr, counter in targets(mods)],
            self.absent,
        )

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per span name over spans[first:last]: calls, self time and counts."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans[first:last]:
            agg = out[span[NAME]]
            agg["calls"] += 1
            agg["self_s"] += span[END] - span[START] - span[CHILD]
            for key, value in (span[COUNTS] or {}).items():
                agg[key] += value
        return out

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                    "request": s[REQUEST], "self_s": s[END] - s[START] - s[CHILD],
                    "counts": s[COUNTS] or {},
                }) + "\n")
