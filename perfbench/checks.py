"""Output checks behind the benchmark's `failed` count.

Every check returns a list of failure messages; an empty list means the
output passed. The checks take outputs and inputs as plain values, so the
self-tests can feed them deliberately wrong results.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

CORNER_TOL = 1e-9
FD_STEP = 1e-4
FD_TOL = 1e-5  # the acceptance suite's finite-difference tolerance
PARAM_FD_STEP = 1e-5
PARAM_FD_TOL = 1e-4  # the acceptance suite's parameter-gradient tolerance
ORACLE_TOL = 1e-9


def rel_err(candidate: float, reference: float) -> float:
    return abs(candidate - reference) / max(abs(reference), 1e-300)


def occupancy(e: np.ndarray, shape: tuple[int, int]) -> list[str]:
    """Range, corner and row/column-coverage invariants of a gradient."""
    e = np.asarray(e)
    if e.shape != shape:
        return [f"occupancy shape {e.shape} != {shape}"]
    bad = []
    if not np.all(np.isfinite(e)) or e.min() < 0.0 or e.max() > 1.0:
        bad.append("occupancy outside [0, 1]")
    if abs(e[0, 0] - 1.0) > CORNER_TOL or abs(e[-1, -1] - 1.0) > CORNER_TOL:
        bad.append(f"corners {float(e[0, 0])!r}, {float(e[-1, -1])!r} are not 1")
    if e.sum(axis=1).min() < 1.0 - CORNER_TOL or e.sum(axis=0).min() < 1.0 - CORNER_TOL:
        bad.append("a row or column of the occupancy sums below 1")
    return bad


def directional_fd(forward, c: np.ndarray, e: np.ndarray, rng: np.random.Generator) -> list[str]:
    """One central difference of the soft cost along a random direction.

    The direction has non-negative entries, so <E, V> cannot cancel to zero
    and the relative error stays meaningful. `forward(c)` returns the cost.
    """
    v = rng.random(c.shape)
    fd = (forward(c + FD_STEP * v) - forward(c - FD_STEP * v)) / (2.0 * FD_STEP)
    err = rel_err(fd, float(np.vdot(e, v)))
    return [] if err <= FD_TOL else [f"directional finite difference rel err {err:.2e} > {FD_TOL}"]


def hard_path(c: np.ndarray, cost: float, path, soft_cost: float) -> list[str]:
    """Hard-DTW result: soft <= hard, monotone full path, path sum = cost."""
    n, m = c.shape
    bad = []
    if not soft_cost <= cost:
        bad.append(f"soft cost {soft_cost!r} exceeds hard cost {cost!r}")
    p = np.asarray(path, dtype=np.int64).reshape(-1, 2)
    if len(p) == 0 or tuple(p[0]) != (0, 0) or tuple(p[-1]) != (n - 1, m - 1):
        return bad + ["path does not run from (0, 0) to (N-1, M-1)"]
    steps = np.diff(p, axis=0)
    if not np.all((steps >= 0) & (steps <= 1)) or not np.all(steps.sum(axis=1) >= 1):
        bad.append("path is not a monotone sequence of unit steps")
    total = math.fsum(c[p[:, 0], p[:, 1]])
    if rel_err(total, cost) > 1e-12:
        bad.append(f"path cost {total!r} != returned cost {cost!r}")
    return bad


def oracle(forward, gradient, brute, rng: np.random.Generator, cases: int) -> list[list[str]]:
    """Compare the DP cost and gradient with path enumeration on small lattices."""
    results = []
    for _ in range(cases):
        n, m = (int(k) for k in rng.integers(1, 8, size=2))
        c = rng.random((n, m)) * 4.0
        gamma = float(rng.choice([0.1, 1.0, 10.0]))
        ref_cost, ref_grad = brute(c, gamma)
        cost, grad = forward(c, gamma), gradient(c, gamma)
        bad = []
        if rel_err(cost, ref_cost) > ORACLE_TOL:
            bad.append(f"{n}x{m} gamma {gamma}: cost differs from the oracle")
        if np.abs(grad - ref_grad).max() > ORACLE_TOL * max(1.0, np.abs(ref_grad).max()):
            bad.append(f"{n}x{m} gamma {gamma}: gradient differs from the oracle")
        results.append(bad)
    return results


def training_run(model, history) -> list[str]:
    """Finite losses and parameters; every report value finite and in [0, 1]."""
    bad = []
    if not (np.all(np.isfinite(model.weight)) and np.all(np.isfinite(model.bias))):
        bad.append("non-finite model parameters")
    for record in history:
        if not all(math.isfinite(x) for x in [record.mean_loss, *record.batch_losses]):
            bad.append(f"epoch {record.epoch}: non-finite loss")
        values = list(vars(record.report).values())
        if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in values):
            bad.append(f"epoch {record.epoch}: report value outside [0, 1]")
    return bad


def parameter_fd(loss_and_grads, weight: np.ndarray, bias: np.ndarray, rng) -> list[str]:
    """One central difference of a training loss along a parameter direction.

    `loss_and_grads(weight, bias)` returns (loss, grad_w, grad_b). The
    direction follows the sign of the gradient with random magnitudes, so
    the directional derivative cannot cancel to zero.
    """
    _, gw, gb = loss_and_grads(weight, bias)
    vw = np.abs(rng.standard_normal(gw.shape)) * np.sign(gw)
    vb = np.abs(rng.standard_normal(gb.shape)) * np.sign(gb)
    scale = 1.0 / math.sqrt(np.vdot(vw, vw) + np.vdot(vb, vb))
    vw, vb = vw * scale, vb * scale
    hi = loss_and_grads(weight + PARAM_FD_STEP * vw, bias + PARAM_FD_STEP * vb)[0]
    lo = loss_and_grads(weight - PARAM_FD_STEP * vw, bias - PARAM_FD_STEP * vb)[0]
    fd = (hi - lo) / (2.0 * PARAM_FD_STEP)
    err = rel_err(fd, float(np.vdot(gw, vw) + np.vdot(gb, vb)))
    return [] if err <= PARAM_FD_TOL else [f"parameter finite difference rel err {err:.2e} > {PARAM_FD_TOL}"]


def digest(value) -> str:
    """Hash of every number in an output, for bit-identity comparisons."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif isinstance(x, (int, float, np.floating, np.integer)):
            h.update(np.float64(x).tobytes())
        elif hasattr(x, "__dict__"):
            feed(list(vars(x).values()))
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    feed(value)
    return h.hexdigest()
