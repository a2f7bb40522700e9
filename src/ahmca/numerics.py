"""Activations, a row scatter, a finiteness check and a central-difference
gradient checker.

Arrays are plain numpy ndarrays: float32 during training, float64 inside
gradient checks (central differences are unreliable at single precision).
NaN/Inf is an error at operation boundaries, never silently propagated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NonFiniteError

_STEP, _FLOOR = 1e-5, 1e-8     # grad_check's central-difference step and denominator floor


def check_finite(x, what="array"):
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{what} contains NaN/Inf")
    return x


def sigmoid(x, out=None):
    """Logistic function in its tanh form, which saturates without overflow.
    The result is written into out (which may be x itself) when given, else
    into a new array, and returned.  The dtype the ufuncs compute in is
    out's, so out should have x's result dtype (float32 for float32 x);
    then sigmoid(x, out=) equals sigmoid(x) bit for bit."""
    if out is None:
        x = np.asarray(x)
        out = np.empty(x.shape, np.result_type(x, 0.5))
    np.multiply(x, 0.5, out)
    np.tanh(out, out)
    np.add(out, 1, out)
    return np.multiply(out, 0.5, out)


def scatter_rows(out, rows, vals):
    """np.add.at(out, rows, vals) for a C-order matrix out: vals[i] is added
    into row rows[i].  It goes through flat indices, numpy's fast 1-D path
    (3-4x the 2-D one), and each element takes its additions in the
    same order as in the 2-D row scatter, so the sums are the same bits."""
    k = out.shape[1]
    np.add.at(out.reshape(-1), (rows[:, None] * k + np.arange(k)).reshape(-1), vals.reshape(-1))


def relu(x):
    return np.maximum(np.asarray(x), 0)


@dataclass(frozen=True)
class GradReport:
    max_rel_error: dict      # parameter-group name -> worst relative error
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e < self.tolerance for e in self.max_rel_error.values())

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values()) if self.max_rel_error else 0.0


def grad_check(f, params, tolerance=1e-3) -> GradReport:
    """Compare analytic gradients of f against central differences of step _STEP.

    f(params) must return (loss, grads) where grads maps each group name in
    params to an array of matching shape.  params are promoted to float64.
    Relative error per element is |ga - gn| / max(|ga|, |gn|, _FLOOR).
    """
    params = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    loss, grads = f(params)
    if not np.isfinite(loss):
        raise NonFiniteError("loss is not finite at the check point")
    report = {}
    for name, p in params.items():
        ga = check_finite(np.asarray(grads[name], dtype=np.float64), f"gradient {name}")
        if ga.shape != p.shape:
            raise DimMismatchError(f"gradient {name} shape {ga.shape} != {p.shape}")
        worst = 0.0
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + _STEP
            lp, _ = f(params)
            p[idx] = orig - _STEP
            lm, _ = f(params)
            p[idx] = orig
            gn = (lp - lm) / (2 * _STEP)
            denom = max(abs(ga[idx]), abs(gn), _FLOOR)
            worst = max(worst, abs(ga[idx] - gn) / denom)
        report[name] = worst
    return GradReport(max_rel_error=report, tolerance=tolerance)
