"""Small shared numeric helpers (stable sigmoid/logit, softplus).

``sigmoid`` and ``logit`` take a plain-``math`` path for exact Python
floats, the per-label case in fusion, and the numpy path for everything
else (numpy scalars and arrays), so array callers and the simulator's
``np.float64`` draws see unchanged results. The two paths follow the
same formulas and may differ only by the rounding of ``exp``/``log``.
``sigmoid`` also has a scalar path for ``np.float64``, the simulator's
per-confidence case: it calls numpy's ``exp`` like the array path, so
it returns the array path's value bit for bit, as a Python float.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sigmoid", "logit", "softplus"]

_LOGIT_DOMAIN = "logit requires probabilities strictly inside (0, 1)"


def sigmoid(x, out=None, work=None):
    """Numerically stable logistic function, elementwise.

    For an array ``x``, ``out`` (a float64 array of its shape, not
    overlapping it) receives the result, and ``work`` (a float64 and a
    bool array of that shape) holds the intermediates, so a caller that
    passes both allocates nothing; either one left out is made here.
    """
    if type(x) is float:
        if x >= 0.0:
            return 1.0 / (1.0 + math.exp(-x))
        ex = math.exp(x)
        return ex / (1.0 + ex)
    if type(x) is np.float64:
        if x >= 0.0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    d, positive = (None, None) if work is None else work  # None: the ufunc allocates
    # min(x, -x) is -x where x >= 0 and x elsewhere, and returns a NaN
    # operand unchanged (-abs would flip its sign bit), so exp cannot
    # overflow. The numerator is then 1 where x >= 0 and e elsewhere:
    # 1 / d and e / d, each rounded once.
    np.negative(x, out=out)
    np.minimum(x, out, out=out)
    e = np.exp(out, out=out)
    d = np.add(1.0, e, out=d)
    positive = np.greater_equal(x, 0, out=positive)
    np.putmask(e, positive, 1.0)
    np.divide(e, d, out=out)
    return out if out.ndim else float(out)


def logit(p):
    """Inverse sigmoid; requires p strictly inside (0, 1)."""
    if type(p) is float:
        if p <= 0.0 or p >= 1.0:
            raise ValueError(_LOGIT_DOMAIN)
        return math.log(p) - math.log1p(-p)
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError(_LOGIT_DOMAIN)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    out = np.logaddexp(0.0, x)
    return out if out.ndim else float(out)
