"""Finite-alphabet probability containers and exact information measures.

All information quantities are reported in bits (base-2 logarithms), with the
0*log(0) = 0 convention applied entrywise.  Probabilities below ``ZERO_EPS``
are treated as exact zeros when testing absolute continuity, so floating-point
dust cannot produce spurious infinite divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = float(np.log(2.0))

# Below this a probability counts as an exact zero.
ZERO_EPS = 1e-15

# Constructors renormalize sums within this deviation from 1, reject beyond.
SUM_SLACK = 1e-6

# Sums already this close to 1 are left untouched: renormalizing by ulp-level
# factors would destroy exact mirror symmetry of channel constructions.
NORM_SKIP = 1e-12


def _prob_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array of probabilities, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty probability array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite")
    if np.any(arr < 0):
        raise ValueError("probabilities must be non-negative")
    return arr


def _normalized(arr: np.ndarray, axis: int | None, reject: str) -> np.ndarray:
    """``arr`` divided in place by its total (axis None) or row totals (axis 1) off 1 by
    more than NORM_SKIP; beyond SUM_SLACK, ValueError(reject) with total, off and slack."""
    totals = arr.sum(axis=axis, keepdims=True)
    off = np.abs(totals - 1.0)
    worst = off.max()
    if worst > SUM_SLACK:
        raise ValueError(reject.format(total=totals.flat[off.argmax()], off=float(worst),
                                       slack=SUM_SLACK))
    if worst > NORM_SKIP:
        np.divide(arr, totals, out=arr, where=off > NORM_SKIP)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over an indexed finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _normalized(_prob_array(self.probs, 1), None,
                          "pmf sums to {total!r}, outside the {slack} slack")
        object.__setattr__(self, "probs", _frozen(arr))

    def __len__(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, size: int) -> "Pmf":
        return cls(np.full(size, 1.0 / size))


@dataclass(frozen=True)
class ConditionalDist:
    """Row-stochastic matrix; row i is the distribution given conditioning symbol i."""

    rows: np.ndarray

    def __post_init__(self):
        arr = _normalized(_prob_array(self.rows, 2), 1,
                          "conditional rows deviate from 1 by up to {off!r}")
        object.__setattr__(self, "rows", _frozen(arr))

    @property
    def num_conditions(self) -> int:
        return self.rows.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class JointXY:
    """Joint distribution p(x, y): rows index the source x, columns the observation y."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _normalized(_prob_array(self.matrix, 2), None,
                          "joint sums to {total!r}, outside the {slack} slack")
        object.__setattr__(self, "matrix", _frozen(arr))

    @classmethod
    def from_channel(cls, prior: Pmf, transition: ConditionalDist) -> "JointXY":
        if len(prior) != transition.num_conditions:
            raise ValueError("prior length does not match number of channel inputs")
        return cls(prior.probs[:, None] * transition.rows)

    @property
    def num_x(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_y(self) -> int:
        return self.matrix.shape[1]

    def x_marginal(self) -> Pmf:
        return Pmf(self.matrix.sum(axis=1))

    def y_marginal(self) -> Pmf:
        return Pmf(self.matrix.sum(axis=0))


def _quantizer_rows(j: JointXY, quantizer) -> np.ndarray:
    """The p(z|y) rows of a Quantizer, a ConditionalDist or a raw row-stochastic
    array, which must map the joint's observation alphabet."""
    if hasattr(quantizer, "mapping"):
        quantizer = quantizer.mapping
    if not isinstance(quantizer, ConditionalDist):
        quantizer = ConditionalDist(quantizer)
    rows = quantizer.rows
    if rows.shape[0] != j.num_y:
        raise ValueError(f"quantizer input alphabet {rows.shape[0]} does not match |Y| = {j.num_y}")
    return rows


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p entrywise in nats: 0 where p == 0, NaN where p < 0 or NaN.

    log is the C library's (math.log), so the bits are those of
    scipy.special.xlogy(p, p); numpy's vectorized log can differ in the last bit.
    """
    terms = [v * math.log(v) if v > 0 else 0.0 if v == 0 else math.nan
             for v in p.ravel().tolist()]
    return np.fromiter(terms, float, p.size).reshape(p.shape)


def entropy(p: Pmf) -> float:
    """Shannon entropy of p in bits."""
    return max(0.0, float(-_xlogx(p.probs).sum() / LN2))


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """D(p || q) in bits; +inf when q lacks mass somewhere p has it."""
    if len(p) != len(q):
        raise ValueError(f"alphabet mismatch: {len(p)} vs {len(q)}")
    pv, qv = p.probs, q.probs
    support = pv > ZERO_EPS
    if np.any(qv[support] <= ZERO_EPS):
        return float("inf")
    ps = pv[support]
    qs = qv[support]
    return max(0.0, float(np.sum(ps * (np.log(ps) - np.log(qs))) / LN2))


def mutual_information(j: JointXY) -> float:
    """I(x; y) of the joint, in bits."""
    m = j.matrix
    with np.errstate(divide="ignore"):
        log_px = np.log(m.sum(axis=1))
        log_py = np.log(m.sum(axis=0))
    xi, yi = np.nonzero(m > 0)   # marginal logs are finite wherever m > 0
    vals = m[xi, yi]
    total = float(np.sum(vals * (np.log(vals) - log_px[xi] - log_py[yi])))
    return max(0.0, total / LN2)


def push_through_quantizer(j: JointXY, quantizer) -> JointXY:
    """Joint p(x, z) after mapping the observation through p(z|y)."""
    return JointXY(j.matrix @ _quantizer_rows(j, quantizer))
