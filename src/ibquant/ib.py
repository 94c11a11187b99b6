"""Quantizer design trading compression rate I(y;z) against relevant information I(x;z).

Implements the iterative information-bottleneck fixed-point algorithm, greedy
agglomerative merging, a KL-means / rate-penalized Lloyd iteration, and a
dynamic-programming quantizer that is optimal for binary sources.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _text
from .info import (
    LN2,
    ConditionalDist,
    JointXY,
    Pmf,
    _quantizer_rows,
    _xlogx,
    mutual_information,
)

DEAD_CLUSTER_EPS = 1e-12

# Extra stop criterion for the fixed-point iteration: the objective is flat
# near a stationary mapping (changes ~ residual^2), so a pure objective
# threshold would leave the mapping residual near sqrt(tol).
MAPPING_TOL = 1e-9


@dataclass(frozen=True)
class Quantizer:
    """Mapping from an observation alphabet to a cluster alphabet, p(z|y)."""

    mapping: ConditionalDist

    @property
    def num_inputs(self) -> int:
        return self.mapping.num_conditions

    @property
    def num_clusters(self) -> int:
        return self.mapping.alphabet_size

    @property
    def labels(self) -> np.ndarray:
        """Hard cluster label per input symbol (argmax row entry)."""
        return np.argmax(self.mapping.rows, axis=1)

    @classmethod
    def from_labels(cls, labels, num_clusters: int) -> "Quantizer":
        labels = np.asarray(labels, dtype=int)
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if np.any(labels < 0) or np.any(labels >= num_clusters):
            raise ValueError("label out of range")
        rows = np.zeros((labels.shape[0], num_clusters))
        rows[np.arange(labels.shape[0]), labels] = 1.0
        return cls(ConditionalDist(rows))


@dataclass(frozen=True)
class IbDesign:
    """A designed quantizer together with its information-plane coordinates."""

    quantizer: Quantizer
    beta: float
    cluster_prior: Pmf
    cluster_posteriors: ConditionalDist
    compression_rate: float
    relevant_info: float
    objective: float
    info_loss: float
    # sweeps run and whether the stop test passed; one-pass designs: 0, True
    sweeps: int = 0
    converged: bool = True


def _information_plane(py: np.ndarray, rows: np.ndarray, pxz: np.ndarray,
                       beta: float) -> tuple[float, float, float]:
    """I(y;z), I(x;z) and the Lagrangian [I(y;z) - beta I(x;z)] / (beta + 1),
    which is -I(x;z) at beta = inf, of the mapping ``rows`` on observations
    with marginal ``py``; ``pxz`` is the joint the mapping pushes out."""
    compression = mutual_information(JointXY(py[:, None] * rows))
    relevant = mutual_information(JointXY(pxz))
    if math.isinf(beta):
        return compression, relevant, -relevant
    return compression, relevant, (compression - beta * relevant) / (beta + 1.0)


def design_from_quantizer(j: JointXY, quantizer: Quantizer, beta: float = math.inf) -> "IbDesign":
    """Evaluate a quantizer on a joint: marginals, posteriors, and information plane."""
    rows = _quantizer_rows(j, quantizer)
    py = j.matrix.sum(axis=0)
    pz = py @ rows
    pxz = j.matrix @ rows
    posts = np.empty((rows.shape[1], j.num_x))
    alive = pz >= DEAD_CLUSTER_EPS
    posts[alive] = (pxz[:, alive] / pz[alive]).T
    posts[~alive] = 1.0 / j.num_x
    compression, relevant, objective = _information_plane(py, rows, pxz, beta)
    return IbDesign(
        quantizer=quantizer,
        beta=beta,
        cluster_prior=Pmf(pz),
        cluster_posteriors=ConditionalDist(posts),
        compression_rate=compression,
        relevant_info=relevant,
        objective=objective,
        info_loss=mutual_information(j) - relevant,
    )


class _SweepData:
    """Joint columns m = p(x, y) and marginal py, with the terms every sweep reuses."""

    def __init__(self, m: np.ndarray, py: np.ndarray):
        self.m = m
        self.py = py
        self.posts = np.where(py[None, :] > 0, m / np.where(py > 0, py, 1.0),
                              1.0 / m.shape[0]).T
        self.self_term = _xlogx(self.posts).sum(axis=1)
        self.support = (self.posts > 0).astype(float)

    def kl_nats(self, cposts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pairwise D(posts_row || cposts_row) in nats; +inf where support is violated.

        ``cposts`` is (Z, X) or a stack (..., Z, X); the result is (..., Y, Z),
        written into ``out`` when given.
        """
        with np.errstate(divide="ignore"):
            log_c = np.log(cposts)
        finite_cols = np.isfinite(log_c)
        if finite_cols.all():
            cross = np.matmul(self.posts, np.swapaxes(log_c, -1, -2), out=out)
        else:
            # posts @ log_c^T is only valid where no (p > 0, c == 0) pairing
            # occurs; -inf entries in log_c flag those columns per cluster.
            cross = np.matmul(self.posts, np.swapaxes(np.where(finite_cols, log_c, 0.0), -1, -2),
                              out=out)
            violation = self.support @ np.swapaxes(~finite_cols, -1, -2).astype(float)
            cross[violation > 0] = -np.inf
        return np.subtract(self.self_term[:, None], cross, out=cross)

    def sweep(self, mapping: np.ndarray, cposts: np.ndarray, beta: float,
              out: np.ndarray | None = None):
        """Cluster priors of ``mapping`` (..., Y, Z) and the stationary mappings they induce.

        Writes the induced posteriors into ``cposts`` (..., Z, X), and the
        new mappings into ``out`` when given; dead clusters keep their
        posterior row instead of dividing by ~0.
        """
        pz = self.py @ mapping
        pxz = self.m @ mapping
        alive = pz >= DEAD_CLUSTER_EPS
        np.copyto(cposts, np.swapaxes(pxz / np.where(alive, pz, 1.0)[..., None, :], -1, -2),
                  where=alive[..., None])
        return pz, _stationary_mapping(pz, self.kl_nats(cposts, out), beta)


def _positive_mass(j: JointXY) -> tuple[np.ndarray, _SweepData]:
    """Mask of the observation symbols with mass, and their read-only sweep data."""
    cached = vars(j).get("_positive_mass")
    if cached is None:  # built once and kept on the joint, not as a field
        py = j.matrix.sum(axis=0)
        keep = py > 0   # never empty: a JointXY sums to 1
        cached = keep, _SweepData(j.matrix[:, keep], py[keep])
        for arr in (keep, *vars(cached[1]).values()):
            arr.setflags(write=False)
        object.__setattr__(j, "_positive_mass", cached)
    return cached


# exp(x) is +0.0 in IEEE double for every x below about -745.13.  numpy's exp
# is slow for arguments whose result is zero or denormal, and a masked exp
# (where=) is slower again, so the stationary mapping gathers the arguments at
# or above this cut into one contiguous array for exp and writes +0.0 for the
# rest.  In a contiguous array an element's exp bits do not depend on its
# position or neighbours, so the gather changes none.
EXP_ZERO_BELOW = -746.0


def _stationary_mapping(pz: np.ndarray, dist_nats: np.ndarray, beta: float) -> np.ndarray:
    """One stationary-condition update: rows proportional to p(z) exp(-beta D).

    Works on a mapping (Y, Z) or a stack (..., Y, Z) with priors (..., Z),
    in place: the new mapping is written over ``dist_nats``.
    """
    if beta == 0:
        dist_nats.fill(0.0)
    else:
        dist_nats *= beta
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.subtract(np.log(pz)[..., None, :], dist_nats, out=dist_nats)
    np.fmax(logw, -np.inf, out=logw)   # NaN -> -inf
    # Row maxima as elementwise maxima over the rows of each transposed slab.
    logw -= np.swapaxes(logw, -1, -2).copy().max(axis=-2)[..., None]
    live = np.flatnonzero(~(logw < EXP_ZERO_BELOW))   # NaN stays NaN
    weights = np.exp(logw.take(live))
    w = logw   # the weights replace the log-weights
    w.fill(0.0)
    w.ravel()[live] = weights
    return np.divide(w, w.sum(axis=-1, keepdims=True), out=w)


def iterative_ib(j: JointXY, num_clusters: int, beta: float,
                 init=None, max_sweeps: int = 500, tol: float = 1e-10,
                 objective_trace: list | None = None) -> IbDesign:
    """Iterative information-bottleneck fixed point for a given beta.

    Alternates the stationary mapping update p(z|y) ~ p(z) exp(-beta D(p(x|y)||p(x|z)))
    with recomputation of the cluster prior and posteriors until the Lagrangian
    stops decreasing.  ``init`` may be a Quantizer or anything accepted by
    numpy's default_rng to seed a random row-stochastic start.  Observation
    symbols with zero marginal probability are dropped before iterating.  The
    design reports the sweeps run and whether the stop test passed.
    """
    traces = None if objective_trace is None else [objective_trace]
    return _iterative_ib_runs(j, num_clusters, beta, [init], max_sweeps, tol, traces)[0]


def _iterative_ib_runs(j: JointXY, num_clusters: int, beta: float, inits,
                       max_sweeps: int = 500, tol: float = 1e-10,
                       traces: list | None = None) -> list[IbDesign]:
    """``iterative_ib`` from each start in ``inits``, run as one (R, Y, Z) stack.

    Every step of a sweep is elementwise or a per-restart matrix product, so
    each restart gets the mapping, sweeps and stop decision it gets alone.  A
    restart leaves the stack when it stops.  ``traces`` holds one objective
    list per restart.
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    keep, data = _positive_mass(j)
    mapping = np.stack([_start_mapping(j, keep, num_clusters, init) for init in inits])

    runs = mapping.shape[0]
    final = np.empty_like(mapping)
    sweeps = np.full(runs, max(max_sweeps, 0))
    converged = np.zeros(runs, dtype=bool)
    live = np.arange(runs)   # the restart of each stack slice
    traces = None if traces is None else list(traces)
    prev_obj = [None] * runs  # objective of each mapping, when already evaluated
    cposts = np.full((runs, num_clusters, j.num_x), 1.0 / j.num_x)
    new_mapping = np.empty_like(mapping)
    scratch = np.empty_like(mapping)

    def lagrangian(rows):
        return _information_plane(data.py, rows, data.m @ rows, beta)[2]

    for sweep in range(1, max_sweeps + 1):
        data.sweep(mapping, cposts, beta, out=new_mapping)
        # The stop test needs both objectives only once the mapping has settled.
        can_stop = np.zeros(live.shape[0], dtype=bool)
        if sweep > 1:
            diff = np.subtract(new_mapping, mapping, out=scratch)
            can_stop = np.abs(diff, out=diff).max(axis=(1, 2)) < MAPPING_TOL
        stop = np.zeros_like(can_stop)
        obj = [None] * live.shape[0]
        for k in np.flatnonzero(can_stop) if traces is None else range(live.shape[0]):
            obj[k] = lagrangian(new_mapping[k])
            if traces is not None:
                traces[k].append(obj[k])
            if can_stop[k]:
                if prev_obj[k] is None:
                    prev_obj[k] = lagrangian(mapping[k])
                stop[k] = prev_obj[k] - obj[k] < tol
        mapping, new_mapping, prev_obj = new_mapping, mapping, obj
        if stop.any():
            done = live[stop]
            final[done] = mapping[stop]
            sweeps[done] = sweep
            converged[done] = True
            go = ~stop
            live, mapping, cposts = live[go], mapping[go], cposts[go]
            new_mapping, scratch = new_mapping[:live.shape[0]], scratch[:live.shape[0]]
            prev_obj = [p for p, g in zip(prev_obj, go) if g]
            if traces is not None:
                traces = [t for t, g in zip(traces, go) if g]
            if not live.shape[0]:
                break
    final[live] = mapping

    designs = []
    full = np.empty((j.num_y, num_clusters))
    full[~keep] = 1.0 / num_clusters
    for r in range(runs):
        full[keep] = final[r]
        design = design_from_quantizer(j, Quantizer(ConditionalDist(full)), beta)
        designs.append(replace(design, sweeps=int(sweeps[r]), converged=bool(converged[r])))
    return designs


def _start_mapping(j: JointXY, keep: np.ndarray, num_clusters: int, init) -> np.ndarray:
    """The kept rows of a Quantizer start, or a random row-stochastic start seeded by init."""
    if isinstance(init, Quantizer):
        if init.num_inputs != j.num_y or init.num_clusters != num_clusters:
            raise ValueError("init quantizer shape mismatch")
        return init.mapping.rows[keep]
    rng = np.random.default_rng(0 if init is None else init)
    raw = rng.uniform(size=(int(keep.sum()), num_clusters))
    return raw / raw.sum(axis=1, keepdims=True)


def _merge_cost(weights: np.ndarray, posts: np.ndarray, xlogx: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
    """Exact increase of the information loss for merging clusters i in rows with each j.

    Merging clusters i and j replaces both posteriors by their weighted
    mixture; the drop in I(x;z) is w_i D(p_i||mix) + w_j D(p_j||mix).
    ``xlogx`` is ``_xlogx(posts)``.  Every entry is computed alone, so a row
    comes out the same whichever other rows are computed with it, and the
    full matrix is exactly symmetric.
    """
    wi = weights[rows, None, None]
    wj = weights[None, :, None]
    pi = posts[rows, None, :]
    pj = posts[None, :, :]
    tot = wi + wj
    with np.errstate(divide="ignore", invalid="ignore"):
        mix = np.where(tot > 0, (wi * pi + wj * pj) / np.where(tot > 0, tot, 1.0), 0.0)
        log_mix = np.where(mix > 0, np.log(np.where(mix > 0, mix, 1.0)), 0.0)
        term_i = xlogx[rows, None, :] - pi * log_mix
        term_j = xlogx[None, :, :] - pj * log_mix
    cost = (wi[..., 0] * term_i.sum(axis=2) + wj[..., 0] * term_j.sum(axis=2)) / LN2
    cost[np.arange(rows.shape[0]), rows] = np.inf
    return np.maximum(cost, 0.0)


def _drop(arr: np.ndarray, b: int, axis: int = 0) -> np.ndarray:
    """``np.delete(arr, b, axis)`` without its argument handling, which costs
    more than the copy at the sizes the merge loop sees."""
    lead = (slice(None),) * axis
    return np.concatenate((arr[lead + (slice(None, b),)], arr[lead + (slice(b + 1, None),)]),
                          axis=axis)


def agglomerative_ib(j: JointXY, num_clusters: int) -> IbDesign:
    """Greedy pairwise merging from the identity partition down to n clusters.

    Deterministic and initialization-free: each step merges the pair whose
    merge least increases the information loss, ties resolved toward the
    lexicographically smallest pair.
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    if num_clusters > j.num_y:
        raise ValueError(f"cannot use {num_clusters} clusters for {j.num_y} symbols")
    m = j.matrix
    py = m.sum(axis=0)
    weights = py.astype(float)
    cluster_posts = _SweepData(m, py).posts.copy()
    cluster_xlogx = _xlogx(cluster_posts)
    # Merging b into a < b keeps the clusters ordered by their smallest symbol.
    labels = np.arange(j.num_y)

    cost = _merge_cost(weights, cluster_posts, cluster_xlogx, np.arange(j.num_y))
    while weights.shape[0] > num_clusters:
        a, b = divmod(int(np.argmin(cost)), weights.shape[0])
        if a > b:
            a, b = b, a
        tot = weights[a] + weights[b]
        if tot > 0:
            mix = (weights[a] * cluster_posts[a] + weights[b] * cluster_posts[b]) / tot
        else:
            mix = 0.5 * (cluster_posts[a] + cluster_posts[b])
        weights[a] = tot
        cluster_posts[a] = mix
        cluster_xlogx[a] = _xlogx(mix)
        labels[labels == b] = a
        labels[labels > b] -= 1
        weights = _drop(weights, b)
        cluster_posts = _drop(cluster_posts, b)
        cluster_xlogx = _drop(cluster_xlogx, b)
        # Only pairs with cluster a change; deleting b keeps the row-major
        # order of the others, so argmin still finds the first minimum.
        cost = _drop(_drop(cost, b), b, axis=1)
        cost[a] = _merge_cost(weights, cluster_posts, cluster_xlogx, np.array([a]))[0]
        cost[:, a] = cost[a]

    quantizer = Quantizer.from_labels(labels, num_clusters)
    return design_from_quantizer(j, quantizer, math.inf)


def _kmeans_pp_seeds(data: _SweepData, n: int, rng) -> np.ndarray:
    """KL-flavoured k-means++ seeding: spread initial centroids over the posteriors."""
    posts, py = data.posts, data.py
    first = rng.choice(posts.shape[0], p=py / py.sum())
    chosen = [int(first)]
    dist = data.kl_nats(posts[[first]])[:, 0]
    dist = np.where(np.isfinite(dist), dist, 1e3)
    for _ in range(1, n):
        scores = py * np.maximum(dist, 0.0)
        total = scores.sum()
        if total <= 0:
            pick = int(rng.choice(posts.shape[0], p=py / py.sum()))
        else:
            pick = int(rng.choice(posts.shape[0], p=scores / total))
        chosen.append(pick)
        new_d = data.kl_nats(posts[[pick]])[:, 0]
        new_d = np.where(np.isfinite(new_d), new_d, 1e3)
        dist = np.minimum(dist, new_d)
    return posts[chosen].copy()


def kl_means_ib(j: JointXY, num_clusters: int, lam: float = 0.0,
                init=None, max_sweeps: int = 500,
                objective_trace: list | None = None) -> IbDesign:
    """Rate-penalized Lloyd iteration with KL distortion.

    Alternates (a) cluster representatives = probability-weighted mixtures of
    member posteriors, (b) code lengths l(z) = -log2 p(z), and (c) assignment
    of each observation symbol to the cluster minimizing distortion + lam * length.
    An empty cluster is re-seeded with the worst-cost symbol, but only when the
    steal lowers the overall objective.  lam = 0 recovers pure KL-means.  The
    design reports the sweeps run and whether the labels stopped changing.
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and non-negative, got {lam}")
    keep, data = _positive_mass(j)
    posts, py = data.posts, data.py
    ny = posts.shape[0]
    n = min(num_clusters, ny)

    rng = np.random.default_rng(0 if init is None else init)
    centroids = _kmeans_pp_seeds(data, n, rng)
    lengths = np.full(n, math.log2(n) if n > 1 else 0.0)

    def cost_of(cent, lens):
        """KL distortion plus lam * code length of every symbol at every cluster, in bits."""
        cost = data.kl_nats(cent) / LN2
        if lam > 0:
            cost = cost + lam * lens[None, :]
        return cost

    def refreshed_cost(lbl):
        """``cost_of`` the representatives and code lengths of the clusters in ``lbl``."""
        cent = np.empty((n, posts.shape[1]))
        pz = np.zeros(n)
        for c in range(n):
            mask = lbl == c
            w = py[mask].sum()
            pz[c] = w
            if w > 0:
                cent[c] = (py[mask, None] * posts[mask]).sum(axis=0) / w
            else:
                cent[c] = 1.0 / posts.shape[1]
        with np.errstate(divide="ignore"):
            lens = np.where(pz > 0, -np.log2(np.where(pz > 0, pz, 1.0)), np.inf)
        return cost_of(cent, lens)

    symbols = np.arange(ny)
    labels = np.argmin(cost_of(centroids, lengths), axis=1)
    sweeps, converged = 0, False
    for sweeps in range(1, max_sweeps + 1):
        cost = refreshed_cost(labels)
        # labels only ever point at occupied clusters, where lengths are finite
        obj = float(np.sum(py * cost[symbols, labels]))
        new_labels = np.argmin(cost, axis=1)
        costs = cost[symbols, new_labels]
        # Conditional empty-cluster repair: steal the worst-cost symbol only
        # if the refreshed configuration actually improves the objective.
        sizes = np.bincount(new_labels, minlength=n).tolist()
        for c in range(n):
            if sizes[c]:
                continue
            worst = int(np.argmax(costs))
            trial = new_labels.copy()
            trial[worst] = c
            t_cost = refreshed_cost(trial)
            if float(np.sum(py * t_cost[symbols, trial])) < obj - 1e-15:
                sizes[new_labels[worst]] -= 1
                sizes[c] += 1
                new_labels = trial
                costs = t_cost[symbols, np.argmin(t_cost, axis=1)]

        if objective_trace is not None:
            objective_trace.append(obj)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels

    full_labels = np.zeros(j.num_y, dtype=int)
    full_labels[keep] = labels
    if np.any(~keep):
        full_labels[~keep] = _nearest_positive_labels(keep, full_labels)
    quantizer = Quantizer.from_labels(full_labels, num_clusters)
    design = design_from_quantizer(j, quantizer, math.inf)
    return replace(design, sweeps=sweeps, converged=converged)


def _nearest_positive_labels(keep: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Labels for zero-mass symbols: copy the nearest kept index, ties low."""
    kept_idx = np.flatnonzero(keep)
    missing = np.flatnonzero(~keep)
    out = np.empty(missing.shape[0], dtype=int)
    for k, i in enumerate(missing):
        dist = np.abs(kept_idx - i)
        out[k] = labels[kept_idx[np.argmin(dist)]]
    return out


@functools.lru_cache(maxsize=8)
def _triangle(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the blocks a <= b over boundaries 0..size-1, packed row
    by row (row b holds a = 0..b): the first entry of every row and the start
    a of every entry.  Read-only, since the cache shares them."""
    lengths = np.arange(1, size + 1)
    firsts = np.cumsum(lengths) - lengths
    starts = np.arange(firsts[-1] + size) - np.repeat(firsts, lengths)
    firsts.setflags(write=False)
    starts.setflags(write=False)
    return firsts, starts


def _best_blocks(packed: np.ndarray, num_blocks: int) -> tuple[np.ndarray, float]:
    """Split positions 0..n-1 into num_blocks contiguous, possibly empty blocks.

    ``packed`` holds the merit of every block a..b-1 with a <= b, row by row
    as ``_triangle`` orders them.  Returns the block index of every position
    and the best total merit.  Each layer keeps only the best score per end;
    the traceback recomputes one row per block and takes its first maximum,
    so ties go to the smallest boundary.
    """
    size = (math.isqrt(8 * packed.size + 1) - 1) // 2
    firsts, starts = _triangle(size)
    scores = [packed[firsts] + 0.0]  # every first block starts at 0, whose score is 0
    cand = np.empty_like(packed)
    for _ in range(num_blocks - 2):  # the last block ends at n: the traceback solves it
        # the starts are in range; "clip" spares the copy of out that "raise" makes
        np.take(scores[-1], starts, out=cand, mode="clip")
        cand += packed
        scores.append(np.maximum.reduceat(cand, firsts))
    labels = np.zeros(size - 1, dtype=int)
    b = size - 1
    best = scores[0][b]
    for k in range(num_blocks - 1, 0, -1):
        row = packed[firsts[b]:firsts[b] + b + 1] + scores[k - 1][:b + 1]
        a = row.argmax()
        if k == num_blocks - 1:
            best = row[a]
        labels[a:b] = k
        b = a
    return labels, float(best)


def _contiguous_blocks(w0: np.ndarray, w1: np.ndarray, num_blocks: int,
                       scale0: float, scale1: float) -> tuple[np.ndarray, float]:
    """Best split of a binary source's symbols, in descending-LLR order, into
    num_blocks contiguous blocks: ``_best_blocks`` of the block merit.

    ``w0`` and ``w1`` are the symbols' masses under the two source symbols.  A
    block with masses u and v has merit u log2(scale0 u/(u+v)) + v log2(scale1
    v/(u+v)); with scales 1/p(x) that is its share of I(x;z) in bits.  Only
    the blocks a <= b exist, packed as ``_triangle`` orders them; prefix sums
    of non-negative masses never decrease, so u and v are non-negative there.
    """
    size = w0.shape[0] + 1
    s0 = np.zeros(size)
    s1 = np.zeros(size)
    np.cumsum(w0, out=s0[1:])
    np.cumsum(w1, out=s1[1:])
    lengths = np.arange(1, size + 1)
    _, starts = _triangle(size)
    u = np.repeat(s0, lengths) - s0[starts]
    v = np.repeat(s1, lengths) - s1[starts]
    tot = u + v
    tot[tot == 0] = 1.0
    packed = _pair_term(u, tot, scale0)
    packed += _pair_term(v, tot, scale1)
    return _best_blocks(packed, num_blocks)


def _pair_term(mass: np.ndarray, total: np.ndarray, scale: float) -> np.ndarray:
    """mass * log2(scale mass / total) for positive totals, 0 where mass is 0."""
    term = scale * mass / total
    term += mass == 0  # log2(1) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log2(term, out=term)
    term *= mass
    return term


def _symmetric_dp_labels(m: np.ndarray, num_clusters: int,
                         partner: np.ndarray) -> tuple[np.ndarray, float]:
    """Mirror-symmetric contiguous quantizer: column partner[y] of m is column y
    with its rows swapped.

    One representative per symbol pair (the member with non-negative LLR) is
    partitioned contiguously in LLR order into num_clusters/2 blocks; partners
    receive the mirrored label.  The retained information is additive over
    block pairs, so the same dynamic program applies.  Returns the labels
    and the best total merit.
    """
    first = np.flatnonzero(np.arange(m.shape[1]) < partner)
    reps = np.where(m[0, first] >= m[1, first], first, partner[first])
    w0 = m[0, reps]
    w1 = m[1, reps]
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = np.log(w0) - np.log(w1)
    llr = np.where(np.isnan(llr), 0.0, llr)
    order = np.argsort(-llr, kind="stable")
    # A block at label k mirrors into label K-1-k with the component masses
    # swapped; the pair retains twice the block's merit with scales (2, 2).
    rep_labels, best = _contiguous_blocks(w0[order], w1[order], num_clusters // 2, 2.0, 2.0)

    labels = np.empty(m.shape[1], dtype=int)
    ordered = reps[order]
    labels[ordered] = rep_labels
    labels[partner[ordered]] = num_clusters - 1 - rep_labels
    return labels, 2.0 * best


def dp_optimal_quantizer(j: JointXY, num_clusters: int) -> IbDesign:
    """Optimal deterministic quantizer for a binary source.

    Sorts observation symbols by posterior log-likelihood ratio (descending)
    and places cluster boundaries by dynamic programming; for binary sources
    the optimum over all partitions is contiguous in that order.  Symbols with
    identical joint columns are merged beforehand (any optimal partition may
    keep them together), and zero-mass symbols adopt the label of their nearest
    positive-mass neighbour.

    A mirrored joint, whose row 1 is exactly the reversal of row 0 (as for the
    output-symmetric channels that ``channels`` builds), with an even symbol
    and cluster count gets the mirror-symmetric construction instead: symbol
    y pairs with |Y|-1-y, and the label map commutes with that swap.  The
    result is optimal among mirror-symmetric quantizers only and can retain
    less information than the global optimum.
    """
    if j.num_x != 2:
        raise ValueError("the dynamic program requires a binary source alphabet")
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    m = j.matrix
    ny = m.shape[1]
    mirrored = num_clusters % 2 == 0 and ny % 2 == 0 and np.array_equal(m[1], m[0][::-1])
    labels = _dp_labels(m, num_clusters, np.arange(ny)[::-1] if mirrored else None)
    return design_from_quantizer(j, Quantizer.from_labels(labels, num_clusters), math.inf)


def _dp_labels(m: np.ndarray, num_clusters: int, partner: np.ndarray | None) -> np.ndarray:
    """The label per column of the binary-source joint matrix ``m``: the
    mirror-symmetric DP on the column pairs ``partner`` (no column its own
    partner, an even cluster count), or the general DP when it is None."""
    if partner is not None:
        return _symmetric_dp_labels(m, num_clusters, partner)[0]
    mass = m.sum(axis=0)
    keep = mass > 0

    # Group exactly-identical columns; they always co-cluster, which also keeps
    # mirror-image outcomes of symmetric channels in the same cluster.
    cols = m[:, keep]
    _, first, inverse = np.unique(cols.T, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=int)   # number groups by first occurrence
    rank[np.argsort(first)] = np.arange(first.size)
    group_of = rank[inverse.ravel()]
    # bincount adds each group's masses in column order
    merged = np.vstack([np.bincount(group_of, weights=row, minlength=first.size)
                        for row in cols])

    with np.errstate(divide="ignore"):
        llr = np.log(merged[0]) - np.log(merged[1])
    order = np.argsort(-llr, kind="stable")
    sub = merged / merged.sum()
    # Each scale adds p(x) log2(scale) to every partition's merit, so a zero or
    # subnormal p(x), whose inverse would overflow, takes scale 1.
    px = sub.sum(axis=1)
    scale = 1.0 / np.where(px >= np.finfo(float).tiny, px, 1.0)
    block_labels, _ = _contiguous_blocks(sub[0, order], sub[1, order], num_clusters, *scale)
    group_labels = np.empty(first.size, dtype=int)
    # Renumber so labels appear in block order starting at 0.
    group_labels[order] = np.unique(block_labels, return_inverse=True)[1]

    labels = np.zeros(m.shape[1], dtype=int)
    labels[keep] = group_labels[group_of]
    if np.any(~keep):
        labels[~keep] = _nearest_positive_labels(keep, labels)
    return labels


ALGORITHMS = ("it-ib", "agg-ib", "kl-means", "dp")


@dataclass(frozen=True)
class CurvePoint:
    n: int
    info_loss: float
    compression_rate: float
    objective: float
    design: IbDesign


def _restart_rng(seed: int, n_index: int, restart: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, n_index, restart)))


def ib_curve(j: JointXY, algorithm: str, n_values, beta: float = 400.0,
             lam: float = 0.0, restarts: int = 100, seed: int = 0) -> list[CurvePoint]:
    """Best-of-restarts designs for each allowed cluster count.

    Deterministic algorithms (agg-ib, dp) run once per n; the stochastic ones
    take the lowest-information-loss design over ``restarts`` independent,
    seeded initializations, the first one on a tie.  The it-ib restarts of one
    n run together as one stack of mappings; each gives the same design as
    ``iterative_ib`` run on its own.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if not n_values:
        raise ValueError("n_values must be non-empty")
    if any(n < 1 for n in n_values):
        raise ValueError("cluster counts must be >= 1")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    points = []
    for idx, n in enumerate(n_values):
        if algorithm == "agg-ib":
            best = agglomerative_ib(j, n)
        elif algorithm == "dp":
            best = dp_optimal_quantizer(j, n)
        else:
            rngs = [_restart_rng(seed, idx, r) for r in range(restarts)]
            if algorithm == "it-ib":
                cands = _iterative_ib_runs(j, n, beta, rngs)
            else:
                cands = (kl_means_ib(j, n, lam=lam, init=rng) for rng in rngs)
            best = min(cands, key=lambda d: d.info_loss)   # the first of equal minima
        points.append(CurvePoint(n, best.info_loss, best.compression_rate,
                                 best.objective, best))
    return points


def write_curve_csv(path, points: list[CurvePoint], algorithm: str, beta: float,
                    restarts: int, comment: str | None = None) -> None:
    lines = ["algorithm,beta,n,restarts,info_loss_bits,compression_rate_bits,objective"]
    for p in points:
        lines.append(_text.row([algorithm, beta, p.n, restarts, p.info_loss,
                                p.compression_rate, p.objective], ","))
    _text.write_lines(path, lines, comment)
