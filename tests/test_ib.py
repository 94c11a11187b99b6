import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from ibquant.channels import build_ask_awgn, build_bpsk_awgn, build_bsc
from ibquant.dde import design_decoder, save_design
from ibquant.ib import (
    DEAD_CLUSTER_EPS,
    EXP_ZERO_BELOW,
    MAPPING_TOL,
    Quantizer,
    _best_blocks,
    _contiguous_blocks,
    _dp_labels,
    _iterative_ib_runs,
    _kmeans_pp_seeds,
    _nearest_positive_labels,
    _pair_term,
    _positive_mass,
    _restart_rng,
    _stationary_mapping,
    _SweepData,
    _symmetric_dp_labels,
    agglomerative_ib,
    design_from_quantizer,
    dp_optimal_quantizer,
    ib_curve,
    iterative_ib,
    kl_means_ib,
    write_curve_csv,
)
from ibquant.info import (
    LN2,
    ConditionalDist,
    JointXY,
    _quantizer_rows,
    _xlogx,
    entropy,
    mutual_information,
    push_through_quantizer,
)


def random_joint(rng, nx, ny):
    m = rng.uniform(size=(nx, ny))
    return JointXY(m / m.sum())


def identity_quantizer(size):
    return Quantizer(ConditionalDist(np.eye(size)))


def single_cluster_quantizer(num_inputs):
    return Quantizer(ConditionalDist(np.ones((num_inputs, 1))))


def random_stochastic_quantizer(num_inputs, num_clusters, rng):
    raw = rng.uniform(size=(num_inputs, num_clusters))
    return Quantizer(ConditionalDist(raw / raw.sum(axis=1, keepdims=True)))


def fixed_point_residual(j, quantizer, beta):
    """Max row-wise deviation between a mapping and its stationary recomputation."""
    rows = _quantizer_rows(j, quantizer)
    keep, data = _positive_mass(j)
    mapping = rows[keep]
    cposts = np.full((mapping.shape[1], j.num_x), 1.0 / j.num_x)
    _, recomputed = data.sweep(mapping, cposts, beta)
    return float(np.abs(recomputed - mapping).max())


def _posterior_rows(weighted):
    totals = weighted.sum(axis=1)
    rows = np.empty_like(weighted)
    alive = totals > 0
    rows[alive] = weighted[alive] / totals[alive, None]
    rows[~alive] = 1.0 / weighted.shape[1]
    return rows


def avg_kl_distortion(j, quantizer):
    """Expected KL divergence between observation and cluster posteriors, in bits.

    Cluster posteriors p(x|z) are induced by the quantizer; the expectation runs
    over the joint p(y, z).  Equals I(X;Y) - I(X;Z) for any quantizer, so it is
    an oracle for the information loss of every design.
    """
    rows = _quantizer_rows(j, quantizer)
    m = j.matrix
    py = m.sum(axis=0)
    pyz = py[:, None] * rows
    post_y = _posterior_rows(m.T)             # (Y, X)
    post_z = _posterior_rows((m @ rows).T)    # (Z, X)

    # D[y, z] = sum_x p(x|y) log2( p(x|y) / p(x|z) ).  Where p(y,z) > 0 the
    # cluster posterior dominates the member posterior, so the masked logs
    # below are only ever wrong at positions that get weight zero.
    self_term = _xlogx(post_y).sum(axis=1)
    log_post_z = np.where(post_z > 0, np.log(np.where(post_z > 0, post_z, 1.0)), 0.0)
    cross = post_y @ log_post_z.T
    dist = (self_term[:, None] - cross) / LN2
    return max(0.0, float(np.sum(np.where(pyz > 0, pyz * dist, 0.0))))


def enumerate_assignments(ny, n):
    """All n**ny label vectors, one row each."""
    total = n ** ny
    digits = np.arange(total)
    assign = np.empty((total, ny), dtype=int)
    for pos in range(ny):
        assign[:, pos] = digits % n
        digits //= n
    return assign


def batch_relevant_info(joint, assignments, n):
    """I(x;z) of every hard assignment, by direct summation."""
    total, ny = assignments.shape
    one_hot = np.zeros((total, ny, n))
    one_hot[np.arange(total)[:, None], np.arange(ny)[None, :], assignments] = 1.0
    pxz = np.einsum("xy,tyz->txz", joint.matrix, one_hot)
    px = pxz.sum(axis=2, keepdims=True)
    pz = pxz.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pxz > 0, pxz / np.where(px * pz > 0, px * pz, 1.0), 1.0)
        terms = xlogy(pxz, ratio)
    return terms.sum(axis=(1, 2)) / np.log(2.0)


def exhaustive_best_relevant_info(joint, n):
    assignments = enumerate_assignments(joint.num_y, n)
    return float(batch_relevant_info(joint, assignments, n).max())


# ---------------------------------------------------------------------------
# Reference DP quantizer: the loop-and-dict implementation the vectorized one
# in ibquant.ib replaced.  It must give the same labels and the same
# relevant information, bit for bit.


def source_scales(j):
    """The merit scales of the general DP: 1/p(x), or 1 where p(x) is zero or subnormal."""
    px = j.matrix.sum(axis=1)
    return 1.0 / np.where(px >= np.finfo(float).tiny, px, 1.0)


def reference_dp_contiguous_partition(j, num_clusters, order):
    m = j.matrix[:, order]
    ny = m.shape[1]
    scale0, scale1 = source_scales(j)
    prefix = np.zeros((2, ny + 1))
    np.cumsum(m, axis=1, out=prefix[:, 1:])
    u, v = np.maximum(prefix[:, None, :] - prefix[:, :, None], 0.0)   # (a, b)
    tot = u + v
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(tot > 0, tot, 1.0)
        term_u = np.where(u > 0, u * np.log2(np.where(u > 0, scale0 * u / safe, 1.0)), 0.0)
        term_v = np.where(v > 0, v * np.log2(np.where(v > 0, scale1 * v / safe, 1.0)), 0.0)
    merit = term_u + term_v

    score = np.full((num_clusters + 1, ny + 1), -np.inf)
    score[0, 0] = 0.0
    parent = np.zeros((num_clusters + 1, ny + 1), dtype=int)
    upper = np.triu(np.ones((ny + 1, ny + 1), dtype=bool))
    for k in range(1, num_clusters + 1):
        cand = np.where(upper, score[k - 1][:, None] + merit, -np.inf)
        parent[k] = np.argmax(cand, axis=0)
        score[k] = cand[parent[k], np.arange(ny + 1)]

    labels = np.empty(ny, dtype=int)
    b = ny
    for k in range(num_clusters, 0, -1):
        a = parent[k, b]
        labels[a:b] = k - 1
        b = a
    remap = {int(u): i for i, u in enumerate(sorted(np.unique(labels)))}
    labels = np.array([remap[int(v)] for v in labels])
    return labels, float(score[num_clusters, ny])


def ln_dp_contiguous_partition(j, num_clusters, order):
    """The library's former general DP: any source alphabet, a natural-log
    merit divided by ln 2 over (|X|, n+1, n+1) temporaries.  It breaks exact
    ties differently from the binary log2 merit."""
    m = j.matrix[:, order]
    nx, ny = m.shape
    px = j.matrix.sum(axis=1)
    prefix = np.zeros((nx, ny + 1))
    np.cumsum(m, axis=1, out=prefix[:, 1:])
    w = prefix[:, :, None] - prefix[:, None, :]          # (x, b, a)
    np.maximum(w, 0.0, out=w)
    denom = px[:, None, None] * w.sum(axis=0)
    ratio = np.ones_like(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, denom, out=ratio, where=(w > 0) & (denom > 0))
        np.log(ratio, out=ratio)
        ratio *= w
        merit = ratio.sum(axis=0)
    merit /= LN2
    merit[~np.isfinite(merit)] = 0.0
    labels, info = _best_blocks(merit[np.tri(ny + 1, dtype=bool)], num_clusters)
    return np.unique(labels, return_inverse=True)[1], info


def reference_symmetric_dp_labels(m, num_clusters, partner):
    ny = m.shape[1]
    half = num_clusters // 2
    reps = []
    for y in range(ny):
        p = int(partner[y])
        if y >= p:
            continue
        reps.append(y if m[0, y] >= m[1, y] else p)
    reps = np.array(reps, dtype=int)
    w0 = m[0, reps]
    w1 = m[1, reps]
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = np.log(w0) - np.log(w1)
    llr = np.where(np.isnan(llr), 0.0, llr)
    order = np.argsort(-llr, kind="stable")
    nrep = order.shape[0]
    s0 = np.zeros(nrep + 1)
    s1 = np.zeros(nrep + 1)
    np.cumsum(w0[order], out=s0[1:])
    np.cumsum(w1[order], out=s1[1:])
    u = np.maximum(s0[None, :] - s0[:, None], 0.0)
    v = np.maximum(s1[None, :] - s1[:, None], 0.0)
    tot = u + v
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(tot > 0, tot, 1.0)
        term_u = np.where(u > 0, u * np.log2(np.where(u > 0, 2.0 * u / safe, 1.0)), 0.0)
        term_v = np.where(v > 0, v * np.log2(np.where(v > 0, 2.0 * v / safe, 1.0)), 0.0)
    merit = 2.0 * (term_u + term_v)

    score = np.full((half + 1, nrep + 1), -np.inf)
    score[0, 0] = 0.0
    parent = np.zeros((half + 1, nrep + 1), dtype=int)
    upper = np.triu(np.ones((nrep + 1, nrep + 1), dtype=bool))
    for k in range(1, half + 1):
        cand = np.where(upper, score[k - 1][:, None] + merit, -np.inf)
        parent[k] = np.argmax(cand, axis=0)
        score[k] = cand[parent[k], np.arange(nrep + 1)]

    rep_labels = np.empty(nrep, dtype=int)
    b = nrep
    for k in range(half, 0, -1):
        a = parent[k, b]
        rep_labels[a:b] = k - 1
        b = a
    labels = np.empty(ny, dtype=int)
    for pos, rep in enumerate(reps[order]):
        labels[rep] = rep_labels[pos]
        labels[partner[rep]] = num_clusters - 1 - rep_labels[pos]
    return labels


def reference_column_groups(m, keep):
    """Group index per kept column (first occurrence order) and merged masses."""
    groups = {}
    group_of = np.full(m.shape[1], -1, dtype=int)
    for y in np.flatnonzero(keep):
        key = (float(m[0, y]), float(m[1, y]))
        if key not in groups:
            groups[key] = len(groups)
        group_of[y] = groups[key]
    merged = np.zeros((2, len(groups)))
    for y in np.flatnonzero(keep):
        merged[:, group_of[y]] += m[:, y]
    return group_of, merged


def reference_general_labels(j, num_clusters, partition=reference_dp_contiguous_partition):
    """Labels of the general (not mirror-symmetric) DP quantizer with the given
    contiguous-partition DP."""
    m = j.matrix
    keep = m.sum(axis=0) > 0
    group_of, merged = reference_column_groups(m, keep)
    with np.errstate(divide="ignore"):
        llr = np.log(merged[0]) - np.log(merged[1])
    order = np.argsort(-llr, kind="stable")
    sub = JointXY(merged / merged.sum())
    ordered_labels, _ = partition(sub, num_clusters, order)
    group_labels = np.empty(merged.shape[1], dtype=int)
    group_labels[order] = ordered_labels
    labels = np.zeros(j.num_y, dtype=int)
    labels[keep] = group_labels[group_of[keep]]
    if np.any(~keep):
        labels[~keep] = _nearest_positive_labels(keep, labels)
    return labels


def is_reversal_mirrored(m):
    """Row 1 is row 0 reversed, over an even number of columns."""
    return m.shape[1] % 2 == 0 and all(m[1, y] == m[0, -1 - y] for y in range(m.shape[1]))


def reference_dp_optimal_quantizer(j, num_clusters):
    m = j.matrix
    if num_clusters % 2 == 0 and is_reversal_mirrored(m):
        labels = reference_symmetric_dp_labels(m, num_clusters, np.arange(m.shape[1])[::-1])
    else:
        labels = reference_general_labels(j, num_clusters)
    return design_from_quantizer(j, Quantizer.from_labels(labels, num_clusters))


def general_dp_design(j, num_clusters):
    """The design of the library's general (not mirror-symmetric) DP, whose
    labels must be those of ``reference_general_labels``."""
    labels = _dp_labels(j.matrix, num_clusters, None)
    assert np.array_equal(labels, reference_general_labels(j, num_clusters))
    return design_from_quantizer(j, Quantizer.from_labels(labels, num_clusters))


# ---------------------------------------------------------------------------
# Full-square DP: the mirror-symmetric merit over every (b, a) pair, clamped at
# zero, and a pass with an argmax over the whole square at every DP layer.  The
# library builds and solves the merit on the packed a <= b triangle only and
# keeps no argmax per layer; labels and best merit must agree bit for bit.


def square_best_blocks(merit, num_blocks):
    merit = merit.copy()
    size = merit.shape[0]
    ends = np.arange(size)
    merit[ends[:, None] < ends[None, :]] = -np.inf
    score = np.full(size, -np.inf)
    score[0] = 0.0
    parent = np.empty((num_blocks, size), dtype=int)
    cand = np.empty_like(merit)
    for k in range(num_blocks):
        np.add(merit, score, out=cand)
        parent[k] = cand.argmax(axis=1)
        score = cand[ends, parent[k]]
    labels = np.empty(size - 1, dtype=int)
    b = size - 1
    for k in range(num_blocks - 1, -1, -1):
        a = parent[k, b]
        labels[a:b] = k
        b = a
    return labels, float(score[-1])


def square_contiguous_blocks(w0, w1, num_blocks, scale0, scale1):
    """``_contiguous_blocks`` with its merit scattered into the -inf square
    and solved by ``square_best_blocks``."""
    s0 = np.concatenate([[0.0], np.cumsum(w0)])
    s1 = np.concatenate([[0.0], np.cumsum(w1)])
    end, start = np.tril_indices(s0.size)  # row by row, as the library packs
    u = s0[end] - s0[start]
    v = s1[end] - s1[start]
    tot = u + v
    tot[tot == 0] = 1.0
    merit = np.full((s0.size, s0.size), -np.inf)
    merit[end, start] = _pair_term(u, tot, scale0) + _pair_term(v, tot, scale1)
    return square_best_blocks(merit, num_blocks)


def square_pair_term(mass, total):
    term = np.ones_like(mass)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(2.0 * mass, total, out=term, where=mass > 0)
        np.log2(term, out=term)
        term *= mass
    return term


def square_symmetric_dp_labels(m, num_clusters, partner):
    first = np.flatnonzero(np.arange(m.shape[1]) < partner)
    reps = np.where(m[0, first] >= m[1, first], first, partner[first])
    w0 = m[0, reps]
    w1 = m[1, reps]
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = np.log(w0) - np.log(w1)
    llr = np.where(np.isnan(llr), 0.0, llr)
    order = np.argsort(-llr, kind="stable")
    nrep = order.shape[0]
    s0 = np.zeros(nrep + 1)
    s1 = np.zeros(nrep + 1)
    np.cumsum(w0[order], out=s0[1:])
    np.cumsum(w1[order], out=s1[1:])
    u = np.maximum(s0[:, None] - s0[None, :], 0.0)       # (b, a)
    v = np.maximum(s1[:, None] - s1[None, :], 0.0)
    tot = u + v
    safe = np.where(tot > 0, tot, 1.0)
    merit = square_pair_term(u, safe)
    merit += square_pair_term(v, safe)
    merit *= 2.0
    rep_labels, best = square_best_blocks(merit, num_clusters // 2)
    labels = np.empty(m.shape[1], dtype=int)
    ordered = reps[order]
    labels[ordered] = rep_labels
    labels[partner[ordered]] = num_clusters - 1 - rep_labels
    return labels, best


# ---------------------------------------------------------------------------
# Reference IT-IB and agglomerative loops: the implementations that evaluated
# the objective after every sweep and rebuilt the whole merge-cost matrix at
# every merge.  The library must give the same mappings, labels and
# information loss, bit for bit.


def reference_kl_matrix_nats(posts, cposts):
    self_term = xlogy(posts, posts).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_c = np.log(cposts)
    finite_cols = np.isfinite(log_c)
    safe_log_c = np.where(finite_cols, log_c, 0.0)
    cross_vals = posts @ safe_log_c.T
    violation = (posts > 0).astype(float) @ (~finite_cols).T.astype(float)
    cross = np.where(violation > 0, -np.inf, cross_vals)
    return self_term[:, None] - cross


def reference_stationary_mapping(pz, dist_nats, beta):
    penalty = np.zeros_like(dist_nats) if beta == 0 else beta * dist_nats
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(pz)[None, :] - penalty
    logw = np.where(np.isnan(logw), -np.inf, logw)
    shift = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - shift)
    return w / w.sum(axis=1, keepdims=True)


def reference_subjoint_objective(sub, py, mapping, beta):
    compression = mutual_information(JointXY(py[:, None] * mapping))
    relevant = mutual_information(JointXY(sub @ mapping))
    return (compression - beta * relevant) / (beta + 1.0)


def reference_iterative_ib(j, num_clusters, beta, init, max_sweeps=500, tol=1e-10,
                           objective_trace=None):
    m = j.matrix
    py_full = m.sum(axis=0)
    keep = py_full > 0
    sub = m[:, keep]
    py = py_full[keep]
    posts = (sub / py).T
    rng = np.random.default_rng(init)
    raw = rng.uniform(size=(py.shape[0], num_clusters))
    mapping = raw / raw.sum(axis=1, keepdims=True)

    cposts = np.full((num_clusters, j.num_x), 1.0 / j.num_x)
    prev_obj = None
    sweeps, converged = 0, False
    for sweeps in range(1, max_sweeps + 1):
        pz = py @ mapping
        pxz = sub @ mapping
        alive = pz >= DEAD_CLUSTER_EPS
        cposts[alive] = (pxz[:, alive] / pz[alive]).T
        dist = reference_kl_matrix_nats(posts, cposts)
        new_mapping = reference_stationary_mapping(pz, dist, beta)
        change = float(np.abs(new_mapping - mapping).max())
        mapping = new_mapping
        obj = reference_subjoint_objective(sub, py, mapping, beta)
        if objective_trace is not None:
            objective_trace.append(obj)
        if prev_obj is not None and prev_obj - obj < tol and change < MAPPING_TOL:
            converged = True
            break
        prev_obj = obj

    full = np.empty((j.num_y, num_clusters))
    full[keep] = mapping
    full[~keep] = 1.0 / num_clusters
    design = design_from_quantizer(j, Quantizer(ConditionalDist(full)), beta)
    return design, sweeps, converged


def reference_it_ib_curve(j, n_values, beta, restarts, seed):
    """ib_curve("it-ib") as it was: the restarts one by one, the first lowest loss wins."""
    points = []
    for idx, n in enumerate(n_values):
        best = None
        for r in range(restarts):
            cand, sweeps, converged = reference_iterative_ib(
                j, n, beta, _restart_rng(seed, idx, r))
            if best is None or cand.info_loss < best[0].info_loss:
                best = (cand, sweeps, converged)
        points.append(best)
    return points


def reference_merge_cost(weights, posts):
    k = weights.shape[0]
    wi = weights[:, None, None]
    wj = weights[None, :, None]
    pi = posts[:, None, :]
    pj = posts[None, :, :]
    tot = wi + wj
    with np.errstate(divide="ignore", invalid="ignore"):
        mix = np.where(tot > 0, (wi * pi + wj * pj) / np.where(tot > 0, tot, 1.0), 0.0)
        log_mix = np.where(mix > 0, np.log(np.where(mix > 0, mix, 1.0)), 0.0)
        term_i = xlogy(pi, pi) - pi * log_mix
        term_j = xlogy(pj, pj) - pj * log_mix
    cost = (wi[..., 0] * term_i.sum(axis=2) + wj[..., 0] * term_j.sum(axis=2)) / LN2
    cost[np.arange(k), np.arange(k)] = np.inf
    return np.maximum(cost, 0.0)


def reference_agglomerative_ib(j, num_clusters):
    m = j.matrix
    py = m.sum(axis=0)
    posts = np.where(py[None, :] > 0, m / np.where(py > 0, py, 1.0), 1.0 / j.num_x).T
    weights = list(py.astype(float))
    cluster_posts = [posts[i].copy() for i in range(j.num_y)]
    members = [[i] for i in range(j.num_y)]
    while len(members) > num_clusters:
        cost = reference_merge_cost(np.array(weights), np.array(cluster_posts))
        a, b = divmod(int(np.argmin(cost)), len(members))
        if a > b:
            a, b = b, a
        tot = weights[a] + weights[b]
        if tot > 0:
            mix = (weights[a] * cluster_posts[a] + weights[b] * cluster_posts[b]) / tot
        else:
            mix = 0.5 * (cluster_posts[a] + cluster_posts[b])
        weights[a] = tot
        cluster_posts[a] = mix
        members[a] = members[a] + members[b]
        del weights[b], cluster_posts[b], members[b]
    order = sorted(range(len(members)), key=lambda c: min(members[c]))
    labels = np.empty(j.num_y, dtype=int)
    for new_label, c in enumerate(order):
        labels[members[c]] = new_label
    return design_from_quantizer(j, Quantizer.from_labels(labels, num_clusters), math.inf)


def reference_kl_means(j, num_clusters, lam, init, objective_trace=None, trials=None):
    """kl_means_ib's Lloyd loop as it was: each empty cluster is found by
    np.any(labels == c) against the labels as the repair leaves them.
    ``trials`` collects the cluster of every repair trial."""
    keep, data = _positive_mass(j)
    posts, py = data.posts, data.py
    ny = posts.shape[0]
    n = min(num_clusters, ny)
    centroids = _kmeans_pp_seeds(data, n, np.random.default_rng(init))
    lengths = np.full(n, math.log2(n) if n > 1 else 0.0)

    def assign(cent, lens):
        cost = data.kl_nats(cent) / LN2
        if lam > 0:
            cost = cost + lam * lens[None, :]
        lbl = np.argmin(cost, axis=1)
        return lbl, cost[np.arange(ny), lbl]

    def refresh(lbl):
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
        return cent, pz, lens

    def objective(lbl, cent, lens):
        per = (data.kl_nats(cent) / LN2)[np.arange(ny), lbl]
        if lam > 0:
            per = per + lam * lens[lbl]
        return float(np.sum(py * per))

    labels, _ = assign(centroids, lengths)
    sweeps, converged = 0, False
    for sweeps in range(1, 501):
        centroids, pz, lengths = refresh(labels)
        obj = objective(labels, centroids, lengths)
        new_labels, costs = assign(centroids, lengths)
        for c in range(n):
            if np.any(new_labels == c):
                continue
            if trials is not None:
                trials.append(c)
            worst = int(np.argmax(costs))
            trial = new_labels.copy()
            trial[worst] = c
            t_cent, _, t_lens = refresh(trial)
            if objective(trial, t_cent, t_lens) < obj - 1e-15:
                new_labels = trial
                _, costs = assign(t_cent, t_lens)
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
    design = design_from_quantizer(j, Quantizer.from_labels(full_labels, num_clusters), math.inf)
    return design, sweeps, converged


def float_bits(x) -> int:
    return int(np.float64(x).view(np.int64))


@st.composite
def tied_matrices(draw, max_symbols=40, max_x=2):
    """Unnormalized nx x ny masses with rounding ties, duplicate and zero columns."""
    nx = draw(st.integers(2, max_x))
    ny = draw(st.integers(1, max_symbols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.round(rng.uniform(size=(nx, ny)), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        src = rng.integers(0, ny, size=ny // 3)
        m[:, rng.integers(0, ny, size=src.size)] = m[:, src]
    if draw(st.booleans()):
        m[:, rng.integers(0, ny, size=max(1, ny // 4))] = 0.0
    if m.sum() == 0:
        m[0, 0] = 1.0
    return m


@st.composite
def sparse_joints(draw, max_x=4, max_symbols=12):
    """Unnormalized masses with zero-mass columns and exact-zero entries."""
    nx = draw(st.integers(2, max_x))
    ny = draw(st.integers(1, max_symbols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(size=(nx, ny))
    if draw(st.booleans()):
        m[rng.uniform(size=m.shape) < 0.3] = 0.0
    if draw(st.booleans()):
        m[:, rng.integers(0, ny, size=max(1, ny // 4))] = 0.0
    if m.sum() == 0:
        m[0, 0] = 1.0
    return m


@st.composite
def mirrored_matrices(draw, max_pairs=20, max_zero_llr=5, shuffled=False):
    """Exactly antisymmetric masses: mirrored column pairs plus zero-LLR
    columns.  Row 1 is row 0 reversed, or with ``shuffled`` the columns are in
    random order, so the reversal seldom pairs them."""
    base = draw(tied_matrices(max_symbols=max_pairs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, max_zero_llr))
    half = np.round(rng.uniform(size=(count + 1) // 2), 1)
    zero_llr = np.concatenate([half, half[::-1][count % 2:]])   # a palindrome
    m = np.hstack([base, np.vstack([zero_llr, zero_llr]), base[::-1, ::-1]])
    return m[:, rng.permutation(m.shape[1])] if shuffled else m


def joint_of(m):
    return JointXY(m / m.sum())


@st.composite
def with_cluster_count(draw, matrices):
    """(masses, n) with n from 1 up to 3 beyond the symbol count."""
    m = draw(matrices)
    return m, draw(st.integers(1, m.shape[1] + 3))


class TestIbObjective:
    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(0)
        j = random_joint(rng, 2, 5)
        for beta in (0.0, 1.0, 100.0):
            design = design_from_quantizer(j, single_cluster_quantizer(5), beta)
            assert design.objective == pytest.approx(0.0, abs=1e-12)

    def test_identity_beta_zero_is_source_entropy(self):
        rng = np.random.default_rng(1)
        j = random_joint(rng, 2, 4)
        got = design_from_quantizer(j, identity_quantizer(4), 0.0).objective
        assert got == pytest.approx(entropy(j.y_marginal()), abs=1e-12)

    def test_matches_hand_evaluation(self):
        rng = np.random.default_rng(2)
        j = random_joint(rng, 2, 4)
        q = random_stochastic_quantizer(4, 2, rng)
        compression = mutual_information(JointXY(j.y_marginal().probs[:, None] * q.mapping.rows))
        relevant = mutual_information(push_through_quantizer(j, q))
        assert design_from_quantizer(j, q, 2.0).objective == pytest.approx(
            (compression - 2.0 * relevant) / 3.0, abs=1e-12)


class TestIterativeIb:
    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_beta_before_sweeping(self, beta):
        j = random_joint(np.random.default_rng(6), 2, 5)
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta must be finite"):
                iterative_ib(j, 2, beta, init=0, objective_trace=trace)
            with pytest.raises(ValueError, match="beta must be finite"):
                ib_curve(j, "it-ib", [2], beta=beta, restarts=2)
        assert trace == []

    def test_noiseless_identity_is_fixed_point(self):
        j = JointXY(np.diag([0.1, 0.2, 0.3, 0.4]))
        for beta in (1.0, 50.0, 400.0):
            design = iterative_ib(j, 4, beta, init=identity_quantizer(4))
            assert np.array_equal(design.quantizer.mapping.rows, np.eye(4))
            assert design.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_limits(self):
        rng = np.random.default_rng(4)
        j = random_joint(rng, 3, 6)
        design = iterative_ib(j, 1, 100.0, init=0)
        assert design.info_loss == pytest.approx(mutual_information(j), abs=1e-12)
        assert design.compression_rate == pytest.approx(0.0, abs=1e-12)

    def test_objective_monotone_and_fixed_point(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(3, 11)))
            n = int(rng.integers(2, 5))
            beta = float(rng.choice([10.0, 100.0, 400.0]))
            trace = []
            design = iterative_ib(j, n, beta, init=trial, max_sweeps=50_000,
                                  objective_trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-10)
            assert fixed_point_residual(j, design.quantizer, beta) < 1e-6

    def test_zero_mass_observation_dropped(self):
        m = np.array([[0.25, 0.0, 0.25], [0.25, 0.0, 0.25]])
        j = JointXY(m)
        design = iterative_ib(j, 2, 10.0, init=0)
        assert design.quantizer.num_inputs == 3
        assert design.info_loss == pytest.approx(0.0, abs=1e-9)

    def test_design_consistency_invariants(self):
        rng = np.random.default_rng(6)
        j = random_joint(rng, 3, 8)
        design = iterative_ib(j, 3, 100.0, init=1)
        pz = j.y_marginal().probs @ design.quantizer.mapping.rows
        assert np.allclose(design.cluster_prior.probs, pz, atol=1e-9)
        pushed = push_through_quantizer(j, design.quantizer)
        alive = pz > 1e-12
        expected = pushed.matrix[:, alive] / pz[alive]
        assert np.allclose(design.cluster_posteriors.rows[alive], expected.T, atol=1e-9)
        assert design.info_loss >= -1e-9

    def test_rejects_bad_cluster_count(self):
        rng = np.random.default_rng(7)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            iterative_ib(j, 0, 10.0)

    def test_beta_zero_compresses_fully(self):
        rng = np.random.default_rng(31)
        j = random_joint(rng, 2, 6)
        design = iterative_ib(j, 3, 0.0, init=0)
        assert design.compression_rate == pytest.approx(0.0, abs=1e-9)
        assert design.info_loss == pytest.approx(mutual_information(j), abs=1e-9)

    def test_reports_sweeps_and_convergence(self):
        # n = 32 restarts of the 4-ASK curve: eight of them run out of sweeps
        j = build_ask_awgn(4, 1.0, 128, 3.0).joint()
        designs = [iterative_ib(j, 32, 400.0, init=_restart_rng(404, 3, r)) for r in range(20)]
        capped = [d for d in designs if not d.converged]
        assert len(capped) == 8
        assert all(d.sweeps == 500 for d in capped)
        assert all(0 < d.sweeps < 500 for d in designs if d.converged)

    def test_single_sweep_state(self):
        rng = np.random.default_rng(28)
        j = random_joint(rng, 3, 6)
        q = random_stochastic_quantizer(6, 3, rng)
        beta = 20.0
        m = j.matrix
        cposts = np.full((3, 3), 1.0 / 3)
        prior, mapping = _SweepData(m, m.sum(axis=0)).sweep(q.mapping.rows, cposts, beta)
        # every updated row is an exact distribution
        assert np.allclose(mapping.sum(axis=1), 1.0, atol=1e-12)
        pz = j.y_marginal().probs @ q.mapping.rows
        assert np.allclose(prior, pz, atol=1e-12)
        # row y is p(z) exp(-beta D(p(x|y) || p(x|z))) over its partition function
        posts = (j.matrix / j.matrix.sum(axis=0)).T
        kl_nats = np.array([[sum(posts[y, x] * np.log(posts[y, x] / cposts[z, x])
                                 for x in range(3) if posts[y, x] > 0)
                             for z in range(3)] for y in range(6)])
        weights = pz * np.exp(-beta * kl_nats)
        partition = weights.sum(axis=1)
        assert np.all(partition > 0)
        assert mapping[0, 0] == pytest.approx(weights[0, 0] / partition[0], rel=1e-9)
        assert np.allclose(mapping, weights / partition[:, None], rtol=1e-9, atol=0)


class TestAgglomerativeIb:
    def test_identical_posteriors_merge_free(self):
        # two observation symbols with the same posterior: merging them costs nothing
        m = np.array([[0.2, 0.1, 0.15], [0.2, 0.1, 0.25]])
        j = JointXY(m / m.sum())
        design = agglomerative_ib(j, 2)
        labels = design.quantizer.labels
        assert labels[0] == labels[1]
        gap = mutual_information(j) - design.relevant_info
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_identity_partition(self):
        rng = np.random.default_rng(8)
        j = random_joint(rng, 2, 6)
        design = agglomerative_ib(j, 6)
        assert design.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_close_to_exhaustive_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            j = random_joint(rng, 2, 6)
            design = agglomerative_ib(j, 3)
            best = exhaustive_best_relevant_info(j, 3)
            optimal_loss = mutual_information(j) - best
            assert design.info_loss >= optimal_loss - 1e-9
            assert design.info_loss <= optimal_loss + 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        j = random_joint(rng, 3, 9)
        a = agglomerative_ib(j, 4)
        b = agglomerative_ib(j, 4)
        assert np.array_equal(a.quantizer.mapping.rows, b.quantizer.mapping.rows)
        assert a.info_loss == b.info_loss

    def test_rejects_too_many_clusters(self):
        rng = np.random.default_rng(11)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            agglomerative_ib(j, 5)


class TestItIbMatchesReference:
    """IT-IB against the loop that evaluated the objective after every sweep."""

    @settings(max_examples=200, deadline=None)
    @given(m=sparse_joints(), beta=st.sampled_from([0.0, 10.0, 400.0, math.inf]),
           max_sweeps=st.integers(1, 60), tol=st.sampled_from([1e-10, 0.0]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(m=np.array([[0.5, 0.0, 0.2], [0.0, 0.1, 0.2]]), beta=400.0, max_sweeps=60,
             tol=1e-10, seed=1, data=None)
    def test_matches_reference(self, m, beta, max_sweeps, tol, seed, data):
        j = joint_of(m)
        n = data.draw(st.integers(1, j.num_y)) if data is not None else j.num_y
        if math.isinf(beta):
            # the reference loop turns the mapping into NaN; IT-IB refuses beta first
            for trace in (None, []):
                with pytest.raises(ValueError, match="beta must be finite, got inf"):
                    iterative_ib(j, n, beta, init=seed, max_sweeps=max_sweeps, tol=tol,
                                 objective_trace=trace)
            return
        want_trace = []
        want, sweeps, converged = reference_iterative_ib(
            j, n, beta, seed, max_sweeps, tol, objective_trace=want_trace)
        for trace in (None, []):
            got = iterative_ib(j, n, beta, init=seed, max_sweeps=max_sweeps, tol=tol,
                               objective_trace=trace)
            assert got.quantizer.mapping.rows.tobytes() == want.quantizer.mapping.rows.tobytes()
            assert float_bits(got.info_loss) == float_bits(want.info_loss)
            assert (got.sweeps, got.converged) == (sweeps, converged)
            if trace is not None:
                assert [float_bits(v) for v in trace] == [float_bits(v) for v in want_trace]

    def test_exp_is_zero_below_the_cut(self):
        # the stationary mapping writes +0.0 instead of calling exp below the
        # cut; exp itself must round to +0.0 there, whatever path numpy takes
        below = [EXP_ZERO_BELOW, np.nextafter(EXP_ZERO_BELOW, -np.inf), -1000.0, -1e300,
                 -np.inf]
        for size in (1, 3, 8, 17, 64):
            for x in below:
                out = np.exp(np.full(size, x))
                assert np.all(out.view(np.int64) == 0)   # +0.0, not -0.0
        assert np.exp(np.float64(-745.13)) > 0.0

    @settings(max_examples=300, deadline=None)
    @given(args=st.lists(st.one_of(st.floats(-708.39, 0.0),       # normal results
                                   st.floats(-746.0, -708.4),     # denormal or zero
                                   st.floats(-1e300, EXP_ZERO_BELOW),
                                   st.just(-np.inf)),
                         min_size=1, max_size=70),
           lead=st.integers(0, 17), seed=st.integers(0, 2**32 - 1))
    def test_exp_bits_do_not_depend_on_the_array(self, args, lead, seed):
        # the stationary mapping calls exp on the gathered entries at or above
        # the cut: each result must be the one exp gives in the full array.
        # Only contiguous arrays are compared; on a strided view numpy may
        # leave its vector exp, whose bits can differ by an ulp.
        x = np.array(args)
        alone = np.array([np.exp(x[i:i + 1])[0] for i in range(x.size)])
        rng = np.random.default_rng(seed)
        pad = rng.uniform(-800.0, 0.0, size=lead + x.size + 9)
        pad[lead:lead + x.size] = x
        masked = np.zeros_like(x)
        np.exp(x, out=masked, where=~(x < EXP_ZERO_BELOW))
        for got in (np.exp(x), np.exp(pad)[lead:lead + x.size], np.exp(pad[lead:])[:x.size],
                    np.exp(x[::-1].copy())[::-1]):
            assert got.tobytes() == alone.tobytes()
        kept = ~(x < EXP_ZERO_BELOW)
        assert masked[kept].tobytes() == alone[kept].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(runs=st.integers(1, 4), ny=st.integers(1, 9), nz=st.integers(1, 6),
           beta=st.sampled_from([0.0, 1.0, 10.0, 400.0]), seed=st.integers(0, 2**32 - 1))
    def test_stacked_stationary_mapping_matches_reference(self, runs, ny, nz, beta, seed):
        rng = np.random.default_rng(seed)
        pz = rng.uniform(size=(runs, nz))
        pz[rng.uniform(size=pz.shape) < 0.3] = 0.0                 # dead clusters
        pz[np.arange(runs), rng.integers(0, nz, size=runs)] = rng.uniform(0.1, 1.0, runs)
        dist = rng.exponential(rng.choice([0.01, 1.0, 5.0]), size=(runs, ny, nz))
        dist[rng.uniform(size=dist.shape) < 0.2] = np.inf         # support violations
        # rows with a single entry at or above the exp cut: one live cluster close
        # by, every other one far (or dead)
        lone = rng.uniform(size=(runs, ny)) < 0.3
        dist[lone] = 1e4
        r, y = np.nonzero(lone)
        dist[r, y, np.argmax(pz, axis=1)[r]] = 0.0
        with np.errstate(invalid="ignore"):   # a row with no finite weight is NaN
            got = _stationary_mapping(pz, dist.copy(), beta)
            for k in range(runs):
                want = reference_stationary_mapping(pz[k], dist[k], beta)
                assert got[k].tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(m=sparse_joints(), beta=st.sampled_from([0.0, 10.0, 400.0]),
           max_sweeps=st.integers(1, 80), tol=st.sampled_from([1e-10, 0.0]),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6),
           data=st.data())
    def test_stacked_restarts_match_separate_calls(self, m, beta, max_sweeps, tol, seeds,
                                                   data):
        j = joint_of(m)
        n = data.draw(st.integers(1, j.num_y + 1))
        traces = [[] for _ in seeds]
        got = _iterative_ib_runs(j, n, beta, seeds, max_sweeps, tol, traces)
        for design, trace, seed in zip(got, traces, seeds):
            want_trace = []
            want = iterative_ib(j, n, beta, init=seed, max_sweeps=max_sweeps, tol=tol,
                                objective_trace=want_trace)
            assert design.quantizer.mapping.rows.tobytes() == want.quantizer.mapping.rows.tobytes()
            assert float_bits(design.info_loss) == float_bits(want.info_loss)
            assert (design.sweeps, design.converged) == (want.sweeps, want.converged)
            assert [float_bits(v) for v in trace] == [float_bits(v) for v in want_trace]

    def test_stacked_restarts_stop_at_different_sweeps(self):
        # the 20 restarts of the 4-ASK curve at n = 32 leave the stack one by one
        j = build_ask_awgn(4, 1.0, 128, 3.0).joint()
        got = _iterative_ib_runs(j, 32, 400.0, [_restart_rng(404, 3, r) for r in range(20)])
        assert len({d.sweeps for d in got}) > 5
        for r, design in enumerate(got):
            want = iterative_ib(j, 32, 400.0, init=_restart_rng(404, 3, r))
            assert design.quantizer.mapping.rows.tobytes() == want.quantizer.mapping.rows.tobytes()
            assert float_bits(design.info_loss) == float_bits(want.info_loss)
            assert (design.sweeps, design.converged) == (want.sweeps, want.converged)


class TestAgglomerativeMatchesReference:
    """Incremental merge costs against rebuilding the whole cost matrix."""

    @settings(max_examples=200, deadline=None)
    @given(m=tied_matrices(max_symbols=30, max_x=10), data=st.data())
    def test_matches_reference(self, m, data):
        j = joint_of(m)
        n = data.draw(st.integers(1, j.num_y))
        got = agglomerative_ib(j, n)
        want = reference_agglomerative_ib(j, n)
        assert np.array_equal(got.quantizer.labels, want.quantizer.labels)
        assert float_bits(got.info_loss) == float_bits(want.info_loss)

    def test_ask_curve_sizes(self):
        j = build_ask_awgn(4, 1.0, 128, 3.0).joint()
        for n in (4, 32):
            got = agglomerative_ib(j, n)
            want = reference_agglomerative_ib(j, n)
            assert np.array_equal(got.quantizer.labels, want.quantizer.labels)
            assert float_bits(got.info_loss) == float_bits(want.info_loss)


class TestKlMeansMatchesReference:
    """The empty-cluster repair reads cluster sizes kept beside the labels."""

    @staticmethod
    def assert_matches(j, n, lam, init):
        trace, want_trace = [], []
        got = kl_means_ib(j, n, lam=lam, init=init, objective_trace=trace)
        want, sweeps, converged = reference_kl_means(j, n, lam, init, want_trace)
        assert np.array_equal(got.quantizer.labels, want.quantizer.labels)
        assert float_bits(got.info_loss) == float_bits(want.info_loss)
        assert (got.sweeps, got.converged) == (sweeps, converged)
        assert [float_bits(v) for v in trace] == [float_bits(v) for v in want_trace]

    @settings(max_examples=100, deadline=None)
    @given(m=tied_matrices(max_symbols=24, max_x=4), data=st.data())
    def test_matches_reference(self, m, data):
        n = data.draw(st.integers(1, m.shape[1] + 2))
        lam = data.draw(st.sampled_from([0.0, 0.05, 0.5, 5.0, 1e6]))
        self.assert_matches(joint_of(m), n, lam, data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize("sigma, bins, n, lam, init", [
        (0.5, 16, 8, 0.5, 81), (0.5, 128, 16, 0.05, 1161), (1.0, 16, 16, 0.5, 2160)])
    def test_steal_that_empties_a_later_cluster(self, sigma, bins, n, lam, init):
        # in these runs a repair steals the last member of a cluster not yet visited
        self.assert_matches(build_ask_awgn(4, sigma, bins, 3.0).joint(), n, lam, init)

    @staticmethod
    def assert_one_cost_per_assignment(j, n, lam, init):
        """The seeding computes one KL row per centroid, the first assignment
        one matrix, and then each sweep and each repair trial one matrix."""
        trials = []
        _, sweeps, _ = reference_kl_means(j, n, lam, init, trials=trials)
        with mock.patch.object(_SweepData, "kl_nats", autospec=True,
                               side_effect=_SweepData.kl_nats) as kl:
            design = kl_means_ib(j, n, lam=lam, init=init)
        clusters = min(n, int(np.count_nonzero(j.matrix.sum(axis=0))))
        assert design.sweeps == sweeps
        assert kl.call_count == clusters + 1 + sweeps + len(trials)
        return trials

    @settings(max_examples=50, deadline=None)
    @given(m=tied_matrices(max_symbols=24, max_x=4), data=st.data())
    def test_one_cost_matrix_per_assignment(self, m, data):
        n = data.draw(st.integers(1, m.shape[1] + 2))
        lam = data.draw(st.sampled_from([0.0, 0.05, 0.5, 5.0, 1e6]))
        self.assert_one_cost_per_assignment(joint_of(m), n, lam,
                                            data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize("sigma, bins, n, lam, init", [
        (0.5, 16, 8, 0.5, 81), (0.5, 128, 16, 0.05, 1161), (1.0, 16, 16, 0.5, 2160)])
    def test_one_cost_matrix_per_repair_trial(self, sigma, bins, n, lam, init):
        j = build_ask_awgn(4, sigma, bins, 3.0).joint()
        assert self.assert_one_cost_per_assignment(j, n, lam, init)


class TestKlMeans:
    def test_identity_fixed_point(self):
        rng = np.random.default_rng(12)
        j = random_joint(rng, 2, 5)
        design = kl_means_ib(j, 5, lam=0.0, init=0)
        assert design.info_loss == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_lambda_that_is_not_finite_and_non_negative(self, lam):
        j = random_joint(np.random.default_rng(13), 2, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lam must be finite and non-negative"):
                kl_means_ib(j, 3, lam=lam, init=0)

    def test_sweep_data_is_built_once_per_joint(self):
        m = random_joint(np.random.default_rng(15), 3, 9).matrix.copy()
        m[:, 4] = 0.0  # a symbol without mass
        j = JointXY(m / m.sum())
        with mock.patch("ibquant.ib._SweepData", wraps=_SweepData) as built:
            designs = [kl_means_ib(j, 3, init=r) for r in range(4)]
            assert built.call_count == 1
        keep, data = _positive_mass(j)
        assert _positive_mass(j)[1] is data
        assert not any(arr.flags.writeable for arr in (keep, *vars(data).values()))
        assert [f.name for f in dataclasses.fields(j)] == ["matrix"]
        for r, design in enumerate(designs):
            again = kl_means_ib(JointXY(j.matrix.copy()), 3, init=r)
            assert np.array_equal(design.quantizer.mapping.rows, again.quantizer.mapping.rows)
            assert design.info_loss == again.info_loss

    def test_huge_lambda_collapses(self):
        rng = np.random.default_rng(13)
        j = random_joint(rng, 2, 6)
        design = kl_means_ib(j, 3, lam=1e6, init=0)
        assert np.sum(design.cluster_prior.probs > DEAD_CLUSTER_EPS) == 1
        assert design.info_loss == pytest.approx(mutual_information(j), abs=1e-9)

    def test_close_to_exhaustive_optimum(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            j = random_joint(rng, 2, 8)
            best_loss = None
            for seed in range(20):
                design = kl_means_ib(j, 3, lam=0.0, init=seed)
                if best_loss is None or design.info_loss < best_loss:
                    best_loss = design.info_loss
            optimum = mutual_information(j) - exhaustive_best_relevant_info(j, 3)
            assert best_loss <= optimum + 0.02

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            j = random_joint(rng, 3, 10)
            trace = []
            kl_means_ib(j, 3, lam=0.0, init=trial, objective_trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-10)

    def test_reports_sweeps_and_convergence(self):
        rng = np.random.default_rng(15)
        j = random_joint(rng, 3, 10)
        trace = []
        design = kl_means_ib(j, 3, init=0, objective_trace=trace)
        assert design.converged and design.sweeps == len(trace) > 1
        capped = kl_means_ib(j, 3, init=0, max_sweeps=1)
        assert (capped.sweeps, capped.converged) == (1, False)
        closed_form = agglomerative_ib(j, 3)
        assert (closed_form.sweeps, closed_form.converged) == (0, True)

    def test_lambda_objective_non_increasing(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            j = random_joint(rng, 2, 8)
            trace = []
            kl_means_ib(j, 3, lam=0.5, init=trial, objective_trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-10)


class TestDpOptimal:
    def test_full_resolution_is_lossless(self):
        rng = np.random.default_rng(17)
        j = random_joint(rng, 2, 7)
        design = dp_optimal_quantizer(j, 7)
        assert design.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_bsc_identity(self):
        dmc = build_bsc(0.1)
        design = dp_optimal_quantizer(dmc.joint(), 2)
        h2 = -0.1 * np.log2(0.1) - 0.9 * np.log2(0.9)
        assert design.relevant_info == pytest.approx(1.0 - h2, abs=1e-12)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            j = random_joint(rng, 2, 8)
            n = int(rng.choice([2, 3]))
            design = dp_optimal_quantizer(j, n)
            assert design.relevant_info == pytest.approx(
                exhaustive_best_relevant_info(j, n), abs=1e-12)

    def test_beats_other_algorithms(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            j = random_joint(rng, 2, 8)
            dp = dp_optimal_quantizer(j, 3)
            others = [
                agglomerative_ib(j, 3),
                kl_means_ib(j, 3, init=trial),
                iterative_ib(j, 3, 400.0, init=trial),
            ]
            for other in others:
                assert dp.relevant_info >= other.relevant_info - 1e-9

    def test_rejects_non_binary_source(self):
        rng = np.random.default_rng(20)
        j = random_joint(rng, 3, 6)
        with pytest.raises(ValueError):
            dp_optimal_quantizer(j, 2)

    def test_zero_mass_symbols_get_neighbour_labels(self):
        m = np.array([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4]])
        j = JointXY(m)
        design = dp_optimal_quantizer(j, 2)
        labels = design.quantizer.labels
        assert labels[1] == labels[0]  # nearest positive-mass index, ties low

    def test_cluster_count_cap(self):
        rng = np.random.default_rng(21)
        j = random_joint(rng, 2, 8)
        design = dp_optimal_quantizer(j, 3)
        assert design.compression_rate <= np.log2(3) + 1e-9
        assert design.relevant_info <= min(mutual_information(j), design.compression_rate) + 1e-9


class TestDpMatchesReference:
    """The vectorized DP quantizer against the loop-and-dict reference."""

    def assert_same_design(self, j, n):
        got = dp_optimal_quantizer(j, n)
        want = reference_dp_optimal_quantizer(j, n)
        assert np.array_equal(got.quantizer.labels, want.quantizer.labels)
        assert float_bits(got.relevant_info) == float_bits(want.relevant_info)

    @settings(max_examples=150, deadline=None)
    @given(case=with_cluster_count(tied_matrices()))
    @example(case=(np.array([[0.3], [0.7]]), 1))
    @example(case=(np.array([[0.3], [0.7]]), 4))
    @example(case=(np.array([[0.5, 1.0, 0.1, 0.9, 0.3, 0.4, 0.8, 0.4, 0.5, 0.0],
                             [0.8, 0.5, 0.3, 0.8, 0.3, 0.5, 0.1, 0.4, 0.2, 0.3]]), 10))
    def test_tied_joints(self, case):
        m, n = case
        self.assert_same_design(joint_of(m), n)

    @settings(max_examples=150, deadline=None)
    @given(case=with_cluster_count(mirrored_matrices()))
    @example(case=(np.array([[0.2, 0.3, 0.1], [0.1, 0.3, 0.2]]), 2))
    @example(case=(np.array([[0.2, 0.3, 0.3, 0.1], [0.1, 0.3, 0.3, 0.2]]), 2))
    @example(case=(np.array([[1.0, 0.6, 0.3, 0.3, 0.6, 1.0], [1.0, 0.6, 0.3, 0.3, 0.6, 1.0]]), 4))
    def test_mirrored_joints(self, case):
        m, n = case
        assert np.array_equal(m[1], m[0][::-1])
        self.assert_same_design(joint_of(m), n)

    @settings(max_examples=100, deadline=None)
    @given(case=with_cluster_count(mirrored_matrices(shuffled=True)))
    @example(case=(np.array([[0.2, 0.1, 0.3], [0.1, 0.2, 0.3]]), 2))
    @example(case=(np.array([[0.2, 0.1, 0.3, 0.3], [0.1, 0.2, 0.3, 0.3]]), 2))
    @example(case=(np.array([[1.0, 0.6, 0.3, 0.1, 0.5], [1.0, 0.3, 0.6, 0.1, 0.5]]), 4))
    def test_shuffled_mirrored_joints(self, case):
        # pairs that the reversal does not line up get the general DP
        m, n = case
        j = joint_of(m)
        self.assert_same_design(j, n)
        if n % 2 or not is_reversal_mirrored(j.matrix):
            got = dp_optimal_quantizer(j, n).quantizer.labels
            assert np.array_equal(got, reference_general_labels(j, n))

    @settings(max_examples=100, deadline=None)
    @given(ny=st.integers(1, 30), n=st.integers(1, 34),
           decimals=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_contiguous_partition(self, ny, n, decimals, seed):
        # binary sources only: no library caller runs the DP on a larger one
        rng = np.random.default_rng(seed)
        m = np.round(rng.uniform(size=(2, ny)), decimals)
        m[0, 0] += 0.5
        j = joint_of(m)
        order = rng.permutation(ny)
        w0, w1 = j.matrix[:, order]
        got, got_info = _contiguous_blocks(w0, w1, n, *source_scales(j))
        want, want_info = reference_dp_contiguous_partition(j, n, order)
        assert np.array_equal(np.unique(got, return_inverse=True)[1], want)
        assert float_bits(got_info) == float_bits(want_info)

    @settings(max_examples=150, deadline=None)
    @given(case=with_cluster_count(st.one_of(tied_matrices(), mirrored_matrices(),
                                             sparse_joints(max_x=2, max_symbols=40))))
    @example(case=(np.array([[0.3, 0.7], [0.0, 0.0]]), 2))
    @example(case=(np.array([[0.3, 0.2, 0.0], [0.0, 0.0, 0.5]]), 3))
    @example(case=(np.array([[0.3, 0.2, 0.5], [1e-320, 0.0, 0.0]]), 2))   # 1/p(x) overflows
    @example(case=(np.array([[0.5, 1.0, 0.1, 0.9, 0.3, 0.4, 0.8, 0.4, 0.5, 0.0],
                             [0.8, 0.5, 0.3, 0.8, 0.3, 0.5, 0.1, 0.4, 0.2, 0.3]]), 10))
    @example(case=(np.array([[1.0, 0.6, 0.3, 0.1, 0.5], [1.0, 0.3, 0.6, 0.1, 0.5]]), 4))
    def test_general_labels_keep_the_natural_log_merit_information(self, case):
        # the log2 merit breaks exact ties differently from the natural-log
        # merit the general DP had, but retains the same information
        m, n = case
        j = joint_of(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = general_dp_design(j, n)
        old = reference_general_labels(j, n, ln_dp_contiguous_partition)
        want = design_from_quantizer(j, Quantizer.from_labels(old, n))
        assert abs(got.relevant_info - want.relevant_info) <= 1e-12

    def test_channel_and_node_joints(self):
        from ibquant.maxlut import NodeFunction
        from test_maxlut import node_joint
        from test_maxlut import quantized_message
        dmc = build_ask_awgn(2, 0.8, 64)
        for n in (2, 4, 8, 16):
            self.assert_same_design(dmc.joint(), n)
            msg = quantized_message(dmc.transition.rows,
                                    dp_optimal_quantizer(dmc.joint(), n).quantizer)
            for f in NodeFunction:
                self.assert_same_design(JointXY(0.5 * node_joint(f, msg, msg).rows), n)


@st.composite
def mirrored_instances(draw):
    """(masses, partner, even cluster count) for the mirror-symmetric DP.

    1-100 representative columns, each next to its row-swapped partner, in
    shuffled order; some columns have zero or subnormal mass, some share
    their LLR with another column (rounding and scaled copies).  Up to 32
    clusters, so often more blocks than representatives.
    """
    nrep = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = np.round(rng.uniform(size=(2, nrep)), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        src = rng.integers(0, nrep, size=nrep // 3)
        scale = rng.integers(1, 4, size=src.size)
        base[:, rng.integers(0, nrep, size=src.size)] = base[:, src] * scale
    if draw(st.booleans()):
        base[:, rng.integers(0, nrep, size=max(1, nrep // 4))] = 0.0
    if draw(st.booleans()):
        base[:, rng.integers(0, nrep, size=max(1, nrep // 4))] *= 1e-310
    if base.sum() == 0:
        base[0, 0] = 1.0
    m = np.hstack([base, base[::-1]])
    if draw(st.booleans()):
        m /= m.sum()
    perm = rng.permutation(2 * nrep)
    inverse = np.argsort(perm)
    partner = inverse[(perm + nrep) % (2 * nrep)]
    return m[:, perm], partner, 2 * draw(st.integers(1, 16))


class TestDpMatchesFullSquare:
    """The triangle merit and the layer-saving DP against the full-square oracle."""

    @settings(max_examples=300, deadline=None)
    @given(case=mirrored_instances())
    @example(case=(np.array([[0.2, 0.1], [0.1, 0.2]]), np.array([1, 0]), 32))
    @example(case=(np.array([[0.0, 0.3, 0.0, 0.2], [0.0, 0.2, 0.0, 0.3]]),
                   np.array([2, 3, 0, 1]), 2))
    def test_symmetric_labels_and_best_merit(self, case):
        m, partner, n = case
        assert np.array_equal(m[::-1, partner], m)
        got, got_best = _symmetric_dp_labels(m, n, partner)
        want, want_best = square_symmetric_dp_labels(m, n, partner)
        assert np.array_equal(got, want)
        assert float_bits(got_best) == float_bits(want_best)

    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(1, 30), num_blocks=st.integers(1, 34),
           seed=st.integers(0, 2**32 - 1))
    @example(size=5, num_blocks=1, seed=0)
    @example(size=5, num_blocks=9, seed=0)
    @example(size=1, num_blocks=3, seed=0)
    @example(size=1, num_blocks=1, seed=0)
    @example(size=2, num_blocks=34, seed=3)
    @example(size=30, num_blocks=34, seed=1)
    def test_best_blocks(self, size, num_blocks, seed):
        # half-integer merits of either sign tie often
        merit = np.random.default_rng(seed).integers(-2, 5, size=(size, size)) / 2.0
        want, want_best = square_best_blocks(merit, num_blocks)
        got, got_best = _best_blocks(merit[np.tri(size, dtype=bool)], num_blocks)
        assert np.array_equal(got, want)
        assert float_bits(got_best) == float_bits(want_best)

    @pytest.mark.parametrize("ebn0", [0.2, 2.0])
    def test_design_bytes_match_the_square_dp(self, ebn0, tmp_path, monkeypatch):
        channel = build_bpsk_awgn(ebn0, 0.5, 128)
        save_design(design_decoder(channel, 3, 6, 4, 50), tmp_path / "packed.txt")
        monkeypatch.setattr("ibquant.ib._contiguous_blocks", square_contiguous_blocks)
        save_design(design_decoder(channel, 3, 6, 4, 50), tmp_path / "square.txt")
        assert ((tmp_path / "packed.txt").read_bytes()
                == (tmp_path / "square.txt").read_bytes())


class TestDpMatchesExhaustiveSearch:
    def test_auto_symmetric_is_optimal_among_symmetric_quantizers_only(self):
        # an exactly antisymmetric joint on which the mirror-symmetric
        # construction misses the global optimum; in this column order row 1
        # is row 0 reversed
        m = np.array([[0.1, 1.0, 0.4, 0.6, 0.9, 0.5],
                      [0.9, 0.4, 1.0, 0.5, 0.1, 0.6]])
        j = joint_of(m[:, [0, 1, 3, 5, 2, 4]])
        best = exhaustive_best_relevant_info(j, 4)
        general = general_dp_design(j, 4)
        auto = dp_optimal_quantizer(j, 4)
        assert general.relevant_info == pytest.approx(best, abs=1e-12)
        assert best == pytest.approx(0.192965, abs=5e-7)
        assert auto.relevant_info == pytest.approx(0.192656, abs=5e-7)
        # pairs out of reversal order are not searched for: the global optimum
        assert dp_optimal_quantizer(joint_of(m), 4).relevant_info == pytest.approx(
            best, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(m=st.one_of(tied_matrices(max_symbols=8),
                       mirrored_matrices(max_pairs=3, max_zero_llr=2),
                       mirrored_matrices(max_pairs=3, max_zero_llr=2, shuffled=True)),
           n=st.integers(1, 4))
    @example(m=np.array([[0.1, 1.0, 0.4, 0.6, 0.9, 0.5],
                         [0.9, 0.4, 1.0, 0.5, 0.1, 0.6]]), n=4)
    def test_random_tied_joints(self, m, n):
        j = joint_of(m)
        best = exhaustive_best_relevant_info(j, n)
        general = general_dp_design(j, n)
        assert general.relevant_info == pytest.approx(best, abs=1e-12)
        default = dp_optimal_quantizer(j, n)
        if n % 2 or not is_reversal_mirrored(j.matrix):
            assert float_bits(default.relevant_info) == float_bits(general.relevant_info)
        else:
            # the mirror-symmetric construction is optimal among mirror-symmetric
            # quantizers only; the example above loses 3e-4 bits to the optimum
            assert default.relevant_info <= best + 1e-12


class TestItIbOnAskInstance:
    def test_it_ib_near_contiguous_oracle(self):
        # 4-ASK / AWGN instance: the best contiguous-in-amplitude partition is
        # the reference; the iterative design must come within 0.002 bits.
        dmc = build_ask_awgn(4, 1.0, 128)
        j = dmc.joint()
        _, oracle_info = ln_dp_contiguous_partition(j, 16, np.arange(128))
        oracle_loss = mutual_information(j) - oracle_info
        best = None
        for r in range(100):
            design = iterative_ib(j, 16, 400.0, init=r, max_sweeps=200)
            if best is None or design.info_loss < best:
                best = design.info_loss
        assert best <= oracle_loss + 0.002
        assert best >= oracle_loss - 1e-9

    def test_denormal_cluster_counts_as_dead(self):
        # this restart starves one cluster to a denormal mass (~8.8e-321);
        # its posterior row must be the dead-cluster default, not a
        # precision-losing quotient that ConditionalDist rejects
        j = build_ask_awgn(4, 1.0, 128, 3.0).joint()
        rng = np.random.default_rng(np.random.SeedSequence((1599525336001, 2, 11)))
        design = iterative_ib(j, 16, 400.0, init=rng)
        pz = design.cluster_prior.probs
        starved = (pz > 0) & (pz < 1e-300)
        assert starved.any()
        assert np.all(design.cluster_posteriors.rows[starved] == 0.25)


class TestIbCurve:
    def test_single_cluster_point(self):
        rng = np.random.default_rng(22)
        j = random_joint(rng, 2, 6)
        for algorithm in ("it-ib", "agg-ib", "kl-means", "dp"):
            points = ib_curve(j, algorithm, [1], beta=100.0, restarts=3, seed=0)
            assert points[0].info_loss == pytest.approx(mutual_information(j), abs=1e-9)
            assert points[0].compression_rate == pytest.approx(0.0, abs=1e-9)

    def test_agg_curve_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            j = random_joint(rng, 2, 8)
            points = ib_curve(j, "agg-ib", [1, 2, 3, 4, 5], restarts=1, seed=0)
            losses = [p.info_loss for p in points]
            for a, b in zip(losses, losses[1:]):
                assert b <= a + 1e-12

    def test_unknown_algorithm(self):
        rng = np.random.default_rng(24)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            ib_curve(j, "det-ib", [2])

    @pytest.mark.parametrize("algorithm", ["it-ib", "agg-ib", "kl-means", "dp"])
    @pytest.mark.parametrize("n_values, restarts, message", [
        ([8, 16, 0], 3, "cluster counts must be >= 1"),
        ([2, -1], 3, "cluster counts must be >= 1"),
        ([2, 4], 0, "restarts must be >= 1, got 0"),
        ([2], -2, "restarts must be >= 1, got -2")])
    def test_rejects_bad_arguments_before_any_design(self, algorithm, n_values, restarts,
                                                     message):
        j = random_joint(np.random.default_rng(26), 2, 16)
        designers = ["_iterative_ib_runs", "kl_means_ib", "agglomerative_ib",
                     "dp_optimal_quantizer"]
        with mock.patch.multiple("ibquant.ib", **{name: mock.DEFAULT for name in designers}) \
                as designs:
            with pytest.raises(ValueError, match=message):
                ib_curve(j, algorithm, n_values, restarts=restarts)
        assert all(designs[name].call_count == 0 for name in designers)

    @settings(max_examples=25, deadline=None)
    @given(m=sparse_joints(), beta=st.sampled_from([0.0, 10.0, 400.0]),
           restarts=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(m=np.array([[0.1, 0.2, 0.0, 0.0], [0.0, 0.0, 0.3, 0.4]]), beta=400.0,
             restarts=6, seed=0)
    def test_it_ib_matches_serial_restarts(self, m, beta, restarts, seed):
        j = joint_of(m)
        n_values = list(range(1, min(j.num_y, 3) + 1)) + [j.num_y + 1]
        got = ib_curve(j, "it-ib", n_values, beta=beta, restarts=restarts, seed=seed)
        want = reference_it_ib_curve(j, n_values, beta, restarts, seed)
        for point, (design, sweeps, converged) in zip(got, want):
            rows = point.design.quantizer.mapping.rows
            assert rows.tobytes() == design.quantizer.mapping.rows.tobytes()
            assert (point.design.sweeps, point.design.converged) == (sweeps, converged)
            for a, b in ((point.info_loss, design.info_loss),
                         (point.compression_rate, design.compression_rate),
                         (point.objective, design.objective)):
                assert float_bits(a) == float_bits(b)

    def test_first_restart_wins_a_tie(self):
        # a noiseless joint: every restart finds the same partition, with either
        # labelling, and the same information loss to the bit
        j = JointXY(np.array([[0.1, 0.2, 0.0, 0.0], [0.0, 0.0, 0.3, 0.4]]))
        designs = _iterative_ib_runs(j, 2, 400.0, [_restart_rng(0, 0, r) for r in range(6)])
        assert len({float_bits(d.info_loss) for d in designs}) == 1
        assert len({tuple(d.quantizer.labels) for d in designs}) == 2
        point = ib_curve(j, "it-ib", [2], beta=400.0, restarts=6, seed=0)[0]
        assert point.design.quantizer.mapping.rows.tobytes() == \
            designs[0].quantizer.mapping.rows.tobytes()

    def test_csv_deterministic(self, tmp_path):
        rng = np.random.default_rng(25)
        j = random_joint(rng, 2, 6)
        points = ib_curve(j, "it-ib", [2, 3], beta=100.0, restarts=5, seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(p1, points, "it-ib", 100.0, 5, comment="run")
        points2 = ib_curve(j, "it-ib", [2, 3], beta=100.0, restarts=5, seed=7)
        write_curve_csv(p2, points2, "it-ib", 100.0, 5, comment="run")
        assert p1.read_bytes() == p2.read_bytes()


class TestNoRuntimeWarnings:
    """Zero-mass symbols and starved clusters are handled without floating-point warnings."""

    def test_sparse_joint_and_starved_cluster(self):
        # symbol 1 has no mass, and only symbol 1 maps into cluster 2
        j = joint_of(np.array([[0.3, 0.0, 0.2, 0.0, 0.1], [0.0, 0.0, 0.1, 0.3, 0.0]]))
        starved = Quantizer(ConditionalDist(np.array(
            [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0],
             [1.0, 0.0, 0.0]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (0.0, 10.0, 400.0):
                iterative_ib(j, 3, beta, init=starved, objective_trace=[])
                iterative_ib(j, 6, beta, init=1, max_sweeps=50)
                fixed_point_residual(j, starved, beta)
                design_from_quantizer(j, starved, beta)
                ib_curve(j, "it-ib", [2, 6], beta=beta, restarts=3)
            design_from_quantizer(j, starved, math.inf)
            kl_means_ib(j, 4, init=2)
            kl_means_ib(j, 3, lam=0.5, init=3, objective_trace=[])

    def test_denormal_starved_cluster(self):
        j = build_ask_awgn(4, 1.0, 128, 3.0).joint()
        rng = np.random.default_rng(np.random.SeedSequence((1599525336001, 2, 11)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            design = iterative_ib(j, 16, 400.0, init=rng)
        assert np.any((design.cluster_prior.probs > 0) & (design.cluster_prior.probs < 1e-300))


class TestDesignInvariants:
    def test_information_plane_caps_all_algorithms(self):
        rng = np.random.default_rng(30)
        for trial in range(15):
            j = random_joint(rng, 2, 8)
            n = int(rng.integers(2, 5))
            designs = [
                iterative_ib(j, n, 400.0, init=trial),
                agglomerative_ib(j, n),
                kl_means_ib(j, n, init=trial),
                dp_optimal_quantizer(j, n),
            ]
            mi = mutual_information(j)
            for d in designs:
                assert d.compression_rate <= np.log2(n) + 1e-9
                assert d.relevant_info <= min(mi, d.compression_rate) + 1e-9
                assert abs(d.info_loss - avg_kl_distortion(j, d.quantizer)) < 1e-9


class TestDesignEvaluation:
    def test_infinite_beta_objective(self):
        rng = np.random.default_rng(27)
        j = random_joint(rng, 2, 6)
        design = design_from_quantizer(j, identity_quantizer(6), math.inf)
        assert design.objective == pytest.approx(-design.relevant_info)
