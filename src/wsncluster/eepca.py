"""Cluster-head election and broadcast suppression for the
prediction-clustering protocol, as whole-network array operations.

Each round, a node weighs two factors: how its residual energy compares with
the mean believed energy of its neighbors (energy factor), and how cheap one
intra-cluster transmission would be if it served as head, relative to the
ideal analytic value (communication-cost factor).  The weighted combination
scales the base head proportion into a per-node election probability, which
feeds a rotation threshold.  A node whose weight is below 1 gains 1 - w on
its threshold bracket for each whole rotation epoch it has gone unelected; a
node whose weight is 1 or more keeps its bracket at w.  With unit weights the
threshold is the classic LEACH rotation.

A regular-data-acquisition node whose residual energy its neighbors can
compute to within tolerance skips its setup broadcast.  Neighbor distances
are the ones nodes estimate from the received strength of those broadcasts,
by estimated_distance_matrix, the one ranging formula.  A cluster member
joins the head it ranges nearest; nearest_heads picks that head by squared
distance and ranges only the pair it picked, which gives the same head and
the same distance bits as ranging every head.

Per-node arrays are indexed by node id.  Neighborhoods are directed edge
lists built once by neighbor_edges: edge k makes dst[k] a neighbor of
src[k], and neighborhood sums are bincounts over src, so memory and time
grow with the number of edges, not with n^2.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ContractViolation, RadioParams
from .radio import tx_energy_per_bit


# --- energy factor -----------------------------------------------------------

def energy_factors_all(e: np.ndarray, belief: np.ndarray, src: np.ndarray,
                       dst: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Node energy over the mean believed energy of its live neighbors.

    Edge k makes dst[k] a neighbor of src[k]; live[j] is 1 for a neighbor
    that counts (alive) and 0 for one that does not.  A node with no live
    neighbors, or whose neighbors' mean belief is 0, gets 1.  The fallback
    tests the mean, not the sum: a positive sum of subnormal beliefs can
    still have a mean that rounds to 0.
    """
    w = live[dst]
    counts = np.bincount(src, weights=w, minlength=e.size)
    sums = np.bincount(src, weights=w * belief[dst], minlength=e.size)
    ok = (counts > 0) & (sums / np.maximum(counts, 1) > 0)
    return np.divide(e * counts, sums, out=np.ones(e.shape), where=ok)


# --- communication-cost factor ----------------------------------------------

def avg_round_energies_all(l_sched: np.ndarray, cost_per_bit: np.ndarray,
                           src: np.ndarray, dst: np.ndarray, live: np.ndarray,
                           ideal_fallback: float) -> np.ndarray:
    """Per node, the mean energy of one transmission from each live neighbor
    to it.

    cost_per_bit[k] is the static per-bit cost e_elec + amplifier(d) over
    edge k, from neighbor dst[k] to node src[k]; l_sched holds each node's
    scheduled message length for this round and live is as in
    energy_factors_all.  A node with no live neighbors gets ideal_fallback,
    so its cost factor degenerates to 1.
    """
    w = live[dst]
    counts = np.bincount(src, weights=w, minlength=l_sched.size)
    sums = np.bincount(src, weights=cost_per_bit * l_sched[dst] * w,
                       minlength=l_sched.size)
    out = np.full(l_sched.shape, ideal_fallback, dtype=float)
    return np.divide(sums, counts, out=out, where=counts > 0)


def cost_factors_all(e_ideal: float, e_round: np.ndarray, cap: float) -> np.ndarray:
    """Ideal per-transmission energy over each node's would-be intra-cluster
    mean, capped at cap; a node whose mean is not positive gets cap."""
    out = np.full(e_round.shape, cap, dtype=float)
    ok = e_round > 0
    out[ok] = np.minimum(e_ideal / e_round[ok], cap)
    return out


# --- election probability and threshold -------------------------------------

_P_EPS = 1e-12


def election_probabilities_all(p_opt: float, w: np.ndarray) -> np.ndarray:
    """p_i = p_opt * w_i, clamped into the open interval (0, 1)."""
    # np.clip's result, at a fraction of its per-call cost
    return np.minimum(np.maximum(p_opt * w, _P_EPS), 1.0 - _P_EPS)


def rotation_epochs(p: np.ndarray) -> np.ndarray:
    """Rounds per rotation epoch: ceil(1/p), finite because p > 0."""
    return np.ceil(1.0 / p).astype(np.int64)


def eepca_thresholds_all(p: np.ndarray, r: int, r_s: np.ndarray, w: np.ndarray,
                         in_g: np.ndarray, epoch: np.ndarray | None = None) -> np.ndarray:
    """Election threshold of every node in round r.

    The classic rotation threshold p/(1 - p*(r mod epoch)), or 1 where the
    denominator is not positive, is scaled by the bracket w + k*max(1 - w, 0),
    where k = r_s // epoch counts the whole epochs the node has gone
    unelected.  The starvation bonus is never negative: a node with w >= 1
    keeps w however long it waits, and a node with w < 1 reaches 1 after one
    epoch and passes it after more.  With w == 1 this is the classic
    threshold.  Clamped into [0, 1], and 0 for nodes outside the eligible
    set in_g.  epoch is rotation_epochs(p), for a caller that has it already.
    """
    if epoch is None:
        epoch = rotation_epochs(p)
    denom = 1.0 - p * (r % epoch)
    base = np.divide(p, denom, out=np.ones(p.shape), where=denom > 0)
    t = base * (w + (r_s // epoch) * np.maximum(1.0 - w, 0.0))
    return np.minimum(np.maximum(t, 0.0), 1.0) * in_g


# --- prediction-based broadcast suppression ---------------------------------

def broadcast_suppressed(belief: np.ndarray, e: np.ndarray, epsilon_tol: float,
                         literal_rule: bool = False) -> np.ndarray:
    """Which nodes may skip their setup broadcast.

    belief is the residual energy neighbors compute for each node and e its
    actual residual, which must be positive.  The relative prediction error is
    gamma = |1 - belief/e|.  Default rule: suppress iff gamma <= 1 - epsilon_tol,
    so epsilon_tol = 1 means zero tolerance (any error forces a broadcast) and
    lower values tolerate larger errors.  literal_rule uses gamma < epsilon_tol
    instead.
    """
    if np.count_nonzero(e <= 0):
        raise ContractViolation("prediction error is undefined for a dead node (e <= 0)")
    gamma = np.abs(1.0 - belief / e)
    if literal_rule:
        return gamma < epsilon_tol
    return gamma <= 1.0 - epsilon_tol


# --- ranging -----------------------------------------------------------------

def estimated_distance_matrix(dx: np.ndarray, dy: np.ndarray,
                              radio: RadioParams, broadcast_energy: float) -> np.ndarray:
    """Distances as nodes estimate them from broadcast RSS, elementwise over
    coordinate differences of any shape (edges, or members x heads).

    The received strength k_rss * E / d^alpha_pathloss of a broadcast sent
    with energy E is inverted back to a distance.  Co-located nodes receive
    infinite strength and so estimate 0.
    """
    d_true = np.hypot(dx, dy)
    k_e = radio.k_rss * broadcast_energy
    with np.errstate(divide="ignore"):
        rec = k_e / d_true ** radio.alpha_pathloss
        return (k_e / rec) ** (1.0 / radio.alpha_pathloss)


# Members are matched to heads in blocks of about this many member-head pairs:
# 8,192 pairs make each float temporary 64 KB, which stays in cache and stops
# the per-round page-fault churn that larger blocks cause.  A round at n=100
# (about 85 members x 15 heads) is still one block.
_PAIRS_PER_BLOCK = 1 << 13
# Squared distances within this relative gap of a row's minimum count as a
# near-tie: rounding in the ranging chain could swap their order.
_TIE_GAP = 1e-9
# Binary orders of magnitude kept clear of each end of the normal range.
_RANGE_MARGIN = 64


def ranging_window(radio: RadioParams, broadcast_energy: float) -> tuple[float, float]:
    """Squared distances (lo, hi) over which estimated_distance_matrix is exact
    enough to be ordered by squared distance.

    For a squared distance sq in [lo, hi], sq itself, d^alpha = sq^(alpha/2)
    and k_rss * E / d^alpha are all normal, finite floats at least
    2**_RANGE_MARGIN away from underflow and overflow, so each step of the
    ranging chain is monotone and accurate to a few ulps.  The window is
    empty (lo > hi) when no squared distance qualifies.
    """
    lo_exp, hi_exp = -1022 + _RANGE_MARGIN, 1023 - _RANGE_MARGIN
    k_e = radio.k_rss * broadcast_energy
    if not 2.0 ** lo_exp <= k_e <= 2.0 ** hi_exp:
        return math.inf, 0.0
    a = radio.alpha_pathloss
    log_k = math.log2(k_e)
    lo = max(lo_exp, 2.0 * lo_exp / a, 2.0 * (log_k - hi_exp) / a)
    hi = min(hi_exp, 2.0 * hi_exp / a, 2.0 * (log_k - lo_exp) / a)
    if lo > hi:
        return math.inf, 0.0
    return 2.0 ** lo, 2.0 ** hi


def nearest_heads(xm: np.ndarray, ym: np.ndarray, xh: np.ndarray, yh: np.ndarray,
                  radio: RadioParams, broadcast_energy: float,
                  window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Each member's nearest head by estimated distance: (head index, distance).

    Equal, bit for bit, to argmin over estimated_distance_matrix of every
    member-head pair (lowest head index on ties) and that argmin's distance.
    A member's head is picked by squared distance dx*dx + dy*dy, and only
    the pair picked is ranged.  That is exact when one head alone lies
    within _TIE_GAP of the member's smallest squared distance and that
    distance lies in window, the ranging_window of radio and
    broadcast_energy: there the chain's rounding is far below the gap.  Any
    other member (near-ties, co-located heads, estimates that saturate to 0
    or inf) ranges every head and takes the argmin.
    """
    choice = np.empty(xm.size, dtype=np.int64)
    n_near = np.empty(xm.size, dtype=np.int64)
    sq_min = np.empty(xm.size)
    step = max(1, _PAIRS_PER_BLOCK // xh.size)
    for start in range(0, xm.size, step):
        blk = slice(start, start + step)
        # heads x members, so the reductions run over contiguous rows
        dx = xh[:, None] - xm[blk]
        dy = yh[:, None] - ym[blk]
        sq = np.multiply(dx, dx, out=dx)
        sq += np.multiply(dy, dy, out=dy)
        sq_min[blk] = np.minimum.reduce(sq, axis=0)
        near = sq <= sq_min[blk] * (1.0 + _TIE_GAP)
        choice[blk] = near.argmax(axis=0)
        n_near[blk] = np.add.reduce(near, axis=0)
    lo, hi = window
    unclear = (n_near != 1) | (sq_min < lo) | (sq_min > hi)
    rows = unclear.nonzero()[0]
    if rows.size:
        d = estimated_distance_matrix(xm[rows][:, None] - xh, ym[rows][:, None] - yh,
                                      radio, broadcast_energy)
        choice[rows] = np.argmin(d, axis=1)
    d_est = estimated_distance_matrix(xm - xh[choice], ym - yh[choice],
                                      radio, broadcast_energy)
    return choice, d_est


def cost_per_bit_matrix(d_est: np.ndarray, radio: RadioParams) -> np.ndarray:
    """Per-bit transmission cost over estimated distances, elementwise."""
    return tx_energy_per_bit(d_est, radio)


# Cells are a little wider than the radius, and there are at most this many
# to a side, so that rounding in the cell index can never put two neighbors
# more than one cell apart and the cell keys stay small integers.
_CELL_SLACK = 1.0 + 1e-6
_MAX_CELLS = 1 << 20


def neighbor_edges(x: np.ndarray, y: np.ndarray, radius: float, radio: RadioParams,
                   broadcast_energy: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed neighbor edges (src, dst, d_est), sorted by src then dst.

    dst is a neighbor of src when src != dst and the distance src estimates
    to dst is at most radius; co-located nodes (distance 0) are neighbors.
    Candidates come from a uniform cell grid: each node is compared only with
    the nodes in its own and the 8 surrounding cells, so the cost is
    O(n + candidate pairs) instead of O(n^2).
    """
    side = max(radius * _CELL_SLACK, max(np.ptp(x), np.ptp(y)) / _MAX_CELLS)
    cx = np.floor((x - x.min()) / side).astype(np.int64)
    cy = np.floor((y - y.min()) / side).astype(np.int64)
    # a column holds cy.max() + 1 cells plus an empty guard cell at each end,
    # so a step of -1 or +1 in y never wraps into the next column
    stride = int(cy.max()) + 3
    key = cx * stride + cy + 1
    order = np.argsort(key)
    sorted_key = key[order]
    # row i holds the keys of node i's own cell and its 8 surrounding cells
    offsets = (np.array([-1, 0, 1])[:, None] * stride + np.array([-1, 0, 1])).ravel()
    cells = (key[:, None] + offsets).ravel()
    lo = np.searchsorted(sorted_key, cells, side="left")
    cnt = np.searchsorted(sorted_key, cells, side="right") - lo
    # query q = 9 * i + k meets sorted positions lo[q] .. lo[q] + cnt[q] - 1
    query = np.repeat(np.arange(cells.size), cnt)
    pos = np.arange(query.size) + (lo - (np.cumsum(cnt) - cnt))[query]
    src, dst = query // 9, order[pos]
    d_est = estimated_distance_matrix(x[src] - x[dst], y[src] - y[dst],
                                      radio, broadcast_energy)
    keep = (src != dst) & (d_est <= radius)
    src, dst, d_est = src[keep], dst[keep], d_est[keep]
    idx = np.lexsort((dst, src))
    return src[idx], dst[idx], d_est[idx]
