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
the same distance bits as ranging every head.  It screens squared
distances with one float32 matrix product per block of members: heads
[1, -2x, -2y, |h|^2] times members [|m|^2, x, y, 1] gives
|h|^2 - 2 h.m + |m|^2, within 32 float32 eps (max |h|^2 + |m|^2) of the
exact value whatever the product's summation order (the derivation, with
the rounding of the coordinates to float32 and of the cut, is at
_SCREEN_ERR), and a member settles only when that bound leaves a single
head near.  Only the screen is float32: the coordinates a settled member is
ranged from stay float64.  Positions never change within a run, so a small
field instead ranges every pair once: nearest_ranks gives each node's rank
of every node by estimated distance and the per-bit cost to it, and
ranked_heads picks each member's head of lowest rank, the same head with
the same cost bits.  The tables are n x n, so head_picker, which makes a
run's pick, keeps them to fields where their one-off cost is soon repaid
(RANK_MAX_NODES).

Per-node arrays are indexed by node id.  Neighborhoods are directed edge
lists built once by neighbor_edges: edge k makes dst[k] a neighbor of
src[k], and neighborhood sums are bincounts over src, so memory and time
grow with the number of edges, not with n^2.  neighbor_edges puts the
nodes in grid cells at least radius wide, and at least max(ptp) / isqrt(n)
wide so that there are O(n) of them.  A node meets the later nodes of its
own cell and every node of 4 forward cells (a half stencil), which meets
each pair in the same or adjacent cells once.  A pair whose squared distance
lies in ranging_window and more than _TIE_GAP above radius^2 is too far
whatever the rounding, and is not ranged; any other is ranged once for both
its edges.  The estimate is symmetric: x[i] - x[j] is exactly
-(x[j] - x[i]), and hypot ignores signs.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .model import ContractViolation, RadioParams
from .radio import tx_energy_per_bit


# --- energy factor -----------------------------------------------------------

class LiveNeighbors(NamedTuple):
    """What the edges src, dst give over a live mask (live_neighbors)."""
    w: np.ndarray         # live[dst], each edge's live weight
    counts: np.ndarray    # live neighbours per node
    has: np.ndarray       # counts > 0
    denom: np.ndarray     # np.maximum(counts, 1)
    all_live: bool        # every edge's dst is live: w is all ones


def live_neighbors(src: np.ndarray, dst: np.ndarray, live: np.ndarray) -> LiveNeighbors:
    """live[dst] and the live neighbor count per node over the edges src, dst,
    with the count's positive mask and floor of 1.

    Edge k makes dst[k] a neighbor of src[k]; live[j] is 1 for a neighbor
    that counts (alive) and 0 for one that does not, and a bool mask reads
    as 1 and 0.  All of it changes only when a node dies, so the engine
    keeps it until one does: the election's factors read it, and the counts
    are what each node hears in a setup round where every alive node
    broadcasts.  While every edge's neighbour is live, the factors skip
    multiplying by w.
    """
    w = live[dst]
    counts = np.bincount(src, weights=w, minlength=live.size)
    return LiveNeighbors(w, counts, counts > 0, np.maximum(counts, 1),
                         np.count_nonzero(w) == w.size)


def energy_factors_all(e: np.ndarray, belief: np.ndarray, src: np.ndarray,
                       dst: np.ndarray, nb: LiveNeighbors) -> np.ndarray:
    """Node energy over the mean believed energy of its live neighbors.

    nb is live_neighbors over the edges src, dst.  A node with no live
    neighbors, or whose neighbors' mean belief is 0, gets 1.  The fallback
    tests the mean, not the sum: a positive sum of subnormal beliefs can
    still have a mean that rounds to 0.
    """
    b = belief[dst]
    sums = np.bincount(src, weights=b if nb.all_live else nb.w * b, minlength=e.size)
    ok = nb.has & (sums / nb.denom > 0)
    return np.divide(e * nb.counts, sums, out=np.ones(e.shape), where=ok)


# --- communication-cost factor ----------------------------------------------

def avg_round_energies_all(l_sched: np.ndarray, cost_per_bit: np.ndarray,
                           src: np.ndarray, dst: np.ndarray, nb: LiveNeighbors,
                           ideal_fallback: float) -> np.ndarray:
    """Per node, the mean energy of one transmission from each live neighbor
    to it.

    cost_per_bit[k] is the static per-bit cost e_elec + amplifier(d) over
    edge k, from neighbor dst[k] to node src[k]; l_sched holds each node's
    scheduled message length for this round, and nb is live_neighbors over
    the edges.  A node with no live neighbors gets ideal_fallback, so its
    cost factor degenerates to 1.
    """
    cost = cost_per_bit * l_sched[dst]
    sums = np.bincount(src, weights=cost if nb.all_live else cost * nb.w,
                       minlength=l_sched.size)
    out = np.full(l_sched.shape, ideal_fallback, dtype=float)
    return np.divide(sums, nb.counts, out=out, where=nb.has)


# The largest communication-cost factor a node can have.
COST_FACTOR_CAP = 5.0


def cost_factors_all(e_ideal: float, e_round: np.ndarray) -> np.ndarray:
    """Ideal per-transmission energy over each node's would-be intra-cluster
    mean, capped at COST_FACTOR_CAP; a node whose mean is not positive gets
    the cap."""
    out = np.full(e_round.shape, COST_FACTOR_CAP, dtype=float)
    ok = e_round > 0
    out[ok] = np.minimum(e_ideal / e_round[ok], COST_FACTOR_CAP)
    return out


# --- election probability and threshold -------------------------------------

_P_EPS = 1e-12


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    """p clamped into the open interval (0, 1), [_P_EPS, 1 - _P_EPS]."""
    # np.clip's result, at a fraction of its per-call cost
    return np.minimum(np.maximum(p, _P_EPS), 1.0 - _P_EPS)


def election_probabilities_all(p_opt: float, w: np.ndarray) -> np.ndarray:
    """p_i = p_opt * w_i, clamped into the open interval (0, 1)."""
    return clamp_probabilities(p_opt * w)


def rotation_epochs(p: np.ndarray) -> np.ndarray:
    """Rounds per rotation epoch: ceil(1/p), finite because p > 0."""
    return np.ceil(1.0 / p).astype(np.int64)


def eepca_thresholds_all(p: np.ndarray, r_s: np.ndarray, w: np.ndarray | None,
                         in_g: np.ndarray, epoch: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Election threshold of every node in round r, where epoch is
    rotation_epochs(p) and phase is r % epoch.

    The classic rotation threshold p/(1 - p*(r mod epoch)), or 1 where the
    denominator is not positive, is scaled by the bracket w + k*max(1 - w, 0),
    where k = r_s // epoch counts the whole epochs the node has gone
    unelected.  The starvation bonus is never negative: a node with w >= 1
    keeps w however long it waits, and a node with w < 1 reaches 1 after one
    epoch and passes it after more.  With w == 1 this is the classic
    threshold, and w=None stands for unit weights: the bracket is then 1.0
    exactly and is skipped.  Clamped into [0, 1], and 0 for nodes outside the
    eligible set in_g.
    """
    denom = 1.0 - p * phase
    t = np.divide(p, denom, out=np.ones(p.shape), where=denom > 0)
    if w is not None:
        t *= w + (r_s // epoch) * np.maximum(1.0 - w, 0.0)
    return np.minimum(np.maximum(t, 0.0), 1.0) * in_g


# --- prediction-based broadcast suppression ---------------------------------

def broadcast_suppressed(belief: np.ndarray, e: np.ndarray, epsilon_tol: float) -> np.ndarray:
    """Which nodes may skip their setup broadcast.

    belief is the residual energy neighbors compute for each node and e its
    actual residual, which must be positive.  The relative prediction error is
    gamma = |1 - belief/e|, and a node is suppressed iff gamma <= 1 - epsilon_tol,
    so epsilon_tol = 1 means zero tolerance (any error forces a broadcast) and
    lower values tolerate larger errors.
    """
    if np.count_nonzero(e <= 0):
        raise ContractViolation("prediction error is undefined for a dead node (e <= 0)")
    return np.abs(1.0 - belief / e) <= 1.0 - epsilon_tol


# --- ranging -----------------------------------------------------------------

def estimated_distance_matrix(dx: np.ndarray, dy: np.ndarray,
                              radio: RadioParams, broadcast_energy: float) -> np.ndarray:
    """Distances as nodes estimate them from broadcast RSS, elementwise over
    coordinate differences of any shape (edges, or members x heads).

    The received strength k_rss * E / d^alpha_pathloss of a broadcast sent
    with energy E is inverted back to a distance.  Co-located nodes receive
    infinite strength and so estimate 0.  The chain runs in place on the
    hypot output, with the ufunc loops, and the ** fast paths (square, sqrt,
    positive), of (k_e / (k_e / d^a))^(1/a) written out.
    """
    d = np.hypot(dx, dy)
    k_e = radio.k_rss * broadcast_energy
    with np.errstate(divide="ignore"):
        d **= radio.alpha_pathloss
        np.divide(k_e, d, out=d)  # received strength
        np.divide(k_e, d, out=d)
        d **= 1.0 / radio.alpha_pathloss
    return d


# Members are matched to heads in blocks of about this many member-head pairs:
# 65,536 float32 pairs make each temporary 256 KB.  A round of rda50 roles at
# n=1600 (about 1,560 members x 24 LEACH or 41 EEPCA heads) is then mostly
# one block: scripts/phase_times.py --against 1 << 14, median µs per round of
# nearest heads, leach 107 -> 93 and eepca 144 -> 128 at n=1600, leach
# 171 -> 156 and eepca 298 -> 259 at n=3200, with no page faults.  Larger
# blocks fault on every round at n=3200 (eepca, 76 heads: 46 minor page
# faults a round at 1 << 17 and 99 at 3 << 15, against none at 1 << 16).
_PAIRS_PER_BLOCK = 1 << 16
# Squared distances within this relative gap of a row's minimum count as a
# near-tie: rounding in the ranging chain could swap their order.
_TIE_GAP = 1e-9
# The screen runs in float32, whose unit roundoff is u = 2**-24.  For a pair
# with exact squared norms Qh and Qm of its float64 coordinates, the screened
# |h|^2 - 2 h.m + |m|^2 differs from the exact squared distance by at most
#   (u + 2**-51) (Qh + Qm)  from |h|^2 and |m|^2, formed in float64 and
#                           rounded to float32;
#   (2u + u^2) (Qh + Qm)    from rounding x, y, -2x and -2y to float32, since
#                           the cross terms 2|xh xm| + 2|yh ym| are at most
#                           Qh + Qm;
#   8.0001u (Qh + Qm)       from the 4-term product in any summation order,
#                           with or without fused multiply-adds: at most
#                           4u / (1 - 4u) times the sum of the terms' moduli,
#                           itself at most 2.0001 (Qh + Qm);
# about E = 11u (Qh + Qm) in all, where nothing underflows.  A member's cut is
# (min + e) + e in float32, at most 4.001u (max Q + Qm) below its exact value,
# and must clear (min + E) (1 + _TIE_GAP) + E, where min + E <= 2.001 (max Q +
# Qm): e = (13.01u + 1.001 _TIE_GAP) (max Q + Qm) does it.  _SCREEN_ERR = 32
# float32 eps = 64u leaves about 5x that whatever BLAS computes the product,
# and _SCREEN_TINY, added to every bound, covers the few minimum float32
# normals (2**-126) that underflow may cost.
_SCREEN_ERR = 32 * float(np.finfo(np.float32).eps)
_SCREEN_TINY = 2.0 ** -100
# Squared norms above this are taken as inf: a finite screen then keeps every
# coordinate, product, partial sum and cut, at most 4.01 max Q, below the
# float32 overflow at 2**128.
_SCREEN_MAX = 2.0 ** 125
# Binary orders of magnitude kept clear of each end of the normal range.
_RANGE_MARGIN = 64


def screen_operand(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-node float32 operand of nearest_heads' screen, 9 x n, with the rows

        0 err   _SCREEN_ERR * (|p|^2 + max |p|^2) + _SCREEN_TINY, max over
                every node
        1-4     [|p|^2, x, y, 1], the node's column as a member
        4-7     [1, -2x, -2y, |p|^2], the node's row as a head
        8       0, 1, ..., n - 1

    where |p|^2 = x*x + y*y is formed from the float64 coordinates and read
    as inf above _SCREEN_MAX, with x and y then read as 0: such a node makes
    every bound inf, and every screened value it enters inf.  Rows 4 and 8 of
    the first h columns are the tally [1; head index] of h heads, exact for h
    up to 2**24.  The member and head rows share the row of ones, so each is
    one contiguous block that a single take gathers.  A caller running many
    rounds over the same nodes builds this once for nearest_heads.
    """
    op = np.empty((9, x.size), dtype=np.float32)
    q = x * x + y * y
    far = q > _SCREEN_MAX
    if np.count_nonzero(far):
        q[far] = np.inf
        x, y = np.where(far, 0.0, x), np.where(far, 0.0, y)
    op[0] = (q + np.maximum.reduce(q)) * _SCREEN_ERR + _SCREEN_TINY
    op[1], op[2], op[3], op[4], op[7] = q, x, y, 1.0, q
    op[5], op[6] = x * -2.0, y * -2.0
    op[8] = np.arange(x.size)
    return op


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


def nearest_heads(x: np.ndarray, y: np.ndarray, op: np.ndarray, members: np.ndarray,
                  heads: np.ndarray, radio: RadioParams,
                  broadcast_energy: float) -> tuple[np.ndarray, np.ndarray]:
    """Each member's nearest head by estimated distance: (index into heads,
    distance), of the nodes members and heads, ids of the nodes at x, y
    whose screen_operand op is.

    Equal, bit for bit, to argmin over estimated_distance_matrix of every
    member-head pair (lowest head index on ties) and that argmin's distance.

    Each block of members is screened with one float32 matrix product,
    heads [1, -2x, -2y, |h|^2] times members [|m|^2, x, y, 1], which gives
    every squared distance within err = _SCREEN_ERR * (max |h|^2 + |m|^2) +
    _SCREEN_TINY of its exact value (the derivation is at _SCREEN_ERR); the
    max runs over every node of the screen_operand, a superset of the heads.
    A head is near when its screened value is at most (min + err) + err, the
    row's smallest value with the bound on both sides and room for
    _TIE_GAP; a second product of [1; head index] with the near mask counts
    each member's near heads and gives the index of a lone one.  A member
    settles when exactly one head is near and that pair's exact float64
    dx*dx + dy*dy lies in the ranging_window of radio and
    broadcast_energy: every other head is then more than _TIE_GAP farther,
    exactly, and the ranging chain's rounding is far below that gap.  Any
    other member (near-ties, co-located heads, estimates that saturate to 0
    or inf, norms too large for the bound) ranges every head and takes the
    argmin.  Only the pair chosen is ranged for a settled member.
    """
    m_op = op[:5].take(members, axis=1)
    err, m_op = m_op[0], m_op[1:]
    h_op, tally = op[4:8].take(heads, axis=1).T, op[4::4, :heads.size]
    xm, ym, xh, yh = x[members], y[members], x[heads], y[heads]
    # near heads and their index sum, per member
    found = np.empty((2, xm.size), dtype=np.float32)
    step = max(1, _PAIRS_PER_BLOCK // xh.size)
    for start in range(0, xm.size, step):
        blk = slice(start, start + step)
        # heads x members, so the reductions run over contiguous rows
        sq = h_op @ m_op[:, blk]
        e = err[blk]
        cut = np.minimum.reduce(sq, axis=0) + e
        cut += e
        found[:, blk] = tally @ np.less_equal(sq, cut, out=sq)
    n_near, choice = found
    choice = choice.astype(np.int64)  # the lone near head where n_near == 1
    # a member with several near heads may hold an index sum past the last
    # head; it is ranged below whatever head this reads
    dx = xm - xh.take(choice, mode="clip")
    dy = ym - yh.take(choice, mode="clip")
    sq = dx * dx + dy * dy
    lo, hi = ranging_window(radio, broadcast_energy)
    rows = ((n_near != 1) | (sq < lo) | (sq > hi)).nonzero()[0]
    if rows.size:
        d = estimated_distance_matrix(xm[rows][:, None] - xh, ym[rows][:, None] - yh,
                                      radio, broadcast_energy)
        choice[rows] = picked = np.argmin(d, axis=1)
        dx[rows] = xm[rows] - xh[picked]
        dy[rows] = ym[rows] - yh[picked]
    return choice, estimated_distance_matrix(dx, dy, radio, broadcast_energy)


def cost_per_bit_matrix(d_est: np.ndarray, radio: RadioParams) -> np.ndarray:
    """Per-bit transmission cost over estimated distances, elementwise."""
    return tx_energy_per_bit(d_est, radio)


def nearest_ranks(x: np.ndarray, y: np.ndarray, radio: RadioParams,
                  broadcast_energy: float) -> tuple[np.ndarray, np.ndarray]:
    """(rank, cost) of the nodes at x, y, each n x n: rank[i, j] is node j's
    place in node i's order of every node by the distance i estimates to it,
    0 for the nearest and the lower id first on ties (a stable argsort of
    estimated_distance_matrix), in the smallest unsigned type that holds
    n - 1; cost[i, j] is cost_per_bit_matrix of that estimate.  Both come
    from one contiguous matrix of every pair's estimate, formed by the ufuncs
    that range one pair, so each entry has the bits ranging that pair alone
    gives.
    """
    n = x.size
    d = estimated_distance_matrix(x[:, None] - x, y[:, None] - y, radio, broadcast_energy)
    rank = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    np.put_along_axis(rank, np.argsort(d, axis=1, kind="stable"),
                      np.arange(n, dtype=rank.dtype)[None], axis=1)
    return rank, cost_per_bit_matrix(d, radio)


def ranked_heads(rank: np.ndarray, cost: np.ndarray, members: np.ndarray,
                 heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's nearest head, from the tables of nearest_ranks: (index
    into heads, per-bit cost to it).  The head of lowest rank is the argmin
    over estimated_distance_matrix of every member-head pair, the lowest
    head id on ties, as nearest_heads picks it."""
    choice = rank.take(members, axis=0).take(heads, axis=1).argmin(axis=1)
    return choice, cost[members, heads[choice]]


def _screened_heads(x: np.ndarray, y: np.ndarray, op: np.ndarray, radio: RadioParams,
                    broadcast_energy: float, members: np.ndarray,
                    heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nearest_heads with the per-bit cost to each member's head."""
    choice, d_est = nearest_heads(x, y, op, members, heads, radio, broadcast_energy)
    return choice, cost_per_bit_matrix(d_est, radio)


# Fields of at most this many nodes pick each member's head from per-run
# n x n tables (nearest_ranks), larger ones through the float32 screen of
# nearest_heads.  scripts/phase_times.py --against the screen, rda50 roles
# at table1 density, median µs per round over 5 runs, screen -> tables:
# leach 294 -> 232 and eepca 437 -> 362 at n=100 run to exhaustion; over 40
# rounds leach 249 -> 200 and eepca 349 -> 288 at 150, leach 233 -> 190 and
# eepca 465 -> 390 at 200, and leach 405 -> 341 and eepca 551 -> 499 at
# 300.  But the tables take 0.65 ms to build at n=100, 3.4 ms at 200 and
# 8.7 ms at 300: a run repays them after 45 to 80 rounds at 200 and 140 to
# 170 at 300, while the n^2 set-up keeps growing.
RANK_MAX_NODES = 200


def head_picker(x: np.ndarray, y: np.ndarray, radio: RadioParams,
                broadcast_energy: float) -> functools.partial:
    """A run's pick of each member's head, for the nodes at x, y, whose
    positions never change within it: (members, heads) -> (index into
    heads, per-bit cost to it), members and heads being node ids.  It is
    ranked_heads over nearest_ranks' tables for at most RANK_MAX_NODES
    nodes, and nearest_heads over their screen_operand, then
    cost_per_bit_matrix, above.  Both give every member the head, and the
    cost bits, of the argmin over every ranged member-head pair.
    """
    if x.size <= RANK_MAX_NODES:
        return functools.partial(ranked_heads, *nearest_ranks(x, y, radio, broadcast_energy))
    return functools.partial(_screened_heads, x, y, screen_operand(x, y), radio,
                             broadcast_energy)


# Cells are a little wider than the radius, so that rounding in the cell
# index can never put two neighbors more than one cell apart.
_CELL_SLACK = 1.0 + 1e-6


def neighbor_edges(x: np.ndarray, y: np.ndarray, radius: float, radio: RadioParams,
                   broadcast_energy: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed neighbor edges (src, dst, d_est), sorted by src then dst.

    dst is a neighbor of src when src != dst and the distance src estimates
    to dst is at most radius; co-located nodes (distance 0) are neighbors.
    Candidates come from the half stencil of the module docstring.
    """
    n = x.size
    side = max(radius * _CELL_SLACK, max(np.ptp(x), np.ptp(y)) / math.isqrt(n))
    cx, cy = (np.floor((c - c.min()) / side).astype(np.int64) for c in (x, y))
    stride = int(cy.max()) + 3  # cy.max() + 1 cells, an empty guard cell at each end
    key = cx * stride + cy + 1
    order = np.argsort(key)
    # sorted positions bounds[c] .. bounds[c + 1] - 1 lie in cell c
    bounds = np.zeros((int(cx.max()) + 2) * stride + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=bounds.size - 1), out=bounds[1:])
    # row p: p's cell after p, then the cells (0, +1) and (+1, -1 .. +1).
    # Each array the size of the cells or of the candidates is dropped once
    # the next exists, and the steps that can run in place do.
    cells = key[order][:, None] + np.array([0, 1, stride - 1, stride, stride + 1])
    lo = bounds[cells]
    cells += 1
    cnt = bounds[cells]  # hi, then hi - lo
    del cells
    lo[:, 0] = np.arange(1, n + 1)
    cnt -= lo
    lo, cnt = lo.ravel(), cnt.ravel()
    query = np.repeat(np.arange(cnt.size), cnt)  # query 5p + k meets lo .. hi - 1
    lo -= np.cumsum(cnt)
    lo += cnt
    pos = lo[query]
    del lo, cnt
    pos += np.arange(pos.size)
    query //= 5
    a = order[query]
    del query
    b = order[pos]
    del pos
    # sq = dx*dx + dy*dy; the pairs kept are differenced again to be ranged
    sq = x[a]
    sq -= x[b]
    sq *= sq
    dy = y[a]
    dy -= y[b]
    dy *= dy
    sq += dy
    del dy
    w_lo, w_hi = ranging_window(radio, broadcast_energy)
    near = ((sq <= radius * radius * (1.0 + _TIE_GAP)) | (sq < w_lo) | (sq > w_hi)).nonzero()[0]
    del sq
    a, b = a[near], b[near]
    d_est = estimated_distance_matrix(x[a] - x[b], y[a] - y[b], radio, broadcast_energy)
    keep = d_est <= radius
    a, b, d_est = a[keep], b[keep], d_est[keep]
    key = np.concatenate((a * n + b, b * n + a))
    del a, b
    idx = np.argsort(key)
    key = key[idx]
    d_est = np.tile(d_est, 2)[idx]
    del idx
    return *np.divmod(key, n), d_est
