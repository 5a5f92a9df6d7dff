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
are the ones nodes estimate from the received strength of those broadcasts.

Every function takes and returns arrays indexed by node id.
"""

from __future__ import annotations

import numpy as np

from .model import ContractViolation, RadioParams
from .radio import tx_energy_per_bit


# --- energy factor -----------------------------------------------------------

def energy_factors_all(e: np.ndarray, belief: np.ndarray, neigh: np.ndarray) -> np.ndarray:
    """Node energy over the mean believed energy of its live neighbors.

    neigh[i, j] marks j as a live neighbor of i.  A node with no neighbors,
    or whose neighbors' mean belief is 0, gets 1.  The fallback tests the
    mean, not the sum: a positive sum of subnormal beliefs can still have a
    mean that rounds to 0.
    """
    counts = neigh.sum(axis=1)
    sums = neigh @ belief
    out = np.ones_like(e)
    ok = (counts > 0) & (sums / np.maximum(counts, 1) > 0)
    out[ok] = e[ok] * counts[ok] / sums[ok]
    return out


# --- communication-cost factor ----------------------------------------------

def avg_round_energies_all(l_sched: np.ndarray, cost_per_bit: np.ndarray,
                           neigh: np.ndarray, ideal_fallback: float) -> np.ndarray:
    """Per node, the mean energy of one transmission from each neighbor to it.

    cost_per_bit is the static matrix e_elec + amplifier(d_ij); l_sched holds
    each node's scheduled message length for this round.  A node with no
    neighbors gets ideal_fallback, so its cost factor degenerates to 1.
    """
    counts = neigh.sum(axis=1)
    sums = (cost_per_bit * neigh) @ l_sched
    out = np.full(l_sched.shape, ideal_fallback, dtype=float)
    ok = counts > 0
    out[ok] = sums[ok] / counts[ok]
    return out


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
    return np.clip(p_opt * w, _P_EPS, 1.0 - _P_EPS)


def rotation_epochs(p: np.ndarray) -> np.ndarray:
    """Rounds per rotation epoch: ceil(1/p), finite because p > 0."""
    return np.ceil(1.0 / p).astype(np.int64)


def eepca_thresholds_all(p: np.ndarray, r: int, r_s: np.ndarray, w: np.ndarray,
                         in_g: np.ndarray) -> np.ndarray:
    """Election threshold of every node in round r.

    The classic rotation threshold p/(1 - p*(r mod epoch)), or 1 where the
    denominator is not positive, is scaled by the bracket w + k*max(1 - w, 0),
    where k = r_s // epoch counts the whole epochs the node has gone
    unelected.  The starvation bonus is never negative: a node with w >= 1
    keeps w however long it waits, and a node with w < 1 reaches 1 after one
    epoch and passes it after more.  With w == 1 this is the classic
    threshold.  Clamped into [0, 1], and 0 for nodes outside the eligible
    set in_g.
    """
    epoch = rotation_epochs(p)
    denom = 1.0 - p * (r % epoch)
    base = np.where(denom > 0, p / np.where(denom > 0, denom, 1.0), 1.0)
    t = base * (w + (r_s // epoch) * np.maximum(1.0 - w, 0.0))
    return np.clip(t, 0.0, 1.0) * in_g


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
    if (e <= 0).any():
        raise ContractViolation("prediction error is undefined for a dead node (e <= 0)")
    gamma = np.abs(1.0 - belief / e)
    if literal_rule:
        return gamma < epsilon_tol
    return gamma <= 1.0 - epsilon_tol


# --- ranging -----------------------------------------------------------------

def estimated_distance_matrix(x: np.ndarray, y: np.ndarray,
                              radio: RadioParams, broadcast_energy: float) -> np.ndarray:
    """All-pairs distances as nodes estimate them from broadcast RSS.

    The received strength k_rss * E / d^alpha_pathloss of a broadcast sent
    with energy E is inverted back to a distance; the diagonal is 0.
    """
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d_true = np.hypot(dx, dy)
    est = np.zeros_like(d_true)
    off = d_true > 0
    rec = radio.k_rss * broadcast_energy / d_true[off] ** radio.alpha_pathloss
    est[off] = (radio.k_rss * broadcast_energy / rec) ** (1.0 / radio.alpha_pathloss)
    return est


def cost_per_bit_matrix(d_est: np.ndarray, radio: RadioParams) -> np.ndarray:
    """Static matrix of per-bit neighbor-to-node transmission cost."""
    return tx_energy_per_bit(d_est, radio)
