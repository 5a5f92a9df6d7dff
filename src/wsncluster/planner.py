"""Closed-form planning quantities for an idealized uniform deployment.

These give the optimal cluster-head count for a square field, the expected
member-to-head distances under a uniform-in-disc member distribution, and the
ideal mean per-transmission energy a well-placed head would see.  The last
value is the numerator of the communication-cost factor used during election.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import RadioParams, ScenarioConfig
from .radio import tx_energy_per_bit


@dataclass(frozen=True)
class IdealPlan:
    d_cluster: float       # ideal cluster radius, M / sqrt(pi * k_opt)
    k_opt: float
    p_opt: float
    e_consume_avg: float   # ideal mean per-node per-transmission energy


def d_to_bs(m_field: float) -> float:
    """Mean head-to-base-station distance for a centred BS: 0.765 * M/2."""
    return 0.765 * m_field / 2.0


def k_opt(n: int, m_field: float, radio: RadioParams) -> float:
    """Optimal cluster-head count for n nodes on an m_field square."""
    dbs = d_to_bs(m_field)
    return (math.sqrt(n) / math.sqrt(2.0 * math.pi)
            * math.sqrt(radio.eps_fs / radio.eps_mp)
            * m_field / (dbs * dbs))


def p_opt(n: int, m_field: float, radio: RadioParams) -> float:
    """Optimal head proportion k_opt / n, clamped into (0, 1]."""
    p = k_opt(n, m_field, radio) / n
    if p > 1.0:
        warnings.warn(f"optimal head proportion {p:.3f} exceeds 1; clamping", stacklevel=2)
        return 1.0
    return p


def ideal_member_counts(n: int, k: float, d_cluster: float, d0: float) -> tuple[float, float]:
    """Expected members within / beyond d0 of their head in an ideal cluster.

    When the cluster radius does not exceed d0, every member is within d0 and
    the split ratio is degenerate (m2 clamped to 0).
    """
    per_cluster = n / k
    if d_cluster <= d0:
        return per_cluster, 0.0
    lam = d0 * d0 / (d_cluster * d_cluster - d0 * d0)
    m1 = lam * per_cluster / (lam + 1.0)
    m2 = per_cluster / (lam + 1.0)
    return m1, m2


def expected_member_distances(d_cluster: float, d0: float) -> tuple[float, float]:
    """Expected distance to the head for the near (< d0) and far groups."""
    e_d1 = (2.0 / 3.0) * min(d0, d_cluster)
    if d_cluster > d0:
        e_d2 = (2.0 / 3.0) * (d_cluster - d0) + d0
    else:
        e_d2 = 0.0
    return e_d1, e_d2


def ideal_avg_tx_energy(l_bits: float, n: int, k: float, m1: float, m2: float,
                        e_d1: float, e_d2: float, radio: RadioParams) -> float:
    """Ideal mean energy for one member-to-head transmission: the per-bit
    transmit cost at each group's expected distance, weighed by its members.
    """
    near, far = tx_energy_per_bit(np.array([e_d1, e_d2]), radio).tolist()
    return l_bits * (m1 * near + m2 * far) / (n / k)


def expected_message_length(config: ScenarioConfig) -> float:
    """Population-average scheduled message length, used as the ideal l."""
    rda_mean = sum(config.msg_len_range_bits) / 2.0
    nonrda_mean = sum(config.nonrda_len_range_bits) / 2.0
    return config.frac_rda * rda_mean + (1.0 - config.frac_rda) * nonrda_mean


def make_plan(config: ScenarioConfig) -> IdealPlan:
    """Evaluate the full analytic plan for a scenario."""
    radio = config.radio
    n, m = config.n_nodes, config.m_field
    k = k_opt(n, m, radio)
    p = p_opt(n, m, radio)
    d_cluster = m / math.sqrt(math.pi * k)
    m1, m2 = ideal_member_counts(n, k, d_cluster, radio.d0)
    e_d1, e_d2 = expected_member_distances(d_cluster, radio.d0)
    e_avg = ideal_avg_tx_energy(expected_message_length(config), n, k, m1, m2,
                                e_d1, e_d2, radio)
    return IdealPlan(d_cluster=d_cluster, k_opt=k, p_opt=p, e_consume_avg=e_avg)
