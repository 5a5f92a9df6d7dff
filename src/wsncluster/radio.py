"""First-order radio energy model.

Transmission cost is piecewise in distance: free-space (d^2 amplifier) below
the crossover distance d0, multipath (d^4) at or above it.
"""

from __future__ import annotations

import numpy as np

from .model import ContractViolation, RadioParams


def tx_energy(l_bits: float, d, radio: RadioParams):
    """Energy in joules to transmit l_bits over distance d, a float or an
    array of distances.

    Takes the multipath branch at exactly d == d0.  Each element costs
    l*e_elec + l*eps_fs*d*d or l*e_elec + l*eps_mp*d**4, to the bit, with
    d**4 from the scalar power one element at a time: numpy's array power
    rounds differently in the last bit.
    """
    d = np.asarray(d, dtype=float)
    if l_bits < 0 or np.count_nonzero(d < 0):
        raise ContractViolation(f"tx_energy requires l >= 0 and d >= 0, got l={l_bits}, d={d}")
    with np.errstate(over="ignore"):
        d4 = np.array([v ** 4 for v in d.flat]).reshape(d.shape)
        amp = np.where(d < radio.d0, l_bits * radio.eps_fs * d * d, l_bits * radio.eps_mp * d4)
    return l_bits * radio.e_elec + amp


def rx_energy(l_bits: float, radio: RadioParams) -> float:
    """Energy to receive l_bits."""
    if l_bits < 0:
        raise ContractViolation(f"rx_energy requires l >= 0, got {l_bits}")
    return l_bits * radio.e_elec


def tx_energy_per_bit(d, radio: RadioParams):
    """Vectorized per-bit transmit cost, e_elec + eps_fs*d^2 or
    e_elec + eps_mp*d^4, over a float or an array of distances.

    The multipath term is evaluated only at the distances d >= d0 that
    take it; the free-space term (eps_fs*d)*d is formed in place.
    """
    d = np.asarray(d, dtype=float)
    amp = np.asarray(radio.eps_fs * d)
    amp *= d
    far = d >= radio.d0
    if np.count_nonzero(far):
        amp[far] = radio.eps_mp * d[far] ** 4
    return radio.e_elec + amp
