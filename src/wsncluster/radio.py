"""First-order radio energy model.

Transmission cost is piecewise in distance: free-space (d^2 amplifier) below
the crossover distance d0, multipath (d^4) at or above it.
"""

from __future__ import annotations

import numpy as np

from .model import ContractViolation, RadioParams


def tx_energy(l_bits: float, d: float, radio: RadioParams) -> float:
    """Energy in joules to transmit l_bits over distance d.

    Takes the multipath branch at exactly d == d0.
    """
    if l_bits < 0 or d < 0:
        raise ContractViolation(f"tx_energy requires l >= 0 and d >= 0, got l={l_bits}, d={d}")
    if d < radio.d0:
        return l_bits * radio.e_elec + l_bits * radio.eps_fs * d * d
    return l_bits * radio.e_elec + l_bits * radio.eps_mp * d ** 4


def rx_energy(l_bits: float, radio: RadioParams) -> float:
    """Energy to receive l_bits."""
    if l_bits < 0:
        raise ContractViolation(f"rx_energy requires l >= 0, got {l_bits}")
    return l_bits * radio.e_elec


def amplifier_energy_per_bit(d, radio: RadioParams):
    """Vectorized amplifier term of the transmit model: eps_fs*d^2 or eps_mp*d^4.

    Accepts scalars or arrays; the electronics term (e_elec per bit) is not
    included.
    """
    d = np.asarray(d, dtype=float)
    return np.where(d < radio.d0, radio.eps_fs * d * d, radio.eps_mp * d ** 4)


def tx_energy_per_bit(d, radio: RadioParams):
    """Vectorized per-bit transmit cost (electronics + amplifier)."""
    return radio.e_elec + amplifier_energy_per_bit(d, radio)
