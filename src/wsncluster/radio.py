"""First-order radio energy model.

Transmission cost is piecewise in distance: free-space (d^2 amplifier) below
the crossover distance d0, multipath (d^4) at or above it.  Every transmit
cost is a length in bits times tx_energy_per_bit, the one formula.
"""

from __future__ import annotations

import numpy as np

from .model import ContractViolation, RadioParams


def tx_energy(l_bits: float, d, radio: RadioParams):
    """Energy in joules to transmit l_bits over distance d, a float or an
    array of distances: l_bits * tx_energy_per_bit(d, radio), to the bit."""
    d = np.asarray(d, dtype=float)
    if l_bits < 0 or np.count_nonzero(d < 0):
        raise ContractViolation(f"tx_energy requires l >= 0 and d >= 0, got l={l_bits}, d={d}")
    return l_bits * tx_energy_per_bit(d, radio)


def rx_energy(l_bits: float, radio: RadioParams) -> float:
    """Energy to receive l_bits."""
    if l_bits < 0:
        raise ContractViolation(f"rx_energy requires l >= 0, got {l_bits}")
    return l_bits * radio.e_elec


def tx_energy_per_bit(d, radio: RadioParams):
    """Per-bit transmit cost, e_elec + (eps_fs*d)*d below d0 and
    e_elec + eps_mp*((d*d)*(d*d)) at or above it, over a float or an array
    of distances.

    d^4 is two multiplies, d*d and its square, each correctly rounded, so
    the cost has the same bits on every host: numpy's array power rounds
    d^4 differently under different SIMD loops (AVX512 or not), and libm's
    pow may differ from both.  The multipath term is evaluated only at the
    distances that take it.
    """
    d = np.asarray(d, dtype=float)
    amp = np.asarray(radio.eps_fs * d)
    amp *= d
    far = d >= radio.d0
    if np.count_nonzero(far):
        d4 = d[far]
        d4 *= d4
        d4 *= d4
        amp[far] = radio.eps_mp * d4
    amp += radio.e_elec
    return amp if amp.ndim else amp[()]
