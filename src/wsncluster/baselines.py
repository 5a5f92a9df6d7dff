"""Baseline election policies: classic rotation (LEACH) and initial-energy
weighted rotation (SEP), sharing the engine and radio model.

Both use the rotation threshold of eepca.eepca_thresholds_all with unit
weights; they differ only in each node's election probability.  LEACH gives
every node p_opt.  SEP's two-level weighting is generalized to multi-level
heterogeneity by making each node's election probability proportional to its
initial energy, normalized so the probabilities sum to the optimal head count.
"""

from __future__ import annotations

import enum

import numpy as np

from .eepca import clamp_probabilities
from .model import ContractViolation


class PolicyKind(enum.Enum):
    LEACH = "leach"
    SEP = "sep"
    EEPCA = "eepca"

    @classmethod
    def parse(cls, name: str) -> "PolicyKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise ContractViolation(f"unknown policy {name!r}; choose from "
                                    f"{[p.value for p in cls]}") from None


def sep_probabilities(e_init: np.ndarray, p_opt: float) -> np.ndarray:
    """Per-node election probability proportional to initial energy.

    With equal initial energies every p_i equals p_opt (degenerates to LEACH);
    the probabilities always sum to the optimal head count p_opt * N.
    """
    total = float(e_init.sum())
    if total <= 0:
        raise ContractViolation("zero total initial energy")
    return clamp_probabilities(p_opt * e_init.size * e_init / total)

