"""Domain types, scenario configuration and seeded random deployment.

A scenario describes a square field with N statically deployed sensor nodes
and one energy-unconstrained base station (default: field centre).  Nodes may
be heterogeneous in two ways: initial energy (drawn uniformly from
[e_min, e_max] for a configured fraction of nodes) and sensing role (a
fraction are regular-data-acquisition nodes with a per-round message schedule
drawn from configured ranges).  A further fraction is malfunctioning, which
perturbs their actual transmit energy and therefore defeats consumption
prediction.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional

import numpy as np


class ConfigError(ValueError):
    """A scenario field failed validation; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


class ContractViolation(ValueError):
    """An operation was called outside its contract."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(v, item) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and all(map(item, v))


# field annotation -> (what a value must be, its check)
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "tuple[int, int]": ("a pair of integers", lambda v: _is_pair(v, _is_int)),
    "tuple[float, float]": ("a pair of numbers", lambda v: _is_pair(v, _is_number)),
    "Optional[tuple[float, float]]": (
        "null or a pair of numbers", lambda v: v is None or _is_pair(v, _is_number)),
    "RadioParams": ("radio parameters", lambda v: isinstance(v, RadioParams)),
}


def _require_types(obj) -> None:
    """Reject a field whose value is not of its annotated type.

    Ints are not bools and floats may be ints, as JSON gives them; the
    checks run first, so the range checks compare numbers.
    """
    for f in fields(obj):
        what, check = _FIELD_TYPES[f.type]
        if not check(getattr(obj, f.name)):
            raise ConfigError(f.name, f"must be {what}")


def _require_finite(obj) -> None:
    """Reject NaN and +-inf in any float field or float tuple element.

    JSON scenario files may carry NaN and Infinity, and NaN passes every
    ordering check, so this runs before the range checks.
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        for item in v if isinstance(v, tuple) else (v,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f.name, "must be finite")


@dataclass(frozen=True)
class RadioParams:
    """Radio energy-model constants and the path-loss law used for ranging."""

    e_elec: float = 5e-9          # J/bit, transmitter/receiver electronics
    eps_fs: float = 10e-12        # J/bit/m^2, free-space amplifier
    eps_mp: float = 0.0013e-12    # J/bit/m^4, multipath amplifier
    d0: float = 75.0              # m, amplifier crossover distance
    k_rss: float = 1.0            # path-loss constant
    alpha_pathloss: float = 2.0   # path-loss exponent, in [1, 6]

    def __post_init__(self):
        _require_types(self)
        _require_finite(self)
        for name in ("e_elec", "eps_fs", "eps_mp", "d0", "k_rss", "alpha_pathloss"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be strictly positive")
        if not (1.0 <= self.alpha_pathloss <= 6.0):
            raise ConfigError("alpha_pathloss", "must lie in [1, 6]")


# At both bounds a round takes under a second and a run under 1 GB, on a
# field where every node neighbours every other: n_nodes * n_nodes edges.
MAX_NODES = 4096
MAX_FRAMES_PER_ROUND = 1024


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated network scenario."""

    m_field: float = 100.0
    n_nodes: int = 100
    bs_pos: Optional[tuple[float, float]] = None  # None -> field centre
    e_min: float = 1.0
    e_max: float = 3.0
    frac_energy_heterogeneous: float = 1.0
    homogeneous_energy: float = 2.0
    frac_rda: float = 0.0
    frac_malfunction: float = 0.0
    alpha: float = 0.7
    beta: float = 0.3
    epsilon_tol: float = 0.93
    frames_per_round: int = 5
    rda_msgs_range: tuple[int, int] = (3, 7)
    msg_len_range_bits: tuple[int, int] = (2000, 6000)
    broadcast_bits: int = 2500
    nonrda_tx_prob_per_frame: float = 1.0
    nonrda_len_range_bits: tuple[int, int] = (4000, 4000)
    neighbor_radius: float = 12.0
    e_da_per_bit: float = 5e-9
    fused_len_bits: int = 4000
    malfunction_noise_range: tuple[float, float] = (0.5, 1.5)
    rng_seed: int = 0
    radio: RadioParams = field(default_factory=RadioParams)

    def __post_init__(self):
        _require_types(self)
        _require_finite(self)
        if self.m_field <= 0:
            raise ConfigError("m_field", "must be positive")
        if self.n_nodes < 1:
            raise ConfigError("n_nodes", "must be at least 1")
        if self.n_nodes > MAX_NODES:
            raise ConfigError("n_nodes", f"must be at most {MAX_NODES}")
        if self.e_min > self.e_max:
            raise ConfigError("e_min", "must not exceed e_max")
        if self.e_min < 0:
            raise ConfigError("e_min", "must be non-negative")
        if self.homogeneous_energy < 0:
            raise ConfigError("homogeneous_energy", "must be non-negative")
        for name in ("frac_energy_heterogeneous", "frac_rda", "frac_malfunction",
                     "alpha", "beta", "epsilon_tol", "nonrda_tx_prob_per_frame"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(name, "must lie in [0, 1]")
        n_het = _flag_count(self.frac_energy_heterogeneous, self.n_nodes)
        if not ((n_het < self.n_nodes and self.homogeneous_energy > 0)
                or (n_het > 0 and self.e_max > 0)):
            raise ConfigError("homogeneous_energy" if n_het < self.n_nodes else "e_max",
                              "no node can start with positive energy")
        if abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise ConfigError("alpha", "alpha + beta must equal 1")
        if self.frames_per_round < 1:
            raise ConfigError("frames_per_round", "must be at least 1")
        if self.frames_per_round > MAX_FRAMES_PER_ROUND:
            raise ConfigError("frames_per_round", f"must be at most {MAX_FRAMES_PER_ROUND}")
        for name in ("rda_msgs_range", "msg_len_range_bits", "nonrda_len_range_bits",
                     "malfunction_noise_range"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 0:
                raise ConfigError(name, "must be a non-negative (lo, hi) range with lo <= hi")
        if self.broadcast_bits <= 0:
            # a broadcast sent with no energy cannot be ranged: 0/0 distances
            raise ConfigError("broadcast_bits", "must be positive")
        if self.fused_len_bits < 0:
            raise ConfigError("fused_len_bits", "must be non-negative")
        # below 2**31 a count times a length stays below 2**62, in int64, and
        # every bounded draw takes 32-bit halves (draws.py)
        for name in ("rda_msgs_range", "msg_len_range_bits", "nonrda_len_range_bits",
                     "broadcast_bits", "fused_len_bits"):
            v = getattr(self, name)
            if max(v if isinstance(v, tuple) else (v,)) >= 2**31:
                raise ConfigError(name, "must stay below 2**31")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed", "must be non-negative")
        if self.neighbor_radius <= 0:
            raise ConfigError("neighbor_radius", "must be positive")
        if self.e_da_per_bit < 0:
            raise ConfigError("e_da_per_bit", "must be non-negative")
        self._check_plan()

    def _check_plan(self) -> None:
        """Reject a scenario whose analytic plan leaves the float range.

        The amplifier ratio eps_fs / eps_mp and the field size set the ideal
        head count, and with it the ideal cluster radius that
        planner.make_plan raises to the 4th power; extreme ratios or fields
        overflow to inf there, or divide by a head count that rounds to 0 or
        inf, and run() would fail in set-up instead.  The error names eps_mp when
        the ratio leaves the range on table 1's 100 m field too, and m_field
        otherwise.
        """
        from .planner import make_plan  # planner imports this module
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # make_plan warns again in run()
            try:
                plan = make_plan(self)
            except ZeroDivisionError:
                plan = None
        if plan is not None and all(math.isfinite(v) for v in (
                plan.k_opt, plan.d_cluster, plan.e_consume_avg)):
            return
        if self.m_field == 100.0:
            raise ConfigError("eps_mp", "eps_fs / eps_mp gives an ideal cluster plan "
                              "outside the float range")
        replace(self, m_field=100.0)  # validates again: raises for eps_mp at 100 m
        raise ConfigError("m_field", "this field size gives an ideal cluster plan "
                          "outside the float range")

    @property
    def bs_xy(self) -> tuple[float, float]:
        if self.bs_pos is not None:
            return self.bs_pos
        return (self.m_field / 2.0, self.m_field / 2.0)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, rng_seed=int(seed))

    def to_flat_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "radio":
                for rf in fields(RadioParams):
                    d[rf.name] = getattr(v, rf.name)
            elif isinstance(v, tuple):
                d[f.name] = list(v)
            else:
                d[f.name] = v
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.to_flat_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a flat key-value mapping; unknown keys error."""
    scen_names = {f.name for f in fields(ScenarioConfig)} - {"radio"}
    radio_names = {f.name for f in fields(RadioParams)}
    scen_kwargs = {}
    radio_kwargs = {}
    for key, value in data.items():
        if key in radio_names:
            radio_kwargs[key] = value
        elif key in scen_names:
            if isinstance(value, list):
                value = tuple(value)
            scen_kwargs[key] = value
        else:
            raise ConfigError(key, "unknown scenario key")
    return ScenarioConfig(radio=RadioParams(**radio_kwargs), **scen_kwargs)


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a flat JSON object file."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("<root>", "scenario file must contain a JSON object")
    return scenario_from_dict(data)


def table1_scenario(**overrides) -> ScenarioConfig:
    """The default desk-scale scenario: 100 nodes on a 100 m field, 1-3 J."""
    return scenario_from_dict(overrides) if overrides else ScenarioConfig()


class Deployment(NamedTuple):
    """Per-node arrays of a seeded deployment, indexed by node id."""

    x: np.ndarray
    y: np.ndarray
    e_init: np.ndarray
    is_rda: np.ndarray
    is_malf: np.ndarray


def _flag_count(frac: float, n: int) -> int:
    return int(math.floor(frac * n + 0.5))


def deploy(config: ScenarioConfig) -> Deployment:
    """Seeded random deployment: positions, initial energies, role flags.

    Identical seed yields bit-identical arrays.  The RDA and malfunctioning
    subsets are independent draws, so a node may be both.
    """
    n = config.n_nodes
    rng = np.random.default_rng([config.rng_seed, 0])
    xs = rng.uniform(0.0, config.m_field, n)
    ys = rng.uniform(0.0, config.m_field, n)

    e_init = np.full(n, config.homogeneous_energy, dtype=float)
    n_het = _flag_count(config.frac_energy_heterogeneous, n)
    het_idx = rng.permutation(n)[:n_het]
    e_init[het_idx] = rng.uniform(config.e_min, config.e_max, n_het)

    is_rda = np.zeros(n, dtype=bool)
    is_rda[rng.permutation(n)[:_flag_count(config.frac_rda, n)]] = True
    is_malf = np.zeros(n, dtype=bool)
    is_malf[rng.permutation(n)[:_flag_count(config.frac_malfunction, n)]] = True
    return Deployment(xs, ys, e_init, is_rda, is_malf)
