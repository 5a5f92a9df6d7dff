"""The benchmark's workloads: which scenario each CLI batch receives and which
CLI arguments it runs with.

Pure data; importing this module does not import the simulator.  Scenarios
are written out in full here, so the benchmark's inputs do not move when the
repository's scenario files or config defaults change.
"""

from __future__ import annotations

from dataclasses import dataclass

# 100 nodes on a 100 m field, 1-3 J batteries, no RDA nodes (paper Table 1)
TABLE1 = {
    "m_field": 100.0, "n_nodes": 100, "e_min": 1.0, "e_max": 3.0,
    "frac_energy_heterogeneous": 1.0, "homogeneous_energy": 2.0,
    "frac_rda": 0.0, "frac_malfunction": 0.0, "alpha": 0.7, "beta": 0.3,
    "epsilon_tol": 0.93, "frames_per_round": 5, "rda_msgs_range": [3, 7],
    "msg_len_range_bits": [2000, 6000], "broadcast_bits": 2500,
    "nonrda_tx_prob_per_frame": 1.0, "nonrda_len_range_bits": [4000, 4000],
    "neighbor_radius": 12.0, "e_da_per_bit": 5e-9, "fused_len_bits": 4000,
    "rng_seed": 0, "e_elec": 5e-9, "eps_fs": 1e-11, "eps_mp": 1.3e-15,
    "d0": 75.0, "k_rss": 1.0, "alpha_pathloss": 2.0,
}
# half the nodes on acquisition schedules, a tenth malfunctioning
RDA50 = dict(TABLE1, frac_rda=0.5, frac_malfunction=0.1)
# rda50 roles at table1 density: 16x the nodes on 4x the side
FIELD1600 = dict(RDA50, n_nodes=1600, m_field=400.0)

# Batch i of workload seed s simulates scenario seed s * BATCH_STRIDE + i.
BATCH_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict
    cli_args: tuple[str, ...]   # CLI arguments besides --scenario and --out
    runs_per_batch: int
    batches: int                # batches a seed times, again and again; for the
                                # reference seed all of them are in reference.json.
                                # Few, so each run gets about ten repeats and its
                                # median repeat rides out the host's slow stretches
    heap_args: tuple[str, ...]  # CLI arguments of the reference-seed grid whose
                                # peak heap is measured

    def batch_scenario(self, seed: int, batch: int) -> dict:
        return dict(self.scenario, rng_seed=seed * BATCH_STRIDE + batch)

    def argv(self, scenario_path, out_dir, max_rounds: int | None = None,
             cli_args: tuple[str, ...] | None = None) -> list[str]:
        argv = ["--scenario", str(scenario_path), "--out", str(out_dir), "--jobs", "1",
                *(self.cli_args if cli_args is None else cli_args)]
        if max_rounds is not None:
            argv += ["--max-rounds", str(max_rounds)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lifetime-n100",
        why="rda50 grid of leach, sep and eepca run to exhaustion; per-call "
            "overhead in engine dominates, and only here do rounds with deaths "
            "take the per-frame steady path",
        scenario=RDA50,
        cli_args=("--policy", "leach,sep,eepca", "--seeds", "1"),
        runs_per_batch=3,
        batches=1,
        heap_args=("--policy", "sep", "--seeds", "1"),
    ),
    Workload(
        name="field-n1600",
        why="1600 nodes on a 400 m field, leach and eepca capped before the "
            "first death; dense n-by-n set-up and election work dominate and "
            "rounds take the whole-round steady path",
        scenario=FIELD1600,
        cli_args=("--policy", "leach,eepca", "--seeds", "1",
                  "--max-rounds", "40"),
        runs_per_batch=2,
        batches=2,
        heap_args=("--policy", "leach,eepca", "--seeds", "1", "--max-rounds", "40"),
    ),
)}
