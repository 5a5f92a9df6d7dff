import csv
import io
import math

import numpy as np
import pytest

from wsncluster import metrics
from wsncluster.baselines import PolicyKind
from wsncluster.engine import RunTrace, run
from wsncluster.metrics import CENSORED, CURVES_HEADER, curve_rows, summarize, summary_row
from wsncluster.model import ScenarioConfig


def _trace(death_plan, n=10, bs_per_round=2, seed=0, e_init=None):
    """Hand-built trace: death_plan maps round -> node ids that die there;
    node 0 heads every round."""
    trace = RunTrace(seed=seed, policy=PolicyKind.LEACH, config_hash="x" * 16,
                     e_init=np.ones(n) if e_init is None else e_init)
    heads = np.arange(trace.e_init.size) == 0
    alive = n
    for r in range(max(death_plan, default=-1) + 1 or 1):
        deaths = np.zeros(trace.e_init.size, dtype=bool)
        deaths[list(death_plan.get(r, ()))] = True
        alive -= np.count_nonzero(deaths)
        trace.add_round(heads, bs_per_round, deaths, None, 0.01, alive, float(alive))
    trace.termination = "all-dead" if alive == 0 else "round-limit"
    return trace


class TestSummarize:
    def test_milestones_from_hand_built_curve(self):
        # 10 nodes: first death round 3, 10% also round 3, half dead round 6,
        # all dead round 9
        plan = {3: (0,), 6: (1, 2, 3, 4), 9: (5, 6, 7, 8, 9)}
        s = summarize(_trace(plan))
        assert s.fnd_round == 3
        assert s.p10_round == 3
        assert s.p50_round == 6
        assert s.lnd_round == 9

    def test_one_round_crosses_three_milestones(self):
        # 10 nodes: round 4 takes the dead count from 0 to 5, past the
        # first death, 10% (1 dead) and half (5 dead) at once
        s = summarize(_trace({4: (0, 1, 2, 3, 4), 7: (5, 6, 7, 8, 9)}))
        assert (s.fnd_round, s.p10_round, s.p50_round, s.lnd_round) == (4, 4, 4, 7)

    def test_half_milestone_uses_ceiling(self):
        # 5 nodes: 50% death needs ceil(2.5) = 3 dead
        plan = {1: (0, 1), 4: (2,), 5: (3, 4)}
        s = summarize(_trace(plan, n=5))
        assert s.p10_round == 1
        assert s.p50_round == 4

    def test_censored_when_no_deaths(self):
        s = summarize(_trace({}, n=10))
        assert (s.fnd_round, s.p10_round, s.p50_round, s.lnd_round) == (CENSORED,) * 4

    def test_nodes_that_start_dead_are_not_counted(self):
        # 10 nodes, 4 of them with no energy: the 6 alive at round 0 set the
        # marks, so 3 deaths are half and 6 are the last
        trace = _trace({2: (0,), 5: (1, 2), 7: (3, 4, 5)}, n=6,
                       e_init=np.array([1.0] * 6 + [0.0] * 4))
        s = summarize(trace)
        assert (s.fnd_round, s.p10_round, s.p50_round, s.lnd_round) == (2, 2, 5, 7)

    def test_run_with_nodes_that_start_dead_reaches_last_death(self):
        config = ScenarioConfig(frac_energy_heterogeneous=0.5, homogeneous_energy=0.0,
                                e_min=0.05, e_max=0.1)
        trace = run(config, "leach")
        assert trace.termination == "all-dead"
        assert np.count_nonzero(trace.e_init == 0) == 50
        s = summarize(trace)
        # the 50 nodes alive at round 0 are half dead once 25 remain
        assert s.p50_round == next(rec.r for rec in trace.records if rec.alive_end <= 25)
        assert s.lnd_round == trace.records[-1].r

    def test_bs_accumulation(self):
        s = summarize(_trace({2: (0,)}, bs_per_round=3))
        assert s.bs_messages_total == 9
        assert s.cumulative_bs_messages.tolist() == [3, 6, 9]
        assert s.alive_curve.tolist() == [10, 10, 9]

    def test_empty_trace_rejected(self):
        empty = RunTrace(seed=0, policy=PolicyKind.LEACH, config_hash="",
                         e_init=np.ones(3))
        with pytest.raises(ValueError):
            summarize(empty)


def _summarize_by_loop(trace):
    """summarize's milestones and curves by a loop over trace.records, the
    reference for its reading of the columns."""
    n = int(np.count_nonzero(trace.e_init > 0))
    marks = {"fnd": 1, "p10": math.ceil(0.1 * n), "p50": math.ceil(0.5 * n), "lnd": n}
    got = dict.fromkeys(marks, CENSORED)
    dead = total = 0
    cum, alive = [], []
    for rec in trace.records:
        dead += len(rec.deaths)
        total += rec.bs_messages
        cum.append(total)
        alive.append(rec.alive_end)
        for name, need in marks.items():
            if got[name] is CENSORED and dead >= need:
                got[name] = rec.r
    return got, cum, alive


@pytest.mark.parametrize("policy", ["leach", "sep", "eepca"])
@pytest.mark.parametrize("config", [
    ScenarioConfig(n_nodes=30, frac_rda=0.5),
    ScenarioConfig(n_nodes=30, frac_energy_heterogeneous=0.5, homogeneous_energy=0.0,
                   e_min=0.05, e_max=0.1),
], ids=["rda", "half-start-dead"])
@pytest.mark.parametrize("max_rounds", [40, 10000])
def test_summarize_equals_a_loop_over_records(config, policy, max_rounds):
    trace = run(config, policy, max_rounds=max_rounds)
    s = summarize(trace)
    marks, cum, alive = _summarize_by_loop(trace)
    assert {"fnd": s.fnd_round, "p10": s.p10_round, "p50": s.p50_round,
            "lnd": s.lnd_round} == marks
    assert s.cumulative_bs_messages.tolist() == cum and s.alive_curve.tolist() == alive
    assert s.bs_messages_total == cum[-1] and s.n_rounds == len(cum)


class TestRows:
    def test_summary_row_fields(self):
        trace = _trace({1: (0,)})
        row = summary_row(summarize(trace), trace, "alpha", 0.7)
        assert row["policy"] == "leach"
        assert row["sweep_var"] == "alpha"
        assert row["fnd_round"] == 1
        assert row["config_hash"] == "x" * 16

    def test_curve_rows_align_with_rounds(self):
        s = summarize(_trace({2: (0,)}))
        rows = curve_rows(s, "alpha", 0.7).splitlines()
        assert len(rows) == s.n_rounds
        assert rows[0] == "leach,0,alpha,0.7,0,10,2"
        assert rows[-1] == "leach,0,alpha,0.7,2,9,6"

    @pytest.mark.parametrize("sweep_var, sweep_value", [
        ("none", ""), ("alpha", 0.1 + 0.2), ('eps,"x"', "a\nb"), ("e\r", None)])
    def test_curve_rows_equal_the_csv_writer(self, sweep_var, sweep_value):
        # 600 rounds cross two chunk boundaries; the key fields need quoting
        s = summarize(_trace({599: (0,)}))
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(
            (s.policy, s.seed, sweep_var, sweep_value, r, alive, bs)
            for r, (alive, bs) in enumerate(zip(s.alive_curve.tolist(),
                                                s.cumulative_bs_messages.tolist())))
        assert s.n_rounds == 600 > 2 * metrics._CURVE_CHUNK
        assert curve_rows(s, sweep_var, sweep_value) == buf.getvalue()

    def test_curve_rows_follow_the_header(self):
        s = summarize(_trace({}, n=3))
        text = CURVES_HEADER + curve_rows(s)
        assert text == ("policy,seed,sweep_var,sweep_value,round,alive,bs_cum\r\n"
                        "leach,0,none,,0,3,2\r\n")
