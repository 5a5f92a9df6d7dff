import copy
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wsncluster import eepca
from wsncluster.baselines import PolicyKind
from wsncluster.engine import RunTrace, _Sim, run
from wsncluster.model import ConfigError, RadioParams, ScenarioConfig, table1_scenario

POLICIES = [PolicyKind.LEACH, PolicyKind.SEP, PolicyKind.EEPCA]


def _records_equal(a, b):
    return all(
        ra.r == rb.r and ra.head_ids == rb.head_ids
        and ra.bs_messages == rb.bs_messages and ra.deaths == rb.deaths
        and ra.suppressed == rb.suppressed and ra.debits == rb.debits
        and ra.alive_end == rb.alive_end and ra.e_total_end == rb.e_total_end
        for ra, rb in zip(a.records, b.records)) and len(a.records) == len(b.records)


@pytest.mark.parametrize("policy", POLICIES)
def test_replay_is_bit_identical(small_config, policy):
    a = run(small_config, policy, max_rounds=60)
    b = run(small_config, policy, max_rounds=60)
    assert _records_equal(a, b)
    assert np.array_equal(a.e_final, b.e_final)


def test_policy_accepts_string_names(small_config):
    assert _records_equal(run(small_config, "leach", max_rounds=20),
                          run(small_config, PolicyKind.LEACH, max_rounds=20))


@pytest.mark.parametrize("policy", POLICIES)
def test_energy_conservation(small_config, policy):
    trace = run(small_config, policy, max_rounds=200)
    dropped = trace.e_init.sum() - trace.e_final.sum()
    assert dropped == pytest.approx(trace.total_debits, rel=1e-9)
    assert trace.total_debits == pytest.approx(
        sum(rec.debits for rec in trace.records), rel=1e-12)


def test_small_network_runs_to_exhaustion(small_config):
    trace = run(small_config, PolicyKind.LEACH)
    assert trace.termination == "all-dead"
    assert trace.records[-1].alive_end == 0
    assert (trace.e_final == 0.0).all()


def test_round_limit_termination(small_config):
    trace = run(small_config, PolicyKind.LEACH, max_rounds=5)
    assert trace.termination == "round-limit"
    assert trace.n_rounds == 5


def test_alive_counts_never_increase(small_config):
    trace = run(small_config, PolicyKind.SEP)
    alive = [rec.alive_end for rec in trace.records]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    assert sum(len(rec.deaths) for rec in trace.records) == small_config.n_nodes


def test_heads_elected_every_round_while_alive(small_config):
    trace = run(small_config, PolicyKind.LEACH)
    for rec in trace.records:
        if rec.alive_end > 0:
            assert len(rec.head_ids) >= 1


def test_bs_messages_bounded_by_head_frames(small_config):
    trace = run(small_config, PolicyKind.EEPCA, max_rounds=100)
    for rec in trace.records:
        assert 0 <= rec.bs_messages <= len(rec.head_ids) * small_config.frames_per_round


@pytest.mark.parametrize("policy", [PolicyKind.LEACH, PolicyKind.SEP])
def test_baselines_never_suppress(small_config, policy):
    cfg = dataclasses.replace(small_config, frac_rda=0.5, frac_malfunction=0.1)
    trace = run(cfg, policy, max_rounds=40)
    assert all(rec.suppressed == () for rec in trace.records)


def test_eepca_suppresses_rda_broadcasts(small_config):
    cfg = dataclasses.replace(small_config, frac_rda=0.5)
    trace = run(cfg, PolicyKind.EEPCA, max_rounds=10)
    assert trace.records[0].suppressed == ()  # no prediction exists yet
    assert any(rec.suppressed for rec in trace.records[1:])


def test_suppression_switch(small_config):
    cfg = dataclasses.replace(small_config, frac_rda=0.5, disable_suppression=True)
    trace = run(cfg, PolicyKind.EEPCA, max_rounds=20)
    assert all(rec.suppressed == () for rec in trace.records)


def test_forced_unit_factors_reduce_to_classic_rotation(small_config):
    forced = dataclasses.replace(small_config, force_unit_factors=True,
                                 disable_suppression=True)
    a = run(small_config, PolicyKind.LEACH, max_rounds=50)
    b = run(forced, PolicyKind.EEPCA, max_rounds=50)
    assert _records_equal(a, b)


def test_detail_arrays_track_round_debits(small_config):
    trace = run(small_config, PolicyKind.EEPCA, max_rounds=30, detail=True)
    for rec in trace.records:
        assert (rec.e_end >= 0.0).all()
        assert (rec.e_start - rec.e_end).sum() == pytest.approx(rec.debits, rel=1e-9)
        assert rec.e_end.sum() == pytest.approx(rec.e_total_end, rel=1e-12)


def test_detail_assignment_points_to_heads(small_config):
    trace = run(small_config, PolicyKind.LEACH, max_rounds=30, detail=True)
    for rec in trace.records:
        assigned = rec.assignment[rec.assignment >= 0]
        assert set(assigned).issubset(set(rec.head_ids))


def test_trace_jsonl_round_structure(tmp_path, small_config):
    trace = run(small_config, PolicyKind.SEP, max_rounds=12)
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert set(first) == {"r", "heads", "bs_messages", "deaths", "suppressed",
                          "debits", "alive", "e_total"}


def test_config_hash_recorded(small_config):
    trace = run(small_config, PolicyKind.LEACH, max_rounds=1)
    assert trace.config_hash == small_config.config_hash()
    assert isinstance(trace, RunTrace)


class TestScalarDebit:
    """The engine's debit helpers, one node at a time."""

    def _sim(self, small_config, e):
        sim = _Sim(small_config, PolicyKind.LEACH, detail=False)
        sim.e[0] = e
        sim.alive[0] = e > 0.0
        return sim

    def test_normal_debit(self, small_config):
        sim = self._sim(small_config, 1.0)
        assert sim._debit_bulk(np.array([0]), np.array([0.3])).tolist() == [True]
        assert sim.alive[0]
        assert sim.e[0] == pytest.approx(0.7)
        assert sim.debits == pytest.approx(0.3)

    def test_exhaustion_kills(self, small_config):
        sim = self._sim(small_config, 0.2)
        assert sim._debit_bulk(np.array([0]), np.array([0.2])).tolist() == [True]
        assert not sim.alive[0]
        assert sim.e[0] == 0.0

    def test_blocked_action_clamps_to_zero(self, small_config):
        sim = self._sim(small_config, 0.1)
        assert sim._debit_bulk(np.array([0]), np.array([0.5])).tolist() == [False]
        assert not sim.alive[0] and sim.e[0] == 0.0
        assert sim.debits == pytest.approx(0.1)  # only what the node had
        # a message the node cannot afford is not delivered
        sim = self._sim(small_config, 0.1)
        assert sim._debit_messages(np.array([0]), 0.04, 0.04, 3).tolist() == [2]
        assert not sim.alive[0] and sim.e[0] == 0.0


def _floor_divide_debit(e, belief, per_msg, per_msg_belief, counts):
    """_Sim._debit_messages as one floor_divide over every node: delivered,
    new e, new belief and the debited sum."""
    per_msg = np.asarray(per_msg, dtype=float)
    if per_msg.ndim == 0:
        if per_msg == 0.0:
            return np.broadcast_to(np.asarray(counts), e.shape).copy(), e, belief, 0.0
        afford = np.floor_divide(e, per_msg)
    else:
        afford = np.full(e.shape, np.inf)
        np.floor_divide(e, per_msg, out=afford, where=per_msg > 0)
    delivered = np.minimum(counts, afford)
    failed = delivered < counts
    applied = np.where(failed, e, delivered * per_msg)
    b_new = np.maximum(belief - delivered * per_msg_belief, 0.0)
    b_new[failed] = 0.0
    return delivered.astype(np.int64), e - applied, b_new, float(applied.sum())


_COSTS = st.sampled_from([0.0, 5e-324, 1e-310]) | st.floats(1e-300, 1e10)
# one cost object passed as both per_msg and per_msg_belief, as the engine's
# broadcasts, advertisements and joins do
_SHARED_SCALAR = 0.1
_SHARED_ARRAY = np.array([0.2, 0.3, 0.1, 0.25])


@st.composite
def _debit_cases(draw):
    """Nodes with energy at, one ulp either side of, or anywhere around the
    cost of their messages; costs of 0, subnormal or 1e-300 to 1e10 J; one
    message each or up to 7; the belief charged at its own cost or at the
    very cost object of the message."""
    n = draw(st.integers(1, 6))
    scalar = draw(st.booleans())
    per_msg = np.array(draw(_COSTS) if scalar else
                       draw(st.lists(_COSTS, min_size=n, max_size=n)))
    counts = np.array(draw(st.just(1) | st.integers(0, 7) |
                           st.lists(st.integers(0, 7), min_size=n, max_size=n)))
    exact = np.broadcast_to(counts * per_msg, (n,))
    e = np.array([draw(st.sampled_from([
        x, np.nextafter(x, np.inf), np.nextafter(x, 0.0), 0.0,
        draw(st.floats(0.0, 1e12)), x * draw(st.floats(0.5, 2.0))])) for x in exact])
    belief = e * draw(st.floats(0.0, 2.0))
    if scalar:
        per_msg = float(per_msg)
    per_msg_belief = (per_msg if draw(st.booleans()) else
                      per_msg * draw(st.floats(0.0, 2.0)))
    return (e, belief, per_msg, per_msg_belief,
            int(counts) if counts.ndim == 0 else counts)


class TestDebitMessages:
    """The compare-first debit equals a floor_divide over every node, bit
    for bit, at and around the affordability boundary."""

    @given(_debit_cases())
    # energy exactly the cost of its messages, and one ulp either side; 5 * 0.1
    # rounds down to 0.5, so 0.5 J affords only 4 messages of 0.1 J
    @example((np.array([0.3, np.nextafter(0.3, 1), np.nextafter(0.3, 0)]),
              np.array([0.3, 0.3, 0.3]), 0.1, 0.1, 3))
    @example((np.array([0.5, np.nextafter(0.5, 1), np.nextafter(0.5, 0)]),
              np.array([0.5, 0.5, 0.5]), 0.1, 0.1, 5))
    @example((np.array([0.75, np.nextafter(0.75, 1), np.nextafter(0.75, 0)]),
              np.array([1.0, 1.0, 1.0]), 0.25, 0.25, 3))
    # zero-cost entries, zero counts and a subnormal cost
    @example((np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.0, 2.0]),
              np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.5]), np.array([3, 2, 0])))
    @example((np.array([1e-323, 5e-324, 0.0]), np.array([1.0, 1.0, 1.0]),
              5e-324, 5e-324, np.array([2, 1, 1])))
    # one shared cost object and one message each: every node rich, then rich
    # nodes beside one at its cost, one an ulp short and one far short
    @example((np.array([1.0, 0.7, 2.0]), np.array([1.0, 0.5, 2.0]),
              _SHARED_SCALAR, _SHARED_SCALAR, 1))
    @example((np.array([1.0, 0.1, np.nextafter(0.1, 0), 0.05]),
              np.array([1.0, 0.1, 0.1, 0.05]), _SHARED_SCALAR, _SHARED_SCALAR, 1))
    @example((np.array([1.0, 0.3, np.nextafter(0.1, 0), 0.3]),
              np.array([0.9, 0.3, 0.2, 0.3]), _SHARED_ARRAY, _SHARED_ARRAY, 1))
    # every node rich, the belief charged at its own cost
    @example((np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]),
              np.array([0.1, 0.2, 0.3]), np.array([0.05, 0.4, 0.3]), np.array([2, 1, 3])))
    @settings(max_examples=300, deadline=None)
    def test_equals_floor_divide(self, case):
        e, belief, per_msg, per_msg_belief, counts = case
        sim = _Sim(dataclasses.replace(ScenarioConfig(), n_nodes=e.size),
                   PolicyKind.EEPCA, detail=False)
        sim.e, sim.belief, sim.alive = e.copy(), belief.copy(), e > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            got = sim._debit_messages(np.arange(e.size), per_msg, per_msg_belief, counts)
            delivered, e_new, b_new, debited = _floor_divide_debit(
                e, belief, per_msg, per_msg_belief, counts)
        assert got.tolist() == delivered.tolist()
        assert sim.e.tobytes() == e_new.tobytes()
        assert sim.belief.tobytes() == b_new.tobytes()
        assert np.float64(sim.debits).tobytes() == np.float64(debited).tobytes()
        assert np.array_equal(sim.alive, sim.e > 0.0)


    @given(_debit_cases(), st.sampled_from([0.0, 1.0, 1e-300]))
    # every node rich, beliefs below their cost; one node short, one at its
    # cost; the belief charged at its own cost
    @example((np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.05, 3.0]),
              _SHARED_SCALAR, _SHARED_SCALAR, 1), 1.0)
    @example((np.array([1.0, 0.05, 0.1]), np.array([1.0, 0.05, 0.0]),
              0.1, 0.1, np.array([1, 2, 1])), 0.0)
    @example((np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.1, 3.0]),
              np.array([0.1, 0.2, 0.3]), np.array([0.05, 0.4, 0.3]), np.array([2, 1, 3])), 1.0)
    @settings(max_examples=200, deadline=None)
    def test_every_node_equals_indexed(self, case, e_extra):
        # idx = arange(n) over n nodes debits views of e and belief in place;
        # with one more node, left out of idx, the same debit gathers and
        # scatters, and must give the same bits
        e, belief, per_msg, per_msg_belief, counts = case
        n = e.size
        results = []
        for extra in ((), (e_extra,)):
            sim = _Sim(dataclasses.replace(ScenarioConfig(), n_nodes=n + len(extra)),
                       PolicyKind.EEPCA, detail=False)
            sim.e, sim.belief = np.append(e, extra), np.append(belief, extra)
            sim.alive = sim.e > 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                got = sim._debit_messages(np.arange(n), per_msg, per_msg_belief, counts)
            results.append((got.tolist(), sim.e[:n].tobytes(), sim.belief[:n].tobytes(),
                            np.float64(sim.debits).tobytes(), sim.alive[:n].tolist(),
                            sim.rich))
            assert sim.e[n:].tolist() == sim.belief[n:].tolist() == list(extra)
        assert results[0] == results[1]


class TestSteadyPaths:
    """The whole-round steady path is a shortcut for the per-frame one."""

    @given(seed=st.integers(0, 10_000), policy=st.sampled_from(POLICIES),
           frac_rda=st.floats(0.0, 1.0), frac_malfunction=st.floats(0.0, 1.0),
           r=st.integers(0, 40))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fast_path_matches_per_frame_path(self, small_config, seed, policy,
                                              frac_rda, frac_malfunction, r):
        cfg = dataclasses.replace(small_config, frac_rda=frac_rda,
                                  frac_malfunction=frac_malfunction, rng_seed=seed)
        sim = _Sim(cfg, policy, detail=False)
        for k in range(r):
            sim.play_round(k)
        assume(sim.alive.any())
        seen = []
        fast = sim._steady_fast

        def both_paths(assignment, heads, noise, counts, lengths):
            slow_sim = copy.deepcopy(sim)
            args = [a.copy() for a in (assignment, heads, noise, counts, lengths)]
            got = fast(assignment, heads, noise, counts, lengths)
            if got is not None:
                seen.append((got, slow_sim._steady_slow(*args), slow_sim))
            return got

        sim._steady_fast = both_paths
        sim.play_round(r)
        assume(seen)
        (bs_f, act_f, pred_f), (bs_s, act_s, pred_s), slow_sim = seen[0]
        assert bs_f == bs_s
        assert np.array_equal(sim.alive, slow_sim.alive)
        for a, b in ((sim.e, slow_sim.e), (sim.belief, slow_sim.belief),
                     (act_f, act_s), (pred_f, pred_s)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    @given(seed=st.integers(0, 10_000), frames=st.integers(1, 5),
           r=st.integers(0, 30), kill=st.floats(0.0, 1.0), extra=st.floats(0.0, 1.0),
           drain=st.floats(0.0, 0.2), tight=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_head_only_sums_equal_dense_formula(self, seed, frames, r, kill, extra,
                                                drain, tight):
        # real rounds, then some heads killed, memberless heads added and some
        # nodes drained near empty, so both the fast path and its refusal run
        cfg = dataclasses.replace(ScenarioConfig(), n_nodes=40, frames_per_round=frames,
                                  frac_rda=0.5, frac_malfunction=0.2, rng_seed=seed)
        sim = _Sim(cfg, PolicyKind.EEPCA, detail=False)
        for k in range(r):
            sim.play_round(k)
        seen = []
        real = sim._steady_fast

        def capture(*args):
            seen.append((copy.deepcopy(sim), [a.copy() for a in args]))
            return real(*args)

        sim._steady_fast = capture
        sim.play_round(r)
        assume(seen)
        state, (assignment, heads, noise, counts, lengths) = seen[0]
        rng = np.random.default_rng(seed)
        dead = heads & (rng.random(cfg.n_nodes) < kill)
        state.e[dead], state.alive[dead] = 0.0, False
        new_heads = ~heads & (rng.random(cfg.n_nodes) < extra)
        heads |= new_heads
        assignment[new_heads] = -1
        low = rng.random(cfg.n_nodes) < drain
        state.e[low] *= 1e-4
        args = (assignment, heads, noise, counts, lengths)
        if tight:
            # energies between 1 and 2 times each node's spend: then e - spend
            # is exact (Sterbenz), so the new e and belief show every bit of
            # the spends
            *_, spend, spend_belief = _dense_steady_spends(state, *args)
            paying = spend > 0
            state.e[paying] = spend[paying] * (1.0 + rng.random(paying.sum()))
            state.belief[paying] = spend_belief[paying] * (1.0 + rng.random(paying.sum()))
        a, b = copy.deepcopy(state), copy.deepcopy(state)
        got = _Sim._steady_fast(a, *(x.copy() for x in args))
        want = _dense_steady_fast(b, *(x.copy() for x in args))
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()
        assert a.e.tobytes() == b.e.tobytes()
        assert a.belief.tobytes() == b.belief.tobytes()
        assert np.float64(a.debits).tobytes() == np.float64(b.debits).tobytes()
        assert np.array_equal(a.alive, b.alive)


def _dense_steady_spends(sim, assignment, heads, noise, counts, lengths):
    """_Sim._steady_fast's sums with the head-side terms over every node's
    column: (bs count, data_act, data_nf, spend, belief spend)."""
    head_alive = heads & sim.alive
    member = (assignment >= 0) & sim.alive & head_alive[np.maximum(assignment, 0)]
    data_nf = (counts * (lengths * sim.cpb_head[None, :])).sum(axis=0) * member
    data_act = data_nf * noise
    bits = counts * lengths
    frames = counts.shape[0]
    member_idx = np.flatnonzero(member)
    slot = np.arange(frames)[:, None] * sim.n + assignment[member_idx]
    bits_rx = np.bincount(slot.ravel(), weights=bits[:, member_idx].ravel(),
                          minlength=frames * sim.n).reshape(frames, sim.n)
    total_bits = bits_rx + bits * head_alive[None, :]
    rx_spend = bits_rx.sum(axis=0) * sim.e_elec * head_alive
    agg_spend = total_bits.sum(axis=0) * sim.e_da * head_alive
    bs_frames = ((total_bits > 0) & head_alive[None, :]).sum(axis=0)
    bs_spend = bs_frames * sim.bs_cost * head_alive
    return (int(bs_frames[head_alive].sum()), data_act, data_nf,
            data_act + rx_spend + agg_spend + bs_spend,
            data_nf + rx_spend + agg_spend + bs_spend)


def _dense_steady_fast(sim, *args):
    bs, data_act, data_nf, spend, spend_belief = _dense_steady_spends(sim, *args)
    if not (sim.e >= spend).all():
        return None
    sim.e -= spend
    sim.debits += float(spend.sum())
    if sim.track_belief:
        sim.belief = np.maximum(sim.belief - spend_belief, 0.0)
    sim.alive = sim.e > 0.0
    return bs, data_act, data_nf

def test_large_field_memory_stays_linear():
    # 4000 nodes at table1 density: one dense n x n float matrix alone is 128 MB
    cfg = table1_scenario(n_nodes=4000, m_field=100.0 * math.sqrt(40.0))
    tracemalloc.start()
    try:
        sim = _Sim(cfg, PolicyKind.EEPCA, detail=False)
        for r in range(2):
            sim.play_round(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_large_field_round_allocates_under_a_mebibyte(rda_config):
    # head selection in 64 KB blocks and head-only steady sums keep every
    # round's temporaries small at n=1600 (rda_config is scenarios/rda50.json)
    cfg = dataclasses.replace(rda_config, n_nodes=1600, m_field=400.0)
    tracemalloc.start()
    try:
        sim = _Sim(cfg, PolicyKind.EEPCA, detail=False)
        sim.play_round(0)
        for r in range(1, 6):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            sim.play_round(r)
            grown = tracemalloc.get_traced_memory()[1] - start
            assert grown < 1 << 20, f"round {r}: peak {grown} B above its start"
    finally:
        tracemalloc.stop()


@st.composite
def _scenarios(draw):
    """Valid finite scenarios of up to 60 nodes; invalid draws are rejected."""
    unit = st.floats(0.0, 1.0)
    side = draw(st.floats(1.0, 300.0))
    alpha = draw(unit)
    e_min = draw(st.floats(0.0, 1.0))
    lo = draw(st.floats(0.0, 1.5))
    kwargs = dict(
        n_nodes=draw(st.integers(1, 60)), m_field=side,
        bs_pos=draw(st.none() | st.tuples(st.floats(-side, 2 * side),
                                          st.floats(-side, 2 * side))),
        e_min=e_min, e_max=e_min + draw(st.floats(0.0, 2.0)),
        homogeneous_energy=draw(st.floats(0.0, 3.0)),
        frac_energy_heterogeneous=draw(unit), frac_rda=draw(unit),
        frac_malfunction=draw(unit), alpha=alpha, beta=1.0 - alpha,
        epsilon_tol=draw(unit), nonrda_tx_prob_per_frame=draw(unit),
        frames_per_round=draw(st.integers(1, 5)),
        neighbor_radius=draw(st.floats(0.5, 200.0)),
        malfunction_noise_range=(lo, lo + draw(st.floats(0.0, 1.0))),
        rng_seed=draw(st.integers(0, 2**31)),
        radio=RadioParams(alpha_pathloss=draw(st.floats(1.0, 6.0)),
                          k_rss=draw(st.sampled_from([1.0, 3.7e-4]))))
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError:
        assume(False)


@given(cfg=_scenarios())
@settings(max_examples=25, deadline=None)
def test_valid_scenarios_conserve_energy(cfg):
    for policy in POLICIES:
        trace = run(cfg, policy, max_rounds=60)
        assert all(math.isfinite(rec.debits) and math.isfinite(rec.e_total_end)
                   for rec in trace.records)
        assert np.isfinite(trace.e_final).all()
        dropped = trace.e_init.sum() - trace.e_final.sum()
        assert dropped == pytest.approx(trace.total_debits, rel=1e-9)
        alive = [int((trace.e_init > 0).sum())] + [rec.alive_end for rec in trace.records]
        assert all(a >= b for a, b in zip(alive, alive[1:]))


PHASES = ("_setup_broadcasts", "_election", "_form_clusters", "_steady")


@given(cfg=_scenarios())
# batteries of 10-50 mJ run out within 60 rounds, many of them mid-round in
# the per-frame steady path
@example(cfg=ScenarioConfig(n_nodes=30, e_min=0.01, e_max=0.05, homogeneous_energy=0.03,
                            frac_rda=0.5, frac_malfunction=0.2))
@settings(max_examples=25, deadline=None)
def test_alive_is_positive_energy_after_every_phase(cfg):
    # a debit every node affords skips its alive write on the strength of
    # this invariant
    for policy in POLICIES:
        sim = _Sim(cfg, policy, detail=False)
        for name in PHASES:
            setattr(sim, name, _checked_phase(sim, name, getattr(sim, name)))
        for r in range(60):
            if not sim.alive.any():
                break
            sim.play_round(r)


def _checked_phase(sim, name, phase):
    def checked(*args):
        out = phase(*args)
        assert np.array_equal(sim.alive, sim.e > 0.0), f"after {name}"
        return out
    return checked


@given(cfg=_scenarios())
@settings(max_examples=25, deadline=None)
def test_healthy_nodes_belief_is_exact(cfg):
    # gamma = 0 for every node whose debits the ledger can predict: the belief
    # neighbours compute equals the node's energy, bit for bit
    sim = _Sim(cfg, PolicyKind.EEPCA, detail=False)
    for r in range(60):
        if not sim.alive.any():
            break
        sim.play_round(r)
        healthy = sim.alive & ~sim.is_malf
        assert np.array_equal(sim.belief[healthy], sim.e[healthy]), f"round {r}"


def test_cluster_formation_ranges_about_one_pair_per_member(rda_config, monkeypatch):
    # members pick their head by squared distance and range only that head,
    # so a round ranges O(n) pairs, not members x heads
    cfg = dataclasses.replace(rda_config, n_nodes=1600, m_field=400.0)
    sim = _Sim(cfg, PolicyKind.EEPCA, detail=False)
    ranged = [0]
    real = eepca.estimated_distance_matrix

    def counting(dx, dy, *args):
        ranged[0] += np.broadcast(dx, dy).size
        return real(dx, dy, *args)

    monkeypatch.setattr(eepca, "estimated_distance_matrix", counting)
    for r in range(5):
        before = ranged[0]
        rec = sim.play_round(r)
        assert len(rec.head_ids) > 10
        assert 0 < ranged[0] - before <= 2 * cfg.n_nodes, f"round {r}"


@pytest.mark.parametrize("lo,shape", [(0, 7), (4000, (5, 100)), (2**40, (3, 2))])
def test_one_value_length_range_draws_no_bits(lo, shape):
    # _steady fills a one-value non-RDA length range with np.full instead of
    # calling Generator.integers; the stream stays the same only while
    # integers() draws no bits for such a range
    rng = np.random.default_rng([3, 1])
    state = rng.bit_generator.state
    assert np.array_equal(rng.integers(lo, lo + 1, shape), np.full(shape, lo))
    assert rng.bit_generator.state == state


@given(c=st.integers(0, 10**6), frames=st.integers(1, 9))
def test_frame_counts_from_divmod(c, frames):
    # an RDA node's messages in frame f: q + (f < rem) with q, rem = divmod(c,
    # frames) equals ceil((c - f) / frames) = (c + frames - 1 - f) // frames
    q, rem = divmod(c, frames)
    assert [q + (f < rem) for f in range(frames)] == \
        [(c + frames - 1 - f) // frames for f in range(frames)]


def test_live_neighbors_follow_deaths():
    # the election reuses its live-neighbour counts while the alive count
    # holds; a count that holds means the same set, since no node revives
    cfg = dataclasses.replace(ScenarioConfig(), n_nodes=30, e_min=0.01, e_max=0.05,
                              homogeneous_energy=0.03)
    sim = _Sim(cfg, PolicyKind.EEPCA, detail=False)
    election = sim._election
    refreshed = []

    def checked(r):
        alive = sim.alive.copy()
        before = sim.live_count
        out = election(r)
        refreshed.append(sim.live_count != before)
        w, counts = eepca.live_neighbors(sim.src, sim.dst, alive.astype(float))[:2]
        assert np.array_equal(sim.neighbors[0], w) and np.array_equal(sim.neighbors[1], counts)
        return out

    sim._election = checked
    for r in range(60):
        if not sim.alive.any():
            break
        sim.play_round(r)
    assert 1 < sum(refreshed) < len(refreshed)


@pytest.mark.parametrize("policy", [PolicyKind.LEACH, PolicyKind.SEP])
def test_heard_counts_follow_deaths(policy):
    # every alive node broadcasts in a LEACH or SEP round, so the reception
    # counts are the live-neighbour counts, reused while no node dies
    cfg = dataclasses.replace(ScenarioConfig(), n_nodes=30, e_min=0.01, e_max=0.05,
                              homogeneous_energy=0.03)
    sim = _Sim(cfg, policy, detail=False)
    setup, debit = sim._setup_broadcasts, sim._debit_messages
    calls, refreshed = [], []

    def recorded(idx, *args):
        out = debit(idx, *args)
        calls.append((idx.copy(), args[-1], np.asarray(out).copy()))
        return out

    def checked(r):
        calls.clear()
        if r == 3:
            # a node left with exactly one broadcast's energy sends it and
            # dies: it is heard, but no longer a live neighbour
            sim.e[sim.src[sim.alive[sim.src]][0]] = sim.bcast_cost
        before = sim.live_count
        out = setup(r)
        refreshed.append(sim.live_count != before)
        (sent_idx, _, sent), (hearers, heard, _) = calls
        senders = np.zeros(sim.n, dtype=bool)
        senders[sent_idx] = sent > 0
        want = np.bincount(sim.src[senders[sim.dst]], minlength=sim.n)[hearers]
        assert np.array_equal(heard, want)
        return out

    sim._debit_messages, sim._setup_broadcasts = recorded, checked
    for r in range(60):
        if not sim.alive.any():
            break
        sim.play_round(r)
    assert 1 < sum(refreshed) < len(refreshed)
