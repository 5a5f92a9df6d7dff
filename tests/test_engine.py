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
from wsncluster.engine import RunTrace, _Sim, frame_counts, run
from wsncluster.model import (MAX_FRAMES_PER_ROUND, ConfigError, RadioParams, ScenarioConfig,
                              deploy, load_scenario, table1_scenario)
from wsncluster.radio import tx_energy
from trace_digests import ROOT, SMALL, SMALL_VARIANTS

POLICIES = [PolicyKind.LEACH, PolicyKind.SEP, PolicyKind.EEPCA]
# TestDebitMessages and _scenarios draw fields of a few nodes, whose optimal
# head proportion exceeds 1; test_p_opt_clamped_with_warning checks that warning
_ignore_p_opt_clamp = pytest.mark.filterwarnings("ignore:optimal head proportion")


@pytest.mark.parametrize("policy", POLICIES)
def test_replay_is_bit_identical(small_config, policy):
    a = run(small_config, policy, max_rounds=60)
    b = run(small_config, policy, max_rounds=60)
    assert list(a.records) == list(b.records)
    assert np.array_equal(a.e_final, b.e_final)


def test_policy_accepts_string_names(small_config):
    assert list(run(small_config, "leach", max_rounds=20).records) == \
        list(run(small_config, PolicyKind.LEACH, max_rounds=20).records)


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


@pytest.mark.parametrize("name", ["table1", "rda50"])
def test_sep_without_heterogeneity_is_leach(name):
    # every node starts with the same energy, so SEP weights each one p_opt,
    # as LEACH does, and the two elect alike to the last death
    cfg = dataclasses.replace(load_scenario(ROOT / "scenarios" / f"{name}.json"),
                              frac_energy_heterogeneous=0.0, rng_seed=0)
    leach, sep = _Sim(cfg, PolicyKind.LEACH), _Sim(cfg, PolicyKind.SEP)
    assert np.array_equal(sep.static_p.view(np.int64), leach.static_p.view(np.int64))
    a, b = run(cfg, PolicyKind.LEACH), run(cfg, PolicyKind.SEP)
    assert a.termination == "all-dead"
    assert list(a.records) == list(b.records)
    assert np.array_equal(a.e_final, b.e_final)


def test_eepca_suppresses_rda_broadcasts(small_config):
    cfg = dataclasses.replace(small_config, frac_rda=0.5)
    trace = run(cfg, PolicyKind.EEPCA, max_rounds=10)
    assert trace.records[0].suppressed == ()  # no prediction exists yet
    assert any(rec.suppressed for rec in list(trace.records)[1:])


def test_round_debits_equal_energy_drop(small_config):
    sim = _Sim(small_config, PolicyKind.EEPCA)
    for r in range(30):
        if not sim.alive.any():
            break
        e_start = sim.e.copy()
        sim.play_round(r)
        rec = sim.trace.records[r]
        assert (sim.e >= 0.0).all()
        assert (e_start - sim.e).sum() == pytest.approx(sim.debits, rel=1e-9)
        assert rec.debits == sim.debits
        assert sim.e.sum() == pytest.approx(rec.e_total_end, rel=1e-12)


def test_assignment_points_to_heads(small_config):
    sim = _Sim(small_config, PolicyKind.LEACH)
    form_clusters = sim._form_clusters
    formed = []

    def recorded(elected):
        assignment, heads = form_clusters(elected)
        formed.append((assignment.copy(), heads.copy()))
        return assignment, heads

    sim._form_clusters = recorded
    for r in range(30):
        if not sim.alive.any():
            break
        sim.play_round(r)
        assignment, heads = formed[r]
        assigned = assignment[assignment >= 0]
        assert heads[assigned].all()
        assert set(assigned.tolist()) <= set(sim.trace.records[r].head_ids)
    assert any((assignment >= 0).any() for assignment, _ in formed)


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


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("frames", range(1, 9))
def test_count_table_equals_frame_counts_of_msg_count(rda_config, policy, frames):
    # a round reads its frame counts from _Sim.count_table, column c of which
    # is divmod's q + (f < rem) for c messages; with the table dropped it
    # forms them from msg_count, and every round is the same
    cfg = dataclasses.replace(rda_config, n_nodes=30, frames_per_round=frames,
                              rda_msgs_range=(0, 9))
    sim, plain = _Sim(cfg, policy), _Sim(cfg, policy)
    q, rem = np.divmod(np.arange(10), frames)
    assert sim.count_table.dtype == np.float64
    assert np.array_equal(sim.count_table, q + (np.arange(frames)[:, None] < rem))
    plain.count_table = None
    for r in range(30):
        sim.play_round(r)
        plain.play_round(r)
    assert list(sim.trace.records) == list(plain.trace.records)
    assert np.array_equal(sim.e, plain.e)


def test_count_table_is_not_built_past_the_node_count(small_config):
    # a message-count range wider than the field keeps no table: it would
    # outgrow the counts of a round
    cfg = dataclasses.replace(small_config, frac_rda=0.5, rda_msgs_range=(0, 2**31 - 1))
    sim = _Sim(cfg, PolicyKind.EEPCA)
    assert sim.count_table is None
    for r in range(3):
        sim.play_round(r)
    assert sim.trace.n_rounds == 3


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("variant", sorted(SMALL_VARIANTS))
def test_play_round_draws_what_its_docstring_lists(variant, policy, small_config):
    # each round hands its phases what the Generator calls play_round's
    # docstring lists give on a fresh stream of the run's seed: RDA counts
    # and lengths, the election's uniforms, the noise on malfunctioning
    # nodes, and, only in rounds where a head survives cluster formation,
    # the send doubles (none at send probability 1) and non-RDA lengths
    cfg = dataclasses.replace(small_config, **SMALL_VARIANTS[variant])
    sim = _Sim(cfg, policy)
    election, steady, handed = sim._election, sim._steady, []

    def elect(r, u):
        handed.append([sim.msg_count.copy(), sim.msg_len.copy(), u.copy()])
        return election(r, u)

    def steady_phase(assignment, heads, noise, send_draws, lengths):
        handed[-1] += [noise.copy(), send_draws, lengths.copy()]
        return steady(assignment, heads, noise, send_draws, lengths)

    sim._election, sim._steady = elect, steady_phase
    replay = np.random.default_rng([cfg.rng_seed, 1])
    n, frames = cfg.n_nodes, cfg.frames_per_round
    (n1, n2), (l1, l2) = cfg.rda_msgs_range, cfg.msg_len_range_bits
    lo, hi = cfg.malfunction_noise_range
    lo_n, hi_n = cfg.nonrda_len_range_bits
    rda, malf = sim.is_rda, sim.is_malf
    for r in range(10000):
        if not sim.alive.any():
            break
        sim.play_round(r)
        counts, lengths, u, *steady_draws = handed[r]
        assert np.array_equal(counts[rda], replay.integers(n1, n2 + 1, n)[rda]), f"round {r}"
        assert np.array_equal(lengths[rda], replay.integers(l1, l2 + 1, n)[rda]), f"round {r}"
        assert np.array_equal(u, replay.random(n)), f"round {r}"
        noise = np.where(malf, replay.uniform(lo, hi, n), 1.0)
        if steady_draws:
            assert np.array_equal(steady_draws[0], noise), f"round {r}"
            sends = replay.random((frames, n))
            if cfg.nonrda_tx_prob_per_frame < 1.0:
                assert np.array_equal(steady_draws[1], sends), f"round {r}"
            else:
                assert steady_draws[1] is None
            if lo_n != hi_n:
                assert np.array_equal(steady_draws[2],
                                      replay.integers(lo_n, hi_n + 1, (frames, n))), f"round {r}"
    assert not sim.alive.any() and not all(len(h) > 3 for h in handed)


class TestScalarDebit:
    """One-message debits of an aggregate amount, one node at a time."""

    def _sim(self, small_config, e):
        sim = _Sim(small_config, PolicyKind.EEPCA)
        sim.e[0] = e
        sim.alive[0] = e > 0.0
        return sim

    @staticmethod
    def _debit(sim, amount):
        a = np.array([amount])
        return sim._debit_messages(np.array([0]), a, a, 1).tolist()

    def test_normal_debit(self, small_config):
        sim = self._sim(small_config, 1.0)
        assert self._debit(sim, 0.3) == [1]
        assert sim.alive[0]
        assert sim.e[0] == pytest.approx(0.7)
        assert sim.debits == pytest.approx(0.3)

    def test_exhaustion_kills(self, small_config):
        sim = self._sim(small_config, 0.2)
        assert self._debit(sim, 0.2) == [1]
        assert not sim.alive[0]
        assert sim.e[0] == 0.0

    def test_blocked_action_clamps_to_zero(self, small_config):
        sim = self._sim(small_config, 0.1)
        assert self._debit(sim, 0.5) == [0]
        assert not sim.alive[0] and sim.e[0] == 0.0
        assert sim.debits == pytest.approx(0.1)  # only what the node had
        assert sim.belief[0] == 0.0  # a drained node believes nothing left
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


@_ignore_p_opt_clamp
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
                   PolicyKind.EEPCA)
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
                       PolicyKind.EEPCA)
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
        sim = _Sim(cfg, policy)
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
        bs_f, bs_s, slow_sim = seen[0]
        assert bs_f == bs_s
        assert np.array_equal(sim.alive, slow_sim.alive)
        for a, b in ((sim.e, slow_sim.e), (sim.belief, slow_sim.belief)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    @given(seed=st.integers(0, 10_000), frames=st.integers(1, 5),
           r=st.integers(0, 30), kill=st.floats(0.0, 1.0), extra=st.floats(0.0, 1.0),
           drain=st.floats(0.0, 0.2), tight=st.booleans(), table=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_head_only_sums_equal_dense_formula(self, seed, frames, r, kill, extra,
                                                drain, tight, table):
        # real rounds, then some heads killed, memberless heads added and some
        # nodes drained near empty, so both the fast path and its refusal run;
        # without its count table the fast path sums every node's bits per
        # frame, with it each count's lengths
        cfg = dataclasses.replace(ScenarioConfig(), n_nodes=40, frames_per_round=frames,
                                  frac_rda=0.5, frac_malfunction=0.2, rng_seed=seed)
        sim = _Sim(cfg, PolicyKind.EEPCA)
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
        if not table:
            state.count_table = None
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
        assert got == want
        assert a.e.tobytes() == b.e.tobytes()
        assert a.belief.tobytes() == b.belief.tobytes()
        assert np.float64(a.debits).tobytes() == np.float64(b.debits).tobytes()
        assert np.array_equal(a.alive, b.alive)


def _dense_steady_spends(sim, assignment, heads, noise, counts, lengths):
    """_Sim._steady_fast's sums with the head-side terms over every node's
    column: (bs count, spend, belief spend)."""
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
    return (int(bs_frames[head_alive].sum()),
            data_act + rx_spend + agg_spend + bs_spend,
            data_nf + rx_spend + agg_spend + bs_spend)


def _dense_steady_fast(sim, *args):
    bs, spend, spend_belief = _dense_steady_spends(sim, *args)
    if not (sim.e >= spend).all():
        return None
    sim.e -= spend
    sim.debits += float(spend.sum())
    if sim.is_eepca:
        sim.belief = np.maximum(sim.belief - spend_belief, 0.0)
    sim.alive = sim.e > 0.0
    return bs

def test_large_field_memory_stays_linear():
    # 4000 nodes at table1 density: one dense n x n float matrix alone is 128 MB
    cfg = table1_scenario(n_nodes=4000, m_field=100.0 * math.sqrt(40.0))
    tracemalloc.start()
    try:
        sim = _Sim(cfg, PolicyKind.EEPCA)
        for r in range(2):
            sim.play_round(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_large_field_round_allocates_under_a_mebibyte(rda_config):
    # head selection in 256 KB blocks and head-only steady sums keep every
    # round's temporaries small at n=1600 (rda_config is scenarios/rda50.json)
    cfg = dataclasses.replace(rda_config, n_nodes=1600, m_field=400.0)
    tracemalloc.start()
    try:
        sim = _Sim(cfg, PolicyKind.EEPCA)
        sim.play_round(0)
        for r in range(1, 6):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            sim.play_round(r)
            grown = tracemalloc.get_traced_memory()[1] - start
            assert grown < 1 << 20, f"round {r}: peak {grown} B above its start"
    finally:
        tracemalloc.stop()


def _peak_over_returned(build, cfg: ScenarioConfig, *args) -> float:
    """The heap build(x, y, *args, radio, broadcast energy) allocates above
    its start at its peak, over the bytes of the arrays it returns, on the
    nodes of cfg with its set-up broadcast energy."""
    x, y = deploy(cfg)[:2]
    args = (x, y, *args, cfg.radio,
            tx_energy(cfg.broadcast_bits, cfg.neighbor_radius, cfg.radio))
    build(*args)  # warm-up: first-call caches
    tracemalloc.start()
    try:
        out = build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sum(a.nbytes for a in out)


@pytest.mark.parametrize("n_nodes,bound", [
    (100, 3.5),                     # measured 3.23
    (eepca.RANK_MAX_NODES, 3.2),    # measured 2.89
])
def test_rank_tables_peak_near_their_size(rda_config, n_nodes, bound):
    # the ranging chain runs in place, so beside its rank table nearest_ranks
    # holds at most three n x n float arrays at once, plus up to 128 KB of
    # numpy's iterator buffers while it forms the coordinate differences
    cfg = dataclasses.replace(rda_config, n_nodes=n_nodes,
                              m_field=100.0 * math.sqrt(n_nodes / 100.0))
    assert _peak_over_returned(eepca.nearest_ranks, cfg) < bound


def test_neighbor_edges_peak_near_their_size(rda_config):
    # each candidate-sized array is dropped once the next exists: the peak is
    # five of them, while sq is formed, at rda50 roles at n=1600 (measured
    # 2.78 times the 160 KB of edges)
    cfg = dataclasses.replace(rda_config, n_nodes=1600, m_field=400.0)
    assert _peak_over_returned(eepca.neighbor_edges, cfg, cfg.neighbor_radius) < 3.0


@pytest.mark.parametrize("n_nodes,policy,max_rounds,measured", [
    (1600, PolicyKind.EEPCA, 40, 1421),   # about 800 suppressed nodes a round
    (100, PolicyKind.SEP, 10000, 78),     # to exhaustion, 2,761 rounds
])
def test_trace_memory_per_round(rda_config, n_nodes, policy, max_rounds, measured):
    """A trace holds its rounds as columns and bit masks: the heap a run's
    trace keeps, e_init and e_final included, stays within 1.5x of the
    bytes per round measured for it.  Per-round RoundRecords of id tuples
    held 29,715 and 391 B a round on these runs."""
    side = 100.0 * math.sqrt(n_nodes / 100.0)
    cfg = dataclasses.replace(rda_config, n_nodes=n_nodes, m_field=side)
    run(cfg, policy, max_rounds=2)  # warm-up: first-call caches
    tracemalloc.start()
    try:
        trace = run(cfg, policy, max_rounds=max_rounds)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / trace.n_rounds < 1.5 * measured


class TestRoundView:
    """trace.records builds each RoundRecord from the trace's columns."""

    def test_length_indexing_and_order(self, small_config):
        trace = run(small_config, PolicyKind.EEPCA, max_rounds=12)
        recs = trace.records
        listed = list(recs)
        assert len(recs) == trace.n_rounds == len(listed) == 12
        assert [rec.r for rec in listed] == list(range(12))
        assert recs[-1] == listed[11] and recs[-12] == listed[0] and recs[3] == listed[3]
        for k in (12, -13):
            with pytest.raises(IndexError):
                recs[k]
        with pytest.raises(TypeError):
            recs[3:9]

    def test_json_values_are_plain_python(self, small_config):
        cfg = dataclasses.replace(small_config, frac_rda=0.5)
        trace = run(cfg, PolicyKind.EEPCA)
        assert trace.termination == "all-dead"
        rows = [rec.to_json_dict() for rec in trace.records]
        for d in rows:
            assert [type(d[k]) for k in ("r", "bs_messages", "alive")] == [int] * 3
            assert [type(d[k]) for k in ("debits", "e_total")] == [float] * 2
            for k in ("heads", "deaths", "suppressed"):
                assert type(d[k]) is list and all(type(i) is int for i in d[k])
                assert d[k] == sorted(d[k])
        assert any(d["deaths"] for d in rows) and any(d["suppressed"] for d in rows)

    def test_rounds_rebuild_the_same_trace(self, small_config):
        # add_round on each round's masks rebuilds the columns; a round with no
        # deaths or suppressions packs alike from None or an all-False mask
        cfg = dataclasses.replace(small_config, frac_rda=0.5)
        trace = run(cfg, PolicyKind.EEPCA)
        n = trace.e_init.size

        def mask(ids):
            m = np.zeros(n, dtype=bool)
            m[list(ids)] = True
            return m

        again = RunTrace(seed=trace.seed, policy=trace.policy,
                         config_hash=trace.config_hash, e_init=trace.e_init)
        for rec in trace.records:
            again.add_round(mask(rec.head_ids), rec.bs_messages,
                            mask(rec.deaths) if rec.deaths else None, mask(rec.suppressed),
                            rec.debits, rec.alive_end, rec.e_total_end)
        assert list(again.records) == list(trace.records)
        for col in ("head_bits", "death_round", "suppressed_bits", "suppressed_rounds",
                    "bs_messages", "debits", "alive_end", "e_total_end"):
            assert np.array_equal(getattr(again, col), getattr(trace, col))
        assert any(not rec.suppressed for rec in trace.records)


def _schedule_ranges(high):
    """(lo, hi) ranges of one value or more, below `high`."""
    return st.integers(0, high - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.just(lo) | st.integers(lo, high - 1)))


@st.composite
def _scenarios(draw):
    """Valid finite scenarios of up to 60 nodes; invalid draws are rejected.
    Message schedules and bit fields reach 2**31 - 1, and frames per round
    MAX_FRAMES_PER_ROUND, the largest values ScenarioConfig takes."""
    unit = st.floats(0.0, 1.0)
    bits = st.integers(0, 10**4) | st.integers(0, 2**31 - 1)
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
        frames_per_round=draw(st.integers(1, 5) | st.integers(1, MAX_FRAMES_PER_ROUND)),
        neighbor_radius=draw(st.floats(0.5, 200.0)),
        malfunction_noise_range=(lo, lo + draw(st.floats(0.0, 1.0))),
        rda_msgs_range=draw(_schedule_ranges(20) | _schedule_ranges(2**31)),
        msg_len_range_bits=draw(_schedule_ranges(10**4) | _schedule_ranges(2**31)),
        nonrda_len_range_bits=draw(_schedule_ranges(10**4) | _schedule_ranges(2**31)),
        broadcast_bits=draw(bits), fused_len_bits=draw(bits),
        rng_seed=draw(st.integers(0, 2**31)),
        radio=RadioParams(alpha_pathloss=draw(st.floats(1.0, 6.0)),
                          k_rss=draw(st.sampled_from([1.0, 3.7e-4]))))
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError:
        assume(False)


@_ignore_p_opt_clamp
@given(cfg=_scenarios())
# counts and lengths up to 2**31 - 1, whose products stay below 2**62; the
# nodes die in the steady phase of the first two rounds
@example(cfg=dataclasses.replace(
    SMALL, frac_rda=0.5, rda_msgs_range=(2**31 - 4, 2**31 - 1),
    msg_len_range_bits=(2**31 - 4001, 2**31 - 1), nonrda_len_range_bits=(0, 2**31 - 1),
    nonrda_tx_prob_per_frame=0.6))
@settings(max_examples=25, deadline=None)
def test_valid_scenarios_conserve_energy(cfg):
    for policy in POLICIES:
        trace = run(cfg, policy, max_rounds=60)
        assert all(math.isfinite(rec.debits) and math.isfinite(rec.e_total_end)
                   for rec in trace.records)
        assert all(rec.debits >= 0 for rec in trace.records)
        assert np.isfinite(trace.e_final).all()
        dropped = trace.e_init.sum() - trace.e_final.sum()
        assert dropped == pytest.approx(trace.total_debits, rel=1e-9)
        alive = [int((trace.e_init > 0).sum())] + [rec.alive_end for rec in trace.records]
        assert all(a >= b for a, b in zip(alive, alive[1:]))


PHASES = ("_setup_broadcasts", "_election", "_form_clusters", "_steady")


@_ignore_p_opt_clamp
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
        sim = _Sim(cfg, policy)
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


@_ignore_p_opt_clamp
@given(cfg=_scenarios())
@settings(max_examples=25, deadline=None)
def test_healthy_nodes_belief_is_exact(cfg):
    # gamma = 0 for every node whose debits the ledger can predict: the belief
    # neighbours compute equals the node's energy, bit for bit
    sim = _Sim(cfg, PolicyKind.EEPCA)
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
    sim = _Sim(cfg, PolicyKind.EEPCA)
    ranged = [0]
    real = eepca.estimated_distance_matrix

    def counting(dx, dy, *args):
        ranged[0] += np.broadcast(dx, dy).size
        return real(dx, dy, *args)

    monkeypatch.setattr(eepca, "estimated_distance_matrix", counting)
    for r in range(5):
        before = ranged[0]
        sim.play_round(r)
        assert len(sim.trace.records[-1].head_ids) > 10
        assert 0 < ranged[0] - before <= 2 * cfg.n_nodes, f"round {r}"


@pytest.mark.parametrize("lo,shape", [(0, 7), (4000, (5, 100)), (2**40, (3, 2))])
def test_one_value_length_range_draws_no_bits(lo, shape):
    # play_round holds a one-value non-RDA length range in msg_len instead of
    # calling Generator.integers; the stream stays the same only while
    # integers() draws no bits for such a range
    rng = np.random.default_rng([3, 1])
    state = rng.bit_generator.state
    assert np.array_equal(rng.integers(lo, lo + 1, shape), np.full(shape, lo))
    assert rng.bit_generator.state == state


@given(c=st.integers(0, 10**6), frames=st.integers(1, 9))
def test_frame_counts_from_divmod(c, frames):
    # an RDA node's messages in frame f, frame_counts' q + (f < rem) with
    # q, rem = divmod(c, frames), equal ceil((c - f) / frames) =
    # (c + frames - 1 - f) // frames, and all c of them are sent
    got = frame_counts(np.array([c]), frames)[:, 0].tolist()
    assert got == [(c + frames - 1 - f) // frames for f in range(frames)]
    assert sum(got) == c


def test_live_neighbors_follow_deaths():
    # the election reuses its live-neighbour counts while the alive count
    # holds; a count that holds means the same set, since no node revives
    cfg = dataclasses.replace(ScenarioConfig(), n_nodes=30, e_min=0.01, e_max=0.05,
                              homogeneous_energy=0.03)
    sim = _Sim(cfg, PolicyKind.EEPCA)
    election = sim._election
    refreshed = []

    def checked(r, u):
        alive = sim.alive.copy()
        before = sim.live_count
        out = election(r, u)
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
    sim = _Sim(cfg, policy)
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
