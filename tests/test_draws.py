import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsncluster.draws import RoundDraws
from wsncluster.model import ScenarioConfig

# one value, 5, 4001 (the default lengths), 3 * 2**29 and 2**32 // 3 + 1,
# where Lemire's method rejects one draw in four and one in three, and
# 2**31 - 1 and 2**31, the widest ranges ScenarioConfig takes, which reject
# almost never and never
_RANGES = st.sampled_from([0, 4, 4000, 3 * 2**29 - 1, 2**32 // 3, 2**31 - 2, 2**31 - 1]
                          ).flatmap(lambda span: st.integers(0, min(10**6, 2**31 - 1 - span)
                                                             ).map(lambda lo: (lo, lo + span)))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 64), frames=st.integers(1, 9), counts=_RANGES, lengths=_RANGES,
       steady_lengths=_RANGES, send_prob=st.sampled_from([1.0, 0.6]),
       noise=st.sampled_from([(0.5, 1.5), (1.0, 1.0), (0.1, 7.3)]),
       steady=st.lists(st.booleans(), min_size=1, max_size=40), seed=st.integers(0, 2**32))
# one node and one ranged draw: a round draws one half, so the window holds
# one round and the half held at its steady block is the next round's
@example(n=1, frames=1, counts=(0, 4), lengths=(7, 7), steady_lengths=(0, 0), send_prob=1.0,
         noise=(0.5, 1.5), steady=[False, True, False, False, True], seed=0)
def test_round_draws_equal_generator_calls(n, frames, counts, lengths, steady_lengths,
                                           send_prob, noise, steady, seed):
    # every draw equals, bit for bit, numpy's Generator calls in the order
    # play_round lists them, with and without each round's steady block;
    # nodes not drawn hold their values and quiet nodes get noise 1.0
    cfg = dataclasses.replace(
        ScenarioConfig(), n_nodes=n, frames_per_round=frames, rda_msgs_range=counts,
        msg_len_range_bits=lengths, nonrda_tx_prob_per_frame=send_prob,
        nonrda_len_range_bits=steady_lengths, malfunction_noise_range=noise)
    masks = np.random.default_rng(seed + 1)
    drawn, noisy = masks.random(n) < 0.7, masks.random(n) < 0.5
    held_count, held_length = masks.integers(0, 9, 2).tolist()
    draws = RoundDraws(np.random.PCG64([seed, 1]), cfg, drawn, noisy, held_count, held_length)
    replay = np.random.default_rng([seed, 1])
    for has_steady in steady + [False]:  # the last round checks where the stream stands
        got_counts, got_lengths, u, got_noise = draws.block1()
        for got, (lo, hi), held in ((got_counts, counts, held_count),
                                    (got_lengths, lengths, held_length)):
            assert np.array_equal(got, np.where(drawn, replay.integers(lo, hi + 1, n), held))
        assert np.array_equal(u, replay.random(n))
        assert np.array_equal(got_noise, np.where(noisy, replay.uniform(*noise, n), 1.0))
        if has_steady:
            sends, got = draws.block2()
            expect = replay.random((frames, n))
            assert sends is None if send_prob == 1.0 else np.array_equal(sends, expect)
            lo, hi = steady_lengths
            expect = replay.integers(lo, hi + 1, (frames, n))
            assert got is None if lo == hi else np.array_equal(got, expect)
