"""Round-loop orchestration with full energy bookkeeping.

Each round has a setup phase (info broadcasts with optional prediction-based
suppression, head election, cluster formation) and a steady phase of TDMA
frames in which members transmit scheduled data to their head, the head
aggregates and forwards one fused message per data-bearing frame to the base
station.  All energy movements go through debit helpers that log the applied
amounts, clamp at zero, and kill nodes whose energy is exhausted; a blocked
action (message the node cannot afford) is not performed.  A message debit
settles affordability with one compare for nodes well above the cost of
their messages and divides only for the rest.  Every debit leaves alive
equal to e > 0, so a debit every node affords, which kills no one, skips the
alive write.

A parallel "believed energy" ledger mirrors every debit, with data
transmissions charged at their predicted (noise-free) cost.  This is the
residual-energy value neighbors can compute for an RDA node without hearing
a broadcast; for non-malfunctioning nodes it tracks ground truth exactly.

Neighborhoods are held as edge arrays (src, dst) with the per-bit cost over
each edge, built once per run; nothing in a run is n x n.  What the edges
give over the alive nodes (eepca.live_neighbors: each edge's live weight,
each node's live-neighbour count and its positive mask and floor of 1, and
whether every neighbour is alive) is kept until a node dies.  The election's
factors read it, and skip the live weights while every node lives; in a
round where every alive node broadcasts and none dies sending (every LEACH
and SEP round; EEPCA's round 0, and its rounds with suppression off or no
alive RDA node) the counts are the setup-broadcast reception counts; any
other round counts its senders' edges.  A message debit of every node works
on views of the energy and belief arrays, and a debit that every node
affords tells its caller (_Sim.rich) to skip re-masking the nodes it sent
for.

In cluster formation each member picks this round's nearest head, the one
ranging every head would give.  On a field of at most RANK_MAX_NODES nodes
it is the alive head of lowest rank in the member's row of a per-run table
of every pair's distance rank, and its per-bit cost is read from a per-run
table of every pair's cost (eepca.nearest_ranks, eepca.ranked_heads).  On a
larger field the member picks its head by squared distance and ranges only
that head, unless a near-tie or a distance at the edge of the float range
needs every head ranged (eepca.nearest_heads).  The squared distances come
from one float32 matrix product per block of members, whose per-node
operand (eepca.screen_operand) is built once per run beside the float64
coordinates the choice is ranged from.  Each member's per-bit cost to its
chosen head is kept in one per-node vector, which the join and both steady
paths read.

The steady phase has two equivalent evaluation paths: a vectorized
whole-round path used when every participating node can afford its full
round spend, and a per-frame granular path that handles mid-round deaths.
The whole-round path sums reception, aggregation and uplink over the alive
heads only; one bincount sums every node's bits into (frame, head) columns,
a non-member's into a dump column.  A non-RDA node that sends in every
frame (send probability 1) holds frames messages in msg_count, and a
one-value non-RDA length range is held in msg_len, so a round forms its
frame counts and lengths with no per-round fill; the send draws that
probability 1 makes moot are still drawn, to keep the stream.  A per-run
table of LEACH/SEP thresholds by round was tried and not kept: at n=1600 it
cost more set-up time and heap than the election time it saved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import eepca
from .baselines import PolicyKind, sep_probabilities
from .model import ScenarioConfig, deploy
from .planner import make_plan
from .radio import rx_energy, tx_energy


@dataclass
class RoundRecord:
    r: int
    head_ids: tuple[int, ...]
    bs_messages: int
    deaths: tuple[int, ...]
    suppressed: tuple[int, ...]
    debits: float
    alive_end: int
    e_total_end: float
    # populated only when the run records full detail
    e_start: Optional[np.ndarray] = None
    e_end: Optional[np.ndarray] = None
    assignment: Optional[np.ndarray] = None
    data_energy: Optional[np.ndarray] = None
    data_energy_predicted: Optional[np.ndarray] = None

    def to_json_dict(self) -> dict:
        d = {
            "r": self.r,
            "heads": list(self.head_ids),
            "bs_messages": self.bs_messages,
            "deaths": list(self.deaths),
            "suppressed": list(self.suppressed),
            "debits": self.debits,
            "alive": self.alive_end,
            "e_total": self.e_total_end,
        }
        if self.e_end is not None:
            d["e_end"] = self.e_end.tolist()
            d["assignment"] = self.assignment.tolist()
        return d


@dataclass
class RunTrace:
    seed: int
    policy: PolicyKind
    config_hash: str
    records: list[RoundRecord] = field(default_factory=list)
    termination: str = "round-limit"  # "all-dead" | "round-limit"
    e_init: Optional[np.ndarray] = None
    e_final: Optional[np.ndarray] = None
    total_debits: float = 0.0

    @property
    def n_rounds(self) -> int:
        return len(self.records)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_json_dict()) + "\n")


# Fields of at most this many nodes pick each member's head from per-run
# n x n tables (eepca.nearest_ranks), larger ones through the float32 screen
# of eepca.nearest_heads.  scripts/phase_times.py --against the screen,
# rda50 roles at table1 density, median µs per round over 5 runs, screen ->
# tables: leach 294 -> 232 and eepca 437 -> 362 at n=100 run to exhaustion;
# over 40 rounds leach 249 -> 200 and eepca 349 -> 288 at 150, leach
# 233 -> 190 and eepca 465 -> 390 at 200, and leach 405 -> 341 and eepca
# 551 -> 499 at 300.  But the tables take 0.65 ms to build at n=100,
# 3.4 ms at 200 and 8.7 ms at 300: a run repays them after 45 to 80 rounds
# at 200 and 140 to 170 at 300, while the n^2 set-up keeps growing.
RANK_MAX_NODES = 200


class _Sim:
    """Mutable per-run state; strictly single-threaded and deterministic."""

    def __init__(self, config: ScenarioConfig, policy: PolicyKind, detail: bool):
        self.cfg = config
        self.policy = policy
        self.detail = detail
        radio = config.radio
        n = config.n_nodes
        self.n = n
        self.x, self.y, self.e_init, self.is_rda, self.is_malf = deploy(config)
        self.e = self.e_init.copy()
        self.belief = self.e_init.copy()
        self.alive = self.e > 0.0
        self.r_s = np.zeros(n, dtype=np.int64)
        self.in_g = np.ones(n, dtype=bool)
        self.msg_count = np.zeros(n, dtype=np.int64)
        self.msg_len = np.zeros(n, dtype=np.int64)
        # a non-RDA node that sends every frame holds frames messages a round,
        # and one with a one-value length range holds that length: the round
        # forms neither from its draws (_steady)
        frames = config.frames_per_round
        lo_n, hi_n = config.nonrda_len_range_bits
        self.sends_every_frame = config.nonrda_tx_prob_per_frame == 1.0
        self.fixed_len = lo_n == hi_n
        if self.sends_every_frame:
            self.msg_count[~self.is_rda] = frames
        if self.fixed_len:
            self.msg_len[~self.is_rda] = lo_n
        # message counts of one-message debits, viewed read-only
        self.ones = np.ones(n, dtype=np.int64)
        self.ones.flags.writeable = False
        self.frame_col = np.arange(frames)[:, None]

        self.rng = np.random.default_rng([config.rng_seed, 1])

        plan = make_plan(config)
        self.plan = plan
        self.p_opt = plan.p_opt
        self.e_ideal = plan.e_consume_avg
        self.nonrda_mean_len = sum(config.nonrda_len_range_bits) / 2.0

        bcast_e = tx_energy(config.broadcast_bits, config.neighbor_radius, radio)
        self.bcast_cost = bcast_e
        self.rx_bcast = rx_energy(config.broadcast_bits, radio)
        self.ad_cost = tx_energy(config.broadcast_bits, config.m_field * math.sqrt(2.0), radio)
        # neighbor edges dst -> src, ranged as the nodes themselves estimate
        # distances from broadcast RSS, and the per-bit cost over each edge
        self.src, self.dst, d_nb = eepca.neighbor_edges(
            self.x, self.y, config.neighbor_radius, radio, bcast_e)
        self.cost_nb = eepca.cost_per_bit_matrix(d_nb, radio)
        # per-bit cost from each member to the head it joined this round
        self.cpb_head = np.zeros(n)
        bx, by = config.bs_xy
        self.d_bs = np.hypot(self.x - bx, self.y - by)
        self.bs_cost = tx_energy(config.fused_len_bits, self.d_bs, radio)
        # how members pick their head: a small field's per-run tables of
        # every pair's distance rank and per-bit cost, or a large field's
        # float32 screen operand, built after the set-up peak, and the
        # squared distances over which the screen may pick a head unranged
        if n <= RANK_MAX_NODES:
            self.rank, self.cpb_pair = eepca.nearest_ranks(self.x, self.y, radio, bcast_e)
            self.screen = None
        else:
            self.rank = None
            self.screen = eepca.screen_operand(self.x, self.y)
            self.ranging_window = eepca.ranging_window(radio, bcast_e)
        self.e_da = config.e_da_per_bit
        self.e_elec = radio.e_elec

        if policy is PolicyKind.SEP:
            self.static_p = sep_probabilities(self.e_init, self.p_opt)
        else:
            self.static_p = eepca.election_probabilities_all(self.p_opt, np.ones(n))
        self.static_epoch = eepca.rotation_epochs(self.static_p)
        # EEPCA's factors make p, and so the rotation epochs, change by round
        self.dynamic_p = policy is PolicyKind.EEPCA and not config.force_unit_factors
        # live neighbours (eepca.live_neighbors) as of the alive count they
        # were taken at; no node revives, so an equal count is an equal set
        self.live_count, self.neighbors = -1, None
        self.suppresses = policy is PolicyKind.EEPCA and not config.disable_suppression
        self.nobody = np.zeros(n, dtype=bool)
        self.nobody.flags.writeable = False
        # the belief ledger only matters where suppression/factors consume it
        self.track_belief = policy is PolicyKind.EEPCA

        self.debits = 0.0
        # whether the last _debit_messages delivered every message asked for
        # and killed no node, so its caller need not re-mask
        self.rich = True

    # --- energy accounting helpers ---------------------------------------

    def _debit_messages(self, idx: np.ndarray, per_msg, per_msg_belief,
                        counts) -> np.ndarray:
        """Debit up to `counts` messages of `per_msg` cost each for nodes idx.

        A node sends whole messages while it can afford them; the first
        unaffordable message drains it to zero (blocked, not delivered).
        counts is one int for every node or an int array over idx.  Returns
        the number of delivered messages per node in idx; callers only read
        it.

        A node affords floor_divide(e, per_msg) messages, and floor(e / c)
        >= k exactly when e >= k * c.  A float above the rounded product
        counts * per_msg lies above the exact product, so a node with
        e > counts * per_msg * (1 + 1e-12) affords every message and skips
        the division; only nodes near running short pay for floor_divide.
        When every node is rich, e - cost stays positive, so no node dies,
        the counts themselves are returned as the delivered messages and
        self.rich is set.  A debit of every node (idx.size == n, so idx is
        0 .. n - 1) works on views of e and belief, not gathered copies.
        """
        if idx.size == self.n:
            idx = slice(None)
        e = self.e[idx]
        scalar = not isinstance(per_msg, np.ndarray)
        self.rich = True
        if not isinstance(counts, np.ndarray):
            counts = self.ones[:e.size] if counts == 1 else np.full(e.shape, counts)
        cost = counts * per_msg
        rich = e > cost * (1.0 + 1e-12)
        if np.count_nonzero(rich) == rich.size:
            e -= cost
            self.e[idx] = e
            self.debits += float(np.add.reduce(cost))
            if self.track_belief:
                spent = cost if per_msg_belief is per_msg else counts * per_msg_belief
                b = self.belief[idx]
                b -= spent
                self.belief[idx] = np.maximum(b, 0.0, out=b)
            return counts
        self.rich = False
        delivered = counts.astype(float)
        short = (~rich).nonzero()[0]
        unit = per_msg if scalar else per_msg[short]
        afford = np.full(short.shape, np.inf)
        np.floor_divide(e[short], unit, out=afford, where=unit > 0)
        delivered[short] = np.minimum(delivered[short], afford)
        failed = delivered < counts
        cost = delivered * per_msg
        applied = np.where(failed, e, cost)
        self.e[idx] = e - applied
        self.debits += float(applied.sum())
        if self.track_belief:
            b_new = np.maximum(self.belief[idx] - delivered * per_msg_belief, 0.0)
            if failed.any():
                b_new[failed] = 0.0
            self.belief[idx] = b_new
        self.alive[idx] = self.e[idx] > 0.0
        return delivered.astype(np.int64)

    def _debit_bulk(self, idx: np.ndarray, amounts: np.ndarray) -> np.ndarray:
        """Debit an aggregate amount (e.g. reception of many messages).

        Returns a mask of nodes that could afford the full amount; the rest
        are drained to zero and die.
        """
        e = self.e[idx]
        ok = e >= amounts
        applied = np.where(ok, amounts, e)
        self.e[idx] = e - applied
        self.debits += float(applied.sum())
        if self.track_belief:
            self.belief[idx] = np.maximum(self.belief[idx] - applied, 0.0)
        self.alive[idx] = self.e[idx] > 0.0
        return ok

    def _live_neighbors(self) -> eepca.LiveNeighbors:
        """eepca.live_neighbors over the alive nodes, taken again only when
        a node has died since the last call."""
        n_alive = np.count_nonzero(self.alive)
        if n_alive != self.live_count:
            self.live_count = n_alive
            self.neighbors = eepca.live_neighbors(self.src, self.dst, self.alive)
        return self.neighbors

    # --- phases -----------------------------------------------------------

    def _setup_broadcasts(self, r: int) -> np.ndarray:
        """Info broadcasts with prediction suppression; returns suppressed mask."""
        cfg = self.cfg
        suppressed = self.nobody
        senders = self.alive.copy()
        if self.suppresses and r > 0:
            cand = senders & self.is_rda
            if np.count_nonzero(cand):
                suppressed = np.zeros(self.n, dtype=bool)
                suppressed[cand] = eepca.broadcast_suppressed(
                    self.belief[cand], self.e[cand], cfg.epsilon_tol, cfg.gamma_rule_literal)
                senders ^= suppressed
        idx = senders.nonzero()[0]
        sent = self._debit_messages(idx, self.bcast_cost, self.bcast_cost, 1)
        no_death = self.rich
        if not no_death:
            senders[idx] = sent > 0
        # receptions: each alive node hears each successful neighbor broadcast
        hearers = self.alive.nonzero()[0]
        if suppressed is self.nobody and hearers.size == idx.size:
            # every alive node sent and none died (a failed send kills), so
            # the senders are the alive nodes: heard counts are live ones
            heard = self._live_neighbors().counts
        else:
            heard = np.bincount(self.src[senders[self.dst]], minlength=self.n)
        if hearers.size < self.n:
            heard = heard[hearers]
        self._debit_messages(hearers, self.rx_bcast, self.rx_bcast, heard)
        # a heard broadcast carries the sender's current energy
        if self.track_belief:
            np.copyto(self.belief, self.e,
                      where=senders if no_death and self.rich else senders & self.alive)
        return suppressed

    def _election(self, r: int) -> np.ndarray:
        cfg = self.cfg
        alive = self.alive
        if self.dynamic_p:
            neighbors = self._live_neighbors()
            w_e = eepca.energy_factors_all(self.e, self.belief, self.src, self.dst,
                                           alive, neighbors)
            l_sched = (self.msg_len if self.fixed_len else
                       np.where(self.is_rda, self.msg_len, self.nonrda_mean_len))
            e_round = eepca.avg_round_energies_all(l_sched, self.cost_nb, self.src,
                                                   self.dst, alive, self.e_ideal,
                                                   neighbors)
            w_c = eepca.cost_factors_all(self.e_ideal, e_round, cfg.cost_factor_cap)
            w = cfg.alpha * w_e + cfg.beta * w_c
            p = eepca.election_probabilities_all(self.p_opt, w)
            epoch = eepca.rotation_epochs(p)
        else:  # LEACH, SEP, or EEPCA with factors forced to 1
            p, w, epoch = self.static_p, None, self.static_epoch

        phase = r % epoch
        self.in_g |= phase == 0
        t = eepca.eepca_thresholds_all(p, r, self.r_s, w, self.in_g, epoch, phase)
        u = self.rng.random(self.n)
        elected = alive & (u < t)
        if not np.count_nonzero(elected) and np.count_nonzero(alive):
            # zero-head repair: draft the alive node with the largest p
            p_masked = np.where(alive, p, -np.inf)
            elected[int(np.argmax(p_masked))] = True
        self.r_s += alive ^ elected  # elected nodes are alive
        self.r_s[elected] = 0
        self.in_g[elected] = False
        return elected

    def _form_clusters(self, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advertisements, joins; returns (assignment, surviving head mask).

        Each member joins the head whose advertisement it ranges nearest,
        the lowest head id on ties.  A small field looks that head up in its
        per-run rank table (eepca.ranked_heads) and ranges nothing; on a
        larger one eepca.nearest_heads picks it by squared distance and
        ranges only the pair it picked, so a round ranges about one pair per
        member instead of members x heads.
        """
        cfg = self.cfg
        assignment = np.full(self.n, -1, dtype=np.int64)
        h_idx = heads.nonzero()[0]
        sent = self._debit_messages(h_idx, self.ad_cost, self.ad_cost, 1)
        ok_heads = heads.copy()
        no_death = self.rich
        if not no_death:
            ok_heads[h_idx] = sent > 0
        n_ads = np.count_nonzero(ok_heads)
        # every alive node hears every successful advertisement but its own
        if n_ads:
            hearers = self.alive.nonzero()[0]
            counts = n_ads - (ok_heads if hearers.size == self.n else ok_heads[hearers])
            self._debit_messages(hearers, self.rx_bcast, self.rx_bcast, counts)
            no_death &= self.rich
        if not no_death:
            ok_heads &= self.alive
        ok_heads_idx = ok_heads.nonzero()[0]
        if ok_heads_idx.size == 0:
            return assignment, ok_heads
        members = (self.alive ^ ok_heads).nonzero()[0]
        if members.size:
            if self.rank is not None:
                choice = eepca.ranked_heads(self.rank, members, ok_heads_idx)
                cpb = self.cpb_pair[members, ok_heads_idx[choice]]
            else:
                ops = eepca.screen_operands(self.screen, members, ok_heads_idx)
                choice, d_head = eepca.nearest_heads(
                    self.x[members], self.y[members], self.x[ok_heads_idx],
                    self.y[ok_heads_idx], cfg.radio, self.bcast_cost, self.ranging_window, ops)
                cpb = eepca.cost_per_bit_matrix(d_head, cfg.radio)
            self.cpb_head[members] = cpb
            join_cost = cfg.broadcast_bits * cpb
            joined = self._debit_messages(members, join_cost, join_cost, 1)
            if not self.rich and np.count_nonzero(joined) < members.size:
                members, choice = members[joined > 0], choice[joined > 0]
            assignment[members] = ok_heads_idx[choice]
            if members.size:
                # choice indexes ok_heads_idx, so this counts joins per head
                n_join = np.bincount(choice, minlength=ok_heads_idx.size)
                self._debit_messages(ok_heads_idx, self.rx_bcast, self.rx_bcast, n_join)
                if (not self.rich and
                        np.count_nonzero(self.alive[ok_heads_idx]) < ok_heads_idx.size):
                    ok_heads &= self.alive
                    dead = ~self.alive[assignment[members]]
                    assignment[members[dead]] = -1
        return assignment, ok_heads

    # --- steady phase ------------------------------------------------------

    def _steady(self, assignment: np.ndarray, heads: np.ndarray,
                noise: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """TDMA frames; returns (bs message count, actual and predicted
        per-node data-send energy for the round)."""
        cfg = self.cfg
        frames = cfg.frames_per_round
        # a node with c = q * frames + rem >= 0 messages sends
        # ceil((c - f) / frames) of them in frame f, which is q + (f < rem)
        q, rem = np.divmod(self.msg_count, frames)
        counts = q + (self.frame_col < rem)
        if self.sends_every_frame:
            # every draw is a send, as msg_count holds; drawn to keep the stream
            self.rng.random((frames, self.n))
        else:
            sends = self.rng.random((frames, self.n)) < cfg.nonrda_tx_prob_per_frame
            counts = np.where(self.is_rda, counts, sends)
        if self.fixed_len:
            # integers() draws no bits for a one-value range, so the length
            # held in msg_len keeps the stream; one row, broadcast over frames
            lengths = self.msg_len
        else:
            lo_n, hi_n = cfg.nonrda_len_range_bits
            lengths = self.rng.integers(lo_n, hi_n + 1, (frames, self.n))
            np.copyto(lengths, self.msg_len, where=self.is_rda)

        fast = self._steady_fast(assignment, heads, noise, counts, lengths)
        if fast is not None:
            return fast
        return self._steady_slow(assignment, heads, noise, counts, lengths)

    def _steady_fast(self, assignment, heads, noise, counts, lengths):
        """Whole-round evaluation, valid when no node exhausts mid-round.

        Members spend only their data cost, so reception, aggregation and the
        BS uplink are summed over the alive heads' columns alone and added
        onto those heads' entries, in the order the per-frame path charges.
        """
        head_alive = heads & self.alive
        # an unassigned node's -1 reads the last node, masked by assignment >= 0
        member = (assignment >= 0) & self.alive & head_alive[assignment]

        msg_cost_nf = lengths * self.cpb_head              # per message, per frame row
        data_nf = np.add.reduce(counts * msg_cost_nf) * member
        data_act = data_nf * noise

        bits = counts * lengths                            # (frames, n)
        # bits each alive head receives per frame, as (frames, heads); whole
        # numbers, so exact in any order.  Every node's bits go to its head's
        # column, or to a dump column n_h past them if it is no member.
        h_idx = head_alive.nonzero()[0]
        frames, n_h = counts.shape[0], h_idx.size
        rank = np.empty(self.n, dtype=np.int64)  # each alive head's column
        rank[h_idx] = np.arange(n_h)
        slot = self.frame_col * (n_h + 1) + np.where(member, rank[assignment], n_h)
        bits_rx = np.bincount(slot.ravel(), weights=bits.ravel(),
                              minlength=frames * (n_h + 1)).reshape(frames, n_h + 1)[:, :n_h]
        total_bits = bits_rx + bits[:, h_idx]              # heads sense their own
        rx_spend = np.add.reduce(bits_rx) * self.e_elec
        agg_spend = np.add.reduce(total_bits) * self.e_da
        bs_frames = np.add.reduce(total_bits > 0)
        bs_spend = bs_frames * self.bs_cost[h_idx]

        spend = data_act.copy()
        spend[h_idx] = data_act[h_idx] + rx_spend + agg_spend + bs_spend
        if np.count_nonzero(self.e >= spend) < spend.size:
            return None
        self.e -= spend
        self.debits += float(np.add.reduce(spend))
        if self.track_belief:
            spend_belief = data_nf.copy()
            spend_belief[h_idx] = data_nf[h_idx] + rx_spend + agg_spend + bs_spend
            self.belief = np.maximum(self.belief - spend_belief, 0.0)
        self.alive = self.e > 0.0
        return int(np.add.reduce(bs_frames)), data_act, data_nf

    def _steady_slow(self, assignment, heads, noise, counts, lengths):
        """Per-frame granular evaluation handling mid-round deaths."""
        lengths = np.broadcast_to(lengths, counts.shape)
        bs_msgs = 0
        data_spent = np.zeros(self.n)
        data_pred = np.zeros(self.n)
        for f in range(counts.shape[0]):
            head_alive = heads & self.alive
            bad = (assignment >= 0) & ~head_alive[assignment]
            assignment[bad] = -1
            tx_idx = ((assignment >= 0) & self.alive & (counts[f] > 0)).nonzero()[0]
            bits_rx = np.zeros(self.n)
            if tx_idx.size:
                per_msg_nf = lengths[f, tx_idx] * self.cpb_head[tx_idx]
                per_msg = per_msg_nf * noise[tx_idx]
                delivered = self._debit_messages(tx_idx, per_msg, per_msg_nf,
                                                 counts[f, tx_idx])
                data_spent[tx_idx] += delivered * per_msg
                data_pred[tx_idx] += delivered * per_msg_nf
                bits_rx = np.bincount(assignment[tx_idx],
                                      weights=delivered * lengths[f, tx_idx],
                                      minlength=self.n)
            h_idx = (head_alive & self.alive).nonzero()[0]
            if h_idx.size == 0:
                continue
            ok = self._debit_bulk(h_idx, bits_rx[h_idx] * self.e_elec)
            h_idx = h_idx[ok]
            if h_idx.size == 0:
                continue
            # heads sense their own data straight into the aggregate
            total_bits = bits_rx[h_idx] + counts[f, h_idx] * lengths[f, h_idx]
            if self.e_da > 0:
                ok = self._debit_bulk(h_idx, total_bits * self.e_da)
                h_idx, total_bits = h_idx[ok], total_bits[ok]
            tx_bs = h_idx[total_bits > 0]
            if tx_bs.size:
                sent = self._debit_messages(tx_bs, self.bs_cost[tx_bs],
                                            self.bs_cost[tx_bs], 1)
                bs_msgs += int(sent.sum())
        return bs_msgs, data_spent, data_pred

    # --- one round ---------------------------------------------------------

    def play_round(self, r: int) -> RoundRecord:
        cfg = self.cfg
        alive_before = self.alive.copy()
        e_start = self.e.copy() if self.detail else None
        self.debits = 0.0

        # per-round RDA schedules (fixed within the round); draws are made for
        # every node so the stream stays aligned across policies
        n1, n2 = cfg.rda_msgs_range
        l1, l2 = cfg.msg_len_range_bits
        nc = self.rng.integers(n1, n2 + 1, self.n)
        lc = self.rng.integers(l1, l2 + 1, self.n)
        np.copyto(self.msg_count, nc, where=self.is_rda)
        np.copyto(self.msg_len, lc, where=self.is_rda)

        suppressed = self._setup_broadcasts(r)
        elected = self._election(r)
        assignment, heads = self._form_clusters(elected)

        lo, hi = cfg.malfunction_noise_range
        noise_draw = self.rng.uniform(lo, hi, self.n)
        noise = np.where(self.is_malf, noise_draw, 1.0)

        if np.count_nonzero(heads):
            bs_msgs, data_spent, data_pred = self._steady(assignment, heads, noise)
        else:
            bs_msgs = 0
            data_spent = np.zeros(self.n)
            data_pred = np.zeros(self.n)

        deaths = (alive_before ^ self.alive).nonzero()[0]  # no node revives
        rec = RoundRecord(
            r=r,
            head_ids=tuple(elected.nonzero()[0].tolist()),
            bs_messages=bs_msgs,
            deaths=tuple(deaths.tolist()),
            suppressed=tuple(suppressed.nonzero()[0].tolist()),
            debits=self.debits,
            alive_end=int(np.count_nonzero(self.alive)),
            e_total_end=float(np.add.reduce(self.e)),
        )
        if self.detail:
            rec.e_start = e_start
            rec.e_end = self.e.copy()
            rec.assignment = assignment.copy()
            rec.data_energy = data_spent
            rec.data_energy_predicted = data_pred
        return rec


def run(config: ScenarioConfig, policy: PolicyKind | str,
        max_rounds: int = 10000, detail: bool = False) -> RunTrace:
    """Execute one full simulation run; deterministic in (config, policy)."""
    if isinstance(policy, str):
        policy = PolicyKind.parse(policy)
    sim = _Sim(config, policy, detail)
    trace = RunTrace(seed=config.rng_seed, policy=policy,
                     config_hash=config.config_hash(), e_init=sim.e_init.copy())
    total = 0.0
    for r in range(max_rounds):
        if not np.count_nonzero(sim.alive):
            break
        rec = sim.play_round(r)
        total += rec.debits
        trace.records.append(rec)
    if not sim.alive.any():
        trace.termination = "all-dead"
    trace.e_final = sim.e.copy()
    trace.total_debits = total
    return trace

