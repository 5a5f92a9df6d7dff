"""Round-loop orchestration with full energy bookkeeping.

Each round has a setup phase (info broadcasts with optional prediction-based
suppression, head election, cluster formation) and a steady phase of TDMA
frames in which members transmit scheduled data to their head, the head
aggregates and forwards one fused message per data-bearing frame to the base
station.  Energy a node may not afford moves through one debit helper,
_Sim._debit_messages, that logs the applied amounts, clamps at zero, and
kills nodes whose energy is exhausted; a blocked action (message the node
cannot afford) is not performed, and an aggregate amount (a head's reception
or aggregation in a frame) is one message of that amount.  A message debit
settles affordability with one compare for nodes well above the cost of
their messages and divides only for the rest.  Every debit leaves alive
equal to e > 0, so a debit every node affords, which kills no one, skips the
alive write.

A parallel "believed energy" ledger mirrors every debit, with data
transmissions charged at their predicted (noise-free) cost, and a node a
blocked debit drains believes 0.  This is the residual-energy value
neighbors can compute for an RDA node without hearing a broadcast; for
non-malfunctioning nodes it tracks ground truth exactly.

Neighborhoods are held as edge arrays (src, dst) with the per-bit cost over
each edge, built once per run.  The only n x n arrays are the head picker's
rank and cost tables, on fields of at most eepca.RANK_MAX_NODES nodes.
What the edges give over the alive nodes (eepca.live_neighbors: each edge's
live weight, each node's live-neighbour count and its positive mask and
floor of 1, and whether every neighbour is alive) is kept until a node dies.
The election's factors read it, and skip the live weights while every node
lives; in a round where every alive node broadcasts and none dies sending
(every LEACH and SEP round; EEPCA's round 0, and its rounds with no alive
RDA node) the counts are the setup-broadcast reception counts; any other
round counts its senders' edges.  A message debit of every node works on
views of the energy and belief arrays, and a debit that every node affords
tells its caller (_Sim.rich) to skip re-masking the nodes it sent for.

In cluster formation each member joins this round's nearest head, the one
ranging every head would give, as the run's eepca.head_picker picks it
(eepca's docstring says how).  Each member's per-bit cost to its chosen head
is kept in one per-node vector, which the join and both steady paths read.

The steady phase has two equivalent evaluation paths: a vectorized
whole-round path used when every participating node can afford its full
round spend, and a per-frame granular path that handles mid-round deaths.
The whole-round path sums reception, aggregation and uplink over the alive
heads only; one bincount sums every node's bits into (frame, head) columns,
a non-member's into a dump column.  A non-RDA node that sends in every
frame (send probability 1) holds frames messages in msg_count, and a
one-value non-RDA length range is held in msg_len, so a round forms its
frame counts and lengths with no per-round fill.  Each frame's counts are
read from a per-run table of frame_counts over the counts a node can hold
(float, so the steady sums need no cast).  When the counts are the table's
and the lengths one per node, the bincount sums each node's length into a
(count, head) column instead, and one small product with the table spreads
those sums over the frames.

Every policy makes the same draws each round, so their order is part of
the model.  play_round takes them all from the run's draws.RoundDraws, and
the phases take them as arguments: before the phases, the RDA message
counts and lengths, the election's uniforms and the malfunction noise;
after cluster formation, only when a head survived it, the non-RDA send
doubles, then the non-RDA lengths.  They are, bit for bit, what numpy
2.4.6's Generator gives for the calls play_round lists on the run's PCG64
stream, but RoundDraws makes them from bit_generator.random_raw words
(bounded integers from 32-bit halves, as ScenarioConfig keeps each range
below 2**31): a window of rounds at a time, each round's first block and
send doubles, cut at a round that draws no steady block or rejects a bounded
integer and resumed exactly there, or, with ranged non-RDA lengths, a round
at a time, one call per draw; draws.py says how.  A steady block whose send
doubles are all sends (send probability 1) and whose lengths are one value
is moot and skipped, not drawn.  So a trace depends on PCG64's raw output
and not on Generator's transforms, which numpy does not promise to keep
across versions.

A run's rounds are kept as typed columns on its RunTrace, which _Sim holds:
play_round appends the round's BS message count, debits, alive count and
total energy to one array each and packs its head mask with np.packbits; a
death is kept as the node's death round, and a suppression mask is packed
only for a round that suppresses a node, so nothing per round is a Python
object and rounds with no death or suppression store no row for them.
trace.records is a read-only sequence view that builds a round's
RoundRecord, ids as tuples, when it is read; metrics.summarize reads the
columns, and total_debits sums the debits column.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import eepca
from .baselines import PolicyKind, sep_probabilities
from .draws import RoundDraws
from .model import ScenarioConfig, deploy
from .planner import make_plan
from .radio import rx_energy, tx_energy


@dataclass(slots=True)
class RoundRecord:
    r: int
    head_ids: tuple[int, ...]
    bs_messages: int
    deaths: tuple[int, ...]
    suppressed: tuple[int, ...]
    debits: float
    alive_end: int
    e_total_end: float

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "heads": list(self.head_ids),
            "bs_messages": self.bs_messages,
            "deaths": list(self.deaths),
            "suppressed": list(self.suppressed),
            "debits": self.debits,
            "alive": self.alive_end,
            "e_total": self.e_total_end,
        }


@dataclass
class RunTrace:
    """A run's metadata and its rounds, kept as typed columns.

    Entry i of each column is round i.  bs_messages and alive_end are int64
    and debits and e_total_end float64 array.array columns; head_bits holds
    each round's head mask packed by np.packbits, mask_bytes bytes a round.
    A node dies once, so death_round holds each node's death round (int32,
    -1 while it lives; None before the first death), and suppressed_bits
    holds the packed suppression masks of only the rounds that suppress a
    node, whose numbers suppressed_rounds lists in order.  records views
    the columns as RoundRecords, built on access.
    """
    seed: int
    policy: PolicyKind
    config_hash: str
    e_init: np.ndarray
    termination: str = "round-limit"  # "all-dead" | "round-limit"
    e_final: Optional[np.ndarray] = None

    def __post_init__(self):
        self.mask_bytes = -(-self.e_init.size // 8)
        self.bs_messages = array("q")
        self.debits = array("d")
        self.alive_end = array("q")
        self.e_total_end = array("d")
        self.head_bits = bytearray()
        self.death_round = None
        self.suppressed_bits = bytearray()
        self.suppressed_rounds = array("q")

    def add_round(self, heads, bs_messages, deaths, suppressed, debits,
                  alive_end, e_total_end) -> None:
        """Append the next round.  heads, deaths and suppressed are boolean
        node masks, deaths and suppressed None for a round without such
        nodes."""
        r = self.n_rounds
        self.head_bits.extend(np.packbits(heads))
        if deaths is not None:
            if self.death_round is None:
                self.death_round = np.full(self.e_init.size, -1, dtype=np.int32)
            self.death_round[deaths] = r
        if suppressed is not None and np.count_nonzero(suppressed):
            self.suppressed_bits.extend(np.packbits(suppressed))
            self.suppressed_rounds.append(r)
        self.bs_messages.append(bs_messages)
        self.debits.append(debits)
        self.alive_end.append(alive_end)
        self.e_total_end.append(e_total_end)

    @property
    def n_rounds(self) -> int:
        return len(self.bs_messages)

    @property
    def total_debits(self) -> float:
        """The debits column summed left to right, in round order."""
        return functools.reduce(operator.add, self.debits, 0.0)

    @property
    def records(self) -> RoundRecords:
        return RoundRecords(self)

    def _ids(self, bits: bytearray, k: int) -> tuple[int, ...]:
        """The nodes of the k-th mask packed in bits."""
        row = np.frombuffer(bits, np.uint8, self.mask_bytes, k * self.mask_bytes)
        return tuple(np.unpackbits(row, count=self.e_init.size).nonzero()[0].tolist())

    def _record(self, k: int) -> RoundRecord:
        """Round k, 0 <= k < n_rounds, as a RoundRecord."""
        s = bisect.bisect_left(self.suppressed_rounds, k)
        suppressed = (self._ids(self.suppressed_bits, s)
                      if s < len(self.suppressed_rounds) and self.suppressed_rounds[s] == k
                      else ())
        return RoundRecord(k, self._ids(self.head_bits, k), self.bs_messages[k],
                           () if self.death_round is None else
                           tuple((self.death_round == k).nonzero()[0].tolist()),
                           suppressed, self.debits[k], self.alive_end[k], self.e_total_end[k])

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_json_dict()) + "\n")


class RoundRecords(Sequence):
    """Read-only sequence of a RunTrace's rounds as RoundRecords, each built
    from the columns when it is read."""

    __slots__ = ("_trace",)

    def __init__(self, trace: RunTrace):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.n_rounds

    def __getitem__(self, k: int) -> RoundRecord:
        # range indexing gives Python's index rules and errors
        return self._trace._record(range(len(self))[operator.index(k)])

    def __iter__(self):
        return map(self._trace._record, range(len(self)))


def frame_counts(counts: np.ndarray, frames: int) -> np.ndarray:
    """The messages a node holding c >= 0 of them sends in each frame, as
    (frames, counts.size): ceil((c - f) / frames) in frame f, which is
    q + (f < rem) for c = q * frames + rem."""
    q, rem = np.divmod(counts, frames)
    return q + (np.arange(frames)[:, None] < rem)


class _Sim:
    """Mutable per-run state; strictly single-threaded and deterministic."""

    def __init__(self, config: ScenarioConfig, policy: PolicyKind):
        self.cfg = config
        radio = config.radio
        n = config.n_nodes
        self.n = n
        self.x, self.y, self.e_init, self.is_rda, self.is_malf = deploy(config)
        self.e = self.e_init.copy()
        self.belief = self.e_init.copy()
        self.alive = self.e > 0.0
        self.r_s = np.zeros(n, dtype=np.int64)
        self.in_g = np.ones(n, dtype=bool)
        # a non-RDA node that sends every frame holds frames messages a round,
        # and one with a one-value length range holds that length: the round
        # forms neither from its draws (_steady)
        frames = config.frames_per_round
        lo_n, hi_n = config.nonrda_len_range_bits
        self.sends_every_frame = config.nonrda_tx_prob_per_frame == 1.0
        self.fixed_len = lo_n == hi_n
        # message counts of one-message debits, viewed read-only
        self.ones = np.ones(n, dtype=np.int64)
        self.ones.flags.writeable = False
        self.frame_col = np.arange(frames)[:, None]

        # each round's msg_count and msg_len come whole from the draws, the
        # non-RDA nodes holding the values above (0 where unused)
        self.draws = RoundDraws(np.random.PCG64([config.rng_seed, 1]), config, self.is_rda,
                                self.is_malf, frames if self.sends_every_frame else 0,
                                lo_n if self.fixed_len else 0)
        self.msg_count = self.msg_len = None  # the round's, from self.draws

        plan = make_plan(config)
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
        self.bs_cost = tx_energy(config.fused_len_bits, np.hypot(self.x - bx, self.y - by), radio)
        # how members pick their head
        self.pick_heads = eepca.head_picker(self.x, self.y, radio, bcast_e)
        self.e_da = config.e_da_per_bit
        self.e_elec = radio.e_elec

        if policy is PolicyKind.SEP:
            self.static_p = sep_probabilities(self.e_init, self.p_opt)
        else:
            self.static_p = eepca.election_probabilities_all(self.p_opt, np.ones(n))
        self.static_epoch = eepca.rotation_epochs(self.static_p)
        # EEPCA keeps the belief ledger, suppresses broadcasts by it, and its
        # factors make p, and so the rotation epochs, change by round
        self.is_eepca = policy is PolicyKind.EEPCA
        # live neighbours (eepca.live_neighbors) as of the alive count they
        # were taken at; no node revives, so an equal count is an equal set
        self.live_count, self.neighbors = -1, None
        self.nobody = np.zeros(n, dtype=bool)
        self.nobody.flags.writeable = False

        self.debits = 0.0
        # whether the last _debit_messages delivered every message asked for
        # and killed no node, so its caller need not re-mask
        self.rich = True
        # the columns each round is added to
        self.trace = RunTrace(seed=config.rng_seed, policy=policy,
                              config_hash=config.config_hash(), e_init=self.e_init.copy())
        # column c: the frame counts of c messages, for every count msg_count
        # can hold, unless the table would outgrow a round's counts (_steady)
        max_count = max(config.rda_msgs_range[1], frames)
        self.count_table = (frame_counts(np.arange(max_count + 1), frames).astype(float)
                            if max_count <= n else None)

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
            if self.is_eepca:
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
        if self.is_eepca:
            b_new = np.maximum(self.belief[idx] - delivered * per_msg_belief, 0.0)
            if failed.any():
                b_new[failed] = 0.0
            self.belief[idx] = b_new
        self.alive[idx] = self.e[idx] > 0.0
        return delivered.astype(np.int64)

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
        if self.is_eepca and r > 0:
            cand = senders & self.is_rda
            if np.count_nonzero(cand):
                suppressed = np.zeros(self.n, dtype=bool)
                suppressed[cand] = eepca.broadcast_suppressed(
                    self.belief[cand], self.e[cand], cfg.epsilon_tol)
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
            heard = np.bincount(self.src, weights=senders[self.dst], minlength=self.n)
        if hearers.size < self.n:
            heard = heard[hearers]
        self._debit_messages(hearers, self.rx_bcast, self.rx_bcast, heard)
        # a heard broadcast carries the sender's current energy
        if self.is_eepca:
            np.putmask(self.belief, senders if no_death and self.rich else senders & self.alive,
                       self.e)
        return suppressed

    def _election(self, r: int, u: np.ndarray) -> np.ndarray:
        """Elect heads by threshold over u, the round's random(n) draw."""
        cfg = self.cfg
        alive = self.alive
        if self.is_eepca:
            neighbors = self._live_neighbors()
            w_e = eepca.energy_factors_all(self.e, self.belief, self.src, self.dst, neighbors)
            l_sched = (self.msg_len if self.fixed_len else
                       np.where(self.is_rda, self.msg_len, self.nonrda_mean_len))
            e_round = eepca.avg_round_energies_all(l_sched, self.cost_nb, self.src,
                                                   self.dst, neighbors, self.e_ideal)
            w_c = eepca.cost_factors_all(self.e_ideal, e_round)
            w = cfg.alpha * w_e + cfg.beta * w_c
            p = eepca.election_probabilities_all(self.p_opt, w)
            epoch = eepca.rotation_epochs(p)
        else:  # LEACH or SEP
            p, w, epoch = self.static_p, None, self.static_epoch

        phase = r % epoch
        self.in_g |= phase == 0
        t = eepca.eepca_thresholds_all(p, self.r_s, w, self.in_g, epoch, phase)
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
        the lowest head id on ties, as self.pick_heads picks it.
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
            choice, cpb = self.pick_heads(members, ok_heads_idx)
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

    def _steady(self, assignment: np.ndarray, heads: np.ndarray, noise: np.ndarray,
                send_draws: Optional[np.ndarray], lengths: np.ndarray) -> int:
        """TDMA frames over the round's send doubles (None when every frame
        is a send, as msg_count holds) and non-RDA lengths (msg_len for a
        one-value range); returns the bs message count."""
        cfg = self.cfg
        if self.count_table is not None:
            counts = self.count_table.take(self.msg_count, axis=1)
        else:
            counts = frame_counts(self.msg_count, cfg.frames_per_round)
        if send_draws is not None:
            counts = np.where(self.is_rda, counts, send_draws < cfg.nonrda_tx_prob_per_frame)
        if not self.fixed_len:
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

        # bits each alive head receives per frame, as (frames, heads); whole
        # numbers, so exact in any order.  Every node's bits go to its head's
        # column, or to a dump column n_h past them if it is no member.
        h_idx = head_alive.nonzero()[0]
        frames, n_h = counts.shape[0], h_idx.size
        rank = np.empty(self.n, dtype=np.int64)  # each alive head's column
        rank[h_idx] = np.arange(n_h)
        col = np.where(member, rank[assignment], n_h)
        table = self.count_table
        if (self.sends_every_frame and lengths.ndim == 1 and table is not None
                and table.shape[1] * (n_h + 1) <= counts.size):
            # counts are the table's columns of msg_count and lengths one per
            # node: sum the lengths per (count, column), then weight each
            # count's sums by its frame counts, in one small product
            per_count = np.bincount(self.msg_count * (n_h + 1) + col, weights=lengths,
                                    minlength=table.shape[1] * (n_h + 1))
            bits_rx = (table @ per_count.reshape(-1, n_h + 1))[:, :n_h]
        else:
            bits = counts * lengths                        # (frames, n)
            slot = self.frame_col * (n_h + 1) + col
            bits_rx = np.bincount(slot.ravel(), weights=bits.ravel(),
                                  minlength=frames * (n_h + 1)).reshape(frames, n_h + 1)[:, :n_h]
        total_bits = bits_rx + counts[:, h_idx] * lengths[..., h_idx]  # heads sense their own
        rx_spend = np.add.reduce(bits_rx) * self.e_elec
        agg_spend = np.add.reduce(total_bits) * self.e_da
        bs_frames = np.add.reduce(total_bits > 0)
        bs_spend = bs_frames * self.bs_cost[h_idx]

        spend = data_nf * noise
        spend[h_idx] = spend[h_idx] + rx_spend + agg_spend + bs_spend
        if np.count_nonzero(self.e >= spend) < spend.size:
            return None
        self.e -= spend
        self.debits += float(np.add.reduce(spend))
        if self.is_eepca:
            spend_belief = data_nf.copy()
            spend_belief[h_idx] = data_nf[h_idx] + rx_spend + agg_spend + bs_spend
            self.belief = np.maximum(self.belief - spend_belief, 0.0)
        self.alive = self.e > 0.0
        return int(np.add.reduce(bs_frames))

    def _steady_slow(self, assignment, heads, noise, counts, lengths):
        """Per-frame granular evaluation handling mid-round deaths."""
        lengths = np.broadcast_to(lengths, counts.shape)
        bs_msgs = 0
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
                bits_rx = np.bincount(assignment[tx_idx],
                                      weights=delivered * lengths[f, tx_idx],
                                      minlength=self.n)
            h_idx = (head_alive & self.alive).nonzero()[0]
            if h_idx.size == 0:
                continue
            rx = bits_rx[h_idx] * self.e_elec
            h_idx = h_idx[self._debit_messages(h_idx, rx, rx, 1) > 0]
            if h_idx.size == 0:
                continue
            # heads sense their own data straight into the aggregate
            total_bits = bits_rx[h_idx] + counts[f, h_idx] * lengths[f, h_idx]
            agg = total_bits * self.e_da
            ok = self._debit_messages(h_idx, agg, agg, 1) > 0
            h_idx, total_bits = h_idx[ok], total_bits[ok]
            tx_bs = h_idx[total_bits > 0]
            if tx_bs.size:
                sent = self._debit_messages(tx_bs, self.bs_cost[tx_bs],
                                            self.bs_cost[tx_bs], 1)
                bs_msgs += int(sent.sum())
        return bs_msgs

    # --- one round ---------------------------------------------------------

    def play_round(self, r: int) -> None:
        """Play round r and add it to self.trace, which numbers its rounds
        by position: rounds are played from 0 in order.

        The round's draws, for every node whatever the policy, are what
        these calls of a numpy 2.4.6 Generator on the run's PCG64 stream
        give, with f frames:
          1. integers(n1, n2 + 1, n), the RDA counts (rda_msgs_range);
          2. integers(l1, l2 + 1, n), the RDA lengths (msg_len_range_bits);
          3. random(n), the election's uniforms;
          4. uniform(lo, hi, n), the noise (malfunction_noise_range);
        then, only when a head survives cluster formation:
          5. random((f, n)), the non-RDA send doubles;
          6. integers(lo, hi + 1, (f, n)), the non-RDA lengths, only when
             nonrda_len_range_bits holds more than one value (for one,
             integers() draws no bits and msg_len holds the length).
        self.draws makes them from the raw words, a window of rounds at a
        time, or a round at a time with ranged non-RDA lengths (draws.py
        says how), and skips a steady block whose send doubles are all sends
        (send probability 1) and whose lengths are one value.  Its counts and
        lengths are the round's msg_count and msg_len, non-RDA values in
        place, and its noise is 1.0 off the malfunctioning nodes.
        """
        alive_before = self.alive.copy()
        n_before = np.count_nonzero(alive_before)
        self.debits = 0.0

        self.msg_count, self.msg_len, u, noise = self.draws.block1()

        suppressed = self._setup_broadcasts(r)
        elected = self._election(r, u)
        assignment, heads = self._form_clusters(elected)

        bs_msgs = 0
        if np.count_nonzero(heads):
            send_draws, lengths = self.draws.block2()
            bs_msgs = self._steady(assignment, heads, noise, send_draws,
                                   self.msg_len if lengths is None else lengths)

        alive_end = np.count_nonzero(self.alive)
        self.trace.add_round(
            elected, bs_msgs,
            alive_before ^ self.alive if alive_end < n_before else None,  # no node revives
            None if suppressed is self.nobody else suppressed,
            self.debits, alive_end, np.add.reduce(self.e))


def run(config: ScenarioConfig, policy: PolicyKind | str,
        max_rounds: int = 10000) -> RunTrace:
    """Execute one full simulation run; deterministic in (config, policy)."""
    if isinstance(policy, str):
        policy = PolicyKind.parse(policy)
    sim = _Sim(config, policy)
    trace = sim.trace
    for r in range(max_rounds):
        if not np.count_nonzero(sim.alive):
            break
        sim.play_round(r)
    if not sim.alive.any():
        trace.termination = "all-dead"
    trace.e_final = sim.e.copy()
    return trace
