"""Each round's random numbers, drawn from PCG64's raw 64-bit words.

A round draws, for every node and in this order (engine._Sim.play_round
lists the same calls), what numpy 2.4.6's Generator would give for
  1. integers(n1, n2 + 1, n), the RDA message counts;
  2. integers(l1, l2 + 1, n), the RDA message lengths;
  3. random(n), the election's uniforms;
  4. uniform(lo, hi, n), the malfunction noise;
and then, only when a head survives cluster formation, the steady block:
  5. random((f, n)), the non-RDA send doubles;
  6. integers(m1, m2 + 1, (f, n)), the non-RDA lengths.
RoundDraws redoes those transforms on bit_generator.random_raw words, so
its numbers equal Generator's bit for bit and depend only on PCG64's raw
output:
  - a double is (word >> 11) * 2**-53, one word each, and uniform(lo, hi) is
    lo + (hi - lo) * double;
  - a bounded integer over r = hi - lo + 1 values is Lemire's over 32-bit
    halves, the low half of each word first and its high half held for the
    next half drawn (PCG64's next_uint32, which doubles leave alone):
    m = half * r, rejected while m mod 2**32 < 2**32 mod r, else
    lo + (m >> 32); r = 1 draws nothing.  ScenarioConfig keeps every range
    below 2**31, so r <= 2**31, and numpy draws every such range this way.
RoundDraws keeps the held half itself.

A send probability of 1 makes every send double a send, and a one-value
length range draws nothing, so such a steady block is moot: it is skipped
with bit_generator.advance, not drawn.

Rounds are drawn a window at a time: the words of WINDOW_WORDS // (a round's
words) rounds (at least one), fetched with random_raw and transformed in
bulk, assuming every round draws its steady block.  A window holds each
round's first block and send doubles (live or skipped), never non-RDA
lengths, whose halves would lie between two rounds' first blocks: a ranged
non-RDA length range draws every round by itself, one call per draw.  So the
half held at a round's steady block is the one held at the next round's
start.  A round with no steady block, or one in which some bounded integer
is rejected, cuts the window there: the generator moves back (advance by a
negative count) to where that round's steady block or the round itself
starts, with the half held there, and a round that rejects is drawn by
itself.  The window holds one round while a round's halves are odd in
number, as the held half then moves from round to round.
"""

from __future__ import annotations

import numpy as np

from .model import ScenarioConfig

# words a window of rounds draws: about 8 rounds at n = 100 and one at
# n = 1600
WINDOW_WORDS = 2400


def _halves(words: np.ndarray) -> np.ndarray:
    """Words as next_uint32 reads them, the low half first, over the last
    axis."""
    return words.astype("<u8", copy=False).view("<u4")


def _unit(words: np.ndarray) -> np.ndarray:
    """Words as random() doubles; shifts the words in place."""
    words >>= 11
    return words * 2.0**-53


def _bounded(x: np.ndarray, d: _Ints):
    """Lemire's integers of draw d from 32-bit halves x: the values, and a
    mask of those accepted, None when none can be rejected."""
    ok = None
    if d.threshold is not None:
        ok = x * np.uint32(d.r) >= d.threshold   # the product modulo 2**32
    v = x.astype(np.uint64)
    v *= d.r
    v >>= 32
    v += d.lo
    return v.view(np.int64), ok


class _Ints:
    """A bounded-integer draw over [lo, hi], and the value held instead by
    the nodes not drawn, if any."""

    def __init__(self, lo: int, hi: int, held: int | None = None):
        self.lo, self.r = lo, hi - lo + 1
        self.threshold = 2**32 % self.r or None
        self.held = held


class RoundDraws:
    """A run's rounds of draws from one PCG64 bit generator, which it owns.

    block1() gives the next round's message counts and lengths (drawn for
    the nodes in `drawn`, the held count and length elsewhere), election
    uniforms and noise (1.0 outside `noisy`); block2() gives that round's
    send doubles, None when the send probability is 1, and non-RDA lengths,
    None for a one-value range.  A round that calls block1 and not block2
    draws no steady block.  The arrays are the caller's to read; block2's
    lengths also to write.
    """

    def __init__(self, bit_generator, cfg: ScenarioConfig, drawn: np.ndarray,
                 noisy: np.ndarray, held_count: int, held_length: int):
        self.bg = bit_generator
        self.pend = None  # the held upper half of PCG64's last word, if any
        n, f = cfg.n_nodes, cfg.frames_per_round
        self.n, self.frames = n, f
        self.counts = _Ints(*cfg.rda_msgs_range, held_count)
        self.lengths = _Ints(*cfg.msg_len_range_bits, held_length)
        lo, hi = cfg.malfunction_noise_range
        self.noise_lo, self.noise_span = lo, hi - lo
        self.sends_live = cfg.nonrda_tx_prob_per_frame != 1.0
        m1, m2 = cfg.nonrda_len_range_bits
        self.steady_lengths = _Ints(m1, m2) if m1 < m2 else None
        # a one-value range draws nothing: its value is held
        self.fixed = {d: np.where(drawn, d.lo, d.held)
                      for d in (self.counts, self.lengths) if d.r == 1}
        # the first block's bounded-integer draws, n values each, in the
        # order drawn: h1 halves a round
        self.ranged = [d for d in (self.counts, self.lengths) if d.r > 1]
        self.h1 = len(self.ranged) * n
        words = (self.h1 + 1) // 2 + 2 * n + (f * n if self.sends_live else 0)
        if self.steady_lengths is not None:  # a window holds no non-RDA lengths
            self.window = 0
        elif self.h1 % 2:
            self.window = 1
        else:
            self.window = max(1, WINDOW_WORDS // words)
        # np.putmask's masks of the nodes not drawn and the quiet ones, a row
        # per round of a window; kept for a window of several rounds, formed
        # when needed for one, whose rounds are large
        self.drawn, self.noisy = drawn, noisy
        self.window_masks = (np.tile(~drawn, self.window), np.tile(~noisy, self.window)
                             ) if self.window > 1 else None
        self.win = None      # the window's arrays, a row per round
        self.rows = self.k = self.valid = 0  # the window's rounds, next, usable
        self.due = False     # the last round's steady block is not drawn yet
        self.alone = False   # the last round is drawn by itself

    # --- one draw at a time -------------------------------------------------

    def _next_halves(self, h: int) -> np.ndarray:
        held = self.pend is not None
        x = _halves(self.bg.random_raw((h - held + 1) // 2))
        if held:
            x = np.concatenate((np.array([self.pend], dtype=np.uint32), x))
        self.pend = int(x[h]) if x.size > h else None
        return x[:h]

    def _draw_ints(self, d: _Ints, shape) -> np.ndarray:
        """d's integers one call after another, as Generator.integers."""
        size = int(np.prod(shape))
        out, got = np.empty(size, dtype=np.int64), 0
        while got < size:
            need = size - got
            v, ok = _bounded(self._next_halves(need), d)
            if ok is not None:
                v = v[ok]
            out[got:got + v.size] = v
            got += v.size
        out = out.reshape(shape)
        if d.held is not None:
            np.putmask(out, ~self.drawn, d.held)
        return out

    def _noise(self, doubles: np.ndarray, quiet: np.ndarray) -> np.ndarray:
        """Doubles as noise, in place: 1.0 where quiet."""
        doubles *= self.noise_span
        doubles += self.noise_lo
        np.putmask(doubles, quiet, 1.0)
        return doubles

    def _block1_alone(self):
        n = self.n
        counts, lengths = (self.fixed[d] if d in self.fixed else self._draw_ints(d, n)
                           for d in (self.counts, self.lengths))
        u = _unit(self.bg.random_raw(n))
        return counts, lengths, u, self._noise(_unit(self.bg.random_raw(n)), ~self.noisy)

    def _block2_alone(self):
        shape = (self.frames, self.n)
        if self.sends_live:
            sends = _unit(self.bg.random_raw(shape))
        else:
            sends = None
            self.bg.advance(self.frames * self.n)
        d = self.steady_lengths
        return sends, (None if d is None else self._draw_ints(d, shape))

    # --- a window of rounds -------------------------------------------------

    def _fill(self) -> None:
        """Fetch and transform the next window's rounds."""
        self.win = None  # the old window's arrays go before the new ones come
        w, n, f = self.window, self.n, self.frames
        held = self.pend is not None
        r1 = (self.h1 - held + 1) // 2          # words of a round's halves
        self.mid = r1 + 2 * n
        width = self.mid + (f * n if self.sends_live else 0)
        self.stride = self.mid + f * n
        self.fetched = w * self.stride
        if self.sends_live or w == 1:
            raw = self.bg.random_raw((w, width))
            if not self.sends_live:
                self.bg.advance(f * n)
        else:
            raw = np.empty((w, width), dtype=np.uint64)
            for row in raw:
                row[:] = self.bg.random_raw(width)
                self.bg.advance(f * n)
        # the window's halves in the order drawn, the held one first; every
        # round draws h1 of them
        h = self.h1
        stream = _halves(raw[:, :r1]).reshape(-1)
        if held:
            stream = np.concatenate((np.array([self.pend], dtype=np.uint32), stream))
        self.pend_start = (stream.take(np.arange(w) * h).tolist() if held else [None] * w) + [
            int(stream[w * h]) if stream.size > w * h else None]
        halves = stream[:w * h].reshape(w, h)

        self.valid, ints = w, {}
        undrawn, quiet = self.window_masks or (~self.drawn, ~self.noisy)
        for i, d in enumerate(self.ranged):
            v, ok = _bounded(halves[:, i * n:(i + 1) * n], d)
            if ok is not None and np.count_nonzero(ok) < ok.size:
                self.valid = min(self.valid, int(np.argmin(ok.all(axis=1))))
            np.putmask(v, undrawn, d.held)
            ints[d] = v
        del stream, halves  # the heap peaks in a fill: drop what is done with
        counts, lengths = (ints[d] if d in ints else np.broadcast_to(self.fixed[d], (w, n))
                           for d in (self.counts, self.lengths))
        u = _unit(raw[:, r1:r1 + n])
        noise = self._noise(_unit(raw[:, r1 + n:self.mid]), quiet)
        sends = _unit(raw[:, self.mid:]).reshape(w, f, n) if self.sends_live else None
        self.win = counts, lengths, u, noise, sends
        self.rows, self.k = w, 0

    def _settle(self, k: int, mid: bool = False) -> None:
        """Move the generator to the start of the window's round k, or to
        its steady block, hold the half held there (at the steady block, the
        one held at round k + 1's start), and drop the window."""
        offset = k * self.stride + (self.mid if mid else 0)
        if offset != self.fetched:
            self.bg.advance(offset - self.fetched)
        self.pend = self.pend_start[k + mid]
        self.win = None
        self.rows = self.k = self.valid = 0

    def _next_in_window(self) -> bool:
        """Whether the next round comes from a window, which this makes
        ready; otherwise the generator stands at that round's start."""
        if self.k < self.valid:
            return True
        rejected = self.valid < self.rows
        if self.rows:
            self._settle(self.valid)
        if rejected or not self.window:
            return False
        self._fill()
        if not self.valid:
            self._settle(0)
            return False
        return True

    # --- the rounds ---------------------------------------------------------

    def block1(self):
        """The next round's (counts, lengths, uniforms, noise), each (n,)."""
        if self.due and not self.alone:  # the last round drew no steady block
            self._settle(self.k - 1, mid=True)
        self.due = True
        self.alone = not self._next_in_window()
        if self.alone:
            return self._block1_alone()
        k = self.k
        self.k += 1
        counts, lengths, u, noise = self.win[:4]
        return counts[k], lengths[k], u[k], noise[k]

    def block2(self):
        """This round's (send doubles, non-RDA lengths), each (f, n) or
        None."""
        self.due = False
        if self.alone:
            return self._block2_alone()
        sends = self.win[4]
        return (None if sends is None else sends[self.k - 1]), None
