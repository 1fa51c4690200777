"""Deterministic random streams built on splitmix64.

Every random decision in the toolkit flows through these helpers so that runs
are bit-reproducible and independent substreams can be derived from
(seed, counter...) keys without replaying earlier draws.

splitmix64 is counter-based: the k-th output of a generator in state s is
mix64(s + k * gamma mod 2^64). So a run of draws of known length is one
numpy pass over those counters (`SplitMix64.uniforms`, `state_uniforms`):
uint64 arithmetic wraps mod 2^64 like the scalar masks, and the shift and
the power-of-two scale of `uniform` are exact in float64, so a block holds
the same floats as the scalar calls it replaces and leaves each generator
in the same state.

The `state_*` draws take many generators at once as a uint64 array of
their states (`substreams` derives one per key), advanced in place. The
rejection draws are blocks too: `state_below` makes one masked draw per
generator, then redraws only the rejected ones until none is left, and
`state_sample` runs the partial Fisher-Yates of `SplitMix64.sample` one
position at a time through it. Each row gets the values, and ends in the
state, of the scalar `SplitMix64.below` and `.sample`, which stay as their
one-generator reference.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mix."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def box_muller(u1: float, u2: float) -> float:
    """Standard normal deviate from two uniforms in [0, 1) (Box-Muller, one
    value); u1 is floored at 2^-53 so its log is finite. Uses libm through
    `math`, whose rounding numpy's ufuncs do not promise to match."""
    u1 = max(u1, 2.0**-53)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def substream(seed: int, *keys: int) -> int:
    """Derive an independent stream seed from a base seed and integer keys.

    Folding each key through mix64 gives a counter-based scheme: substream
    (seed, epoch, ordinal) is reproducible without generating any other
    stream first.
    """
    state = mix64(seed)
    for key in keys:
        state = mix64(state ^ ((key * _GOLDEN) & _MASK64))
    return state


def substreams(seed: int, *keys) -> np.ndarray:
    """`substream(seed, *keys)` of every element of the keys broadcast
    together, as a uint64 array; a key is an int or an array of ints in
    [0, 2^64)."""
    golden = np.uint64(_GOLDEN)
    state = np.full(1, mix64(seed), dtype=np.uint64)
    for key in keys:
        state = mix64_array(state ^ np.array(key, dtype=np.uint64, ndmin=1) * golden)
    return state


class SplitMix64:
    """splitmix64 sequence generator with small sampling utilities."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """The next n `uniform()` draws as a float64 array."""
        state = np.array([self._state], dtype=np.uint64)
        u = state_uniforms(state, [n])
        self._state = int(state[0])
        return u

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via masked rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        mask = (1 << n.bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: list, k: int) -> list:
        """k distinct elements drawn without replacement (partial Fisher-Yates)."""
        n = len(items)
        if k > n:
            raise ValueError(f"cannot sample {k} from {n} items")
        pool = list(items)
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def state_uniforms(state: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """The next counts[i] `uniform()` draws of the generator whose state is
    state[i], laid end to end in one float64 array, computed in one pass;
    the uint64 array state advances in place, each generator by its
    count."""
    n = np.asarray(counts, dtype=np.int64).reshape(-1)
    if n.size != state.size:
        raise ValueError(f"{state.size} generators but {n.size} counts")
    ends = np.cumsum(n)
    # counter k = 1..counts[i] inside each generator's run; np.repeat
    # rejects a negative count
    k = np.arange(1, int(n.sum()) + 1) - np.repeat(ends - n, n)
    golden = np.uint64(_GOLDEN)
    states = np.repeat(state, n) + k.astype(np.uint64) * golden
    state += n.astype(np.uint64) * golden
    return (mix64_array(states) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def state_below(state: np.ndarray, m: int) -> np.ndarray:
    """`below(m)` of each generator whose state is in the uint64 array
    state, as an int64 array, for 1 <= m <= 2^63: one masked draw for
    every generator, then rounds that redraw only the rejected ones. Each
    state advances in place past all of its draws."""
    if not 1 <= m <= 2**63:
        raise ValueError(f"below() needs 1 <= n <= 2^63, got {m}")
    golden = np.uint64(_GOLDEN)
    mask = np.uint64((1 << m.bit_length()) - 1)
    bound = np.uint64(m)
    state += golden
    v = mix64_array(state) & mask
    pending = np.flatnonzero(v >= bound)
    while pending.size:
        state[pending] += golden
        v[pending] = mix64_array(state[pending]) & mask
        pending = pending[v[pending] >= bound]
    return v.astype(np.int64)


def state_sample(state: np.ndarray, n: int, k) -> np.ndarray:
    """`sample(range(n), k)` of each generator whose state is in the uint64
    array state, one row each: k is one count or one per generator, and
    row i of the (len(state), max k) result starts with its k[i] draws, in
    draw order. Each state advances in place past all of its draws."""
    top = int(np.max(k, initial=0))
    if top > n:
        raise ValueError(f"cannot sample {top} from {n} items")
    if np.min(k, initial=0) < 0:
        raise ValueError("cannot sample a negative count")
    k = np.broadcast_to(k, state.shape)
    perm = np.broadcast_to(np.arange(n, dtype=np.int32 if n < 2**31 else np.int64),
                           (state.size, n)).copy()
    rows = np.arange(state.size)
    for i in range(top):
        # the rows still drawing swap position i with a below(n - i) pick
        rows = rows[k[rows] > i]
        s = state[rows]
        j = state_below(s, n - i) + i
        state[rows] = s
        perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
    return perm[:, :top]
