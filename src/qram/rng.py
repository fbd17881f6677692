"""Portable seeded random numbers, identical on every platform.

Everything random in this package (scenario targets, environment resets,
network initialisation, action sampling) goes through :class:`PortableRng` so
that a run is fully determined by its integer seed.  The generator is
xorshift64* seeded through one splitmix64 step, which maps any 64-bit seed
(including 0) to a healthy non-zero state:

    seeding:  z = (seed + 0x9E3779B97F4A7C15) mod 2^64
              z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
              z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
              state = z ^ (z >> 31)        (0 replaced by the splitmix gamma)

    step:     state ^= state >> 12
              state ^= (state << 25) mod 2^64
              state ^= state >> 27
              output = (state * 0x2545F4914F6CDD1D) mod 2^64

Doubles take the top 53 bits of the output (``output >> 11``) times 2^-53,
so streams are bit-identical across machines and reimplementations.

:meth:`PortableRng.uniforms` returns the same stream as repeated
:meth:`~PortableRng.uniform` calls, computed by jump-ahead: the step is
linear over GF(2)^64, so the states k steps on from a block of states are
one matrix product away, and the draw doubles its block until it holds
every state (after Haramoto et al., "Efficient jump ahead for F2-linear
random number generators", INFORMS J. Computing, 2008).
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_XORSHIFT_MULT = 0x2545F4914F6CDD1D

#: States a draw steps one by one before it starts doubling; the first
#: doubling jumps 2**_FIRST_POWER steps.
_FIRST_POWER = 6
_BIT_COLUMNS = 1 << np.arange(8)


def _splitmix64(seed: int) -> int:
    z = (seed + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _xorshift(s: int) -> int:
    s ^= s >> 12
    s = (s ^ (s << 25)) & _MASK64
    s ^= s >> 27
    return s


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """A linear map of 64-bit states, given by its byte ``table``: the xor
    of row b's entry at byte b of each state."""
    octets = states.astype("<u8", copy=False).view(np.uint8)
    out = table[0][octets[0::8]]
    for b in range(1, 8):
        out ^= table[b][octets[b::8]]
    return out


@functools.cache
def _power_table(p: int) -> np.ndarray:
    """The (8, 256) byte table of 2**p xorshift steps.

    Entry [b, v] is the map applied to ``v << 8b``.  The tables depend only
    on the generator, so each is built once per process, by squaring the
    one before it.
    """
    if p == 0:
        images = np.array([_xorshift(1 << bit) for bit in range(64)],
                          dtype=np.uint64)
    else:
        # Entries at single-bit bytes are the images of the 64 unit
        # vectors; jumping them 2**(p-1) steps more gives 2**p steps.
        half = _power_table(p - 1)
        images = _jump(half, half[:, _BIT_COLUMNS].ravel())
    table = np.zeros((8, 256), dtype=np.uint64)
    columns = images.reshape(8, 8)
    for bit in range(8):
        table[:, 1 << bit:2 << bit] = table[:, :1 << bit] ^ columns[:, bit:bit + 1]
    return table


class PortableRng:
    """xorshift64* stream; one instance per independent random stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & _MASK64)
        self._state = state if state != 0 else _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        s = self._state = _xorshift(self._state)
        return (s * _XORSHIFT_MULT) & _MASK64

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 output bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def uniforms(self, lo: float, hi: float, n: int) -> np.ndarray:
        """What ``n`` calls of :meth:`uniform` return, as one float64 array,
        leaving the generator where those calls leave it."""
        s = self._state
        first = []
        for _ in range(min(n, 1 << _FIRST_POWER)):
            s = _xorshift(s)
            first.append(s)
        states = np.empty(n, dtype=np.uint64)
        states[:len(first)] = first
        held, p = len(first), _FIRST_POWER
        while held < n:
            # held == 2**p here: the next states are the held ones jumped
            # 2**p steps on.
            take = min(held, n - held)
            states[held:held + take] = _jump(_power_table(p), states[:take])
            held, p = held + take, p + 1
        if n:
            self._state = int(states[-1])
        top = (states * np.uint64(_XORSHIFT_MULT)) >> np.uint64(11)
        return lo + (hi - lo) * (top.astype(np.float64) * 2.0**-53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n).  Uses the modulo reduction; the bias is
        below 2^-60 for the small n used here."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self.next_u64() % n
