"""I.i.d. Bernoulli packet-loss channel with counter-based draws.

Each reception flag is a pure function of (seed, time index), so trials
replay identically regardless of draw order or parallel scheduling, and
the encoder-side acknowledgement model (perfect, delay-free) needs no
extra machinery: both ends can regenerate any flag on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round; bijective on 64-bit integers."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(base: int, index: int) -> int:
    """Injective (for fixed base) child seed, e.g. one per trial."""
    return splitmix64((base & _MASK) ^ splitmix64((index + 1) * _GOLDEN & _MASK))


def uniform01(seed: int, k: int) -> float:
    """Uniform double in [0, 1) keyed by (seed, k).  seed (one slot per trial) and k (a
    block of step counters) may be uint64 arrays; they broadcast, each entry with the int
    call's bits.  An int64 k makes the golden-ratio step raise OverflowError."""
    bits = splitmix64((seed & _MASK) ^ splitmix64((k + 1) * _GOLDEN & _MASK))
    return (bits >> 11) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class ChannelConfig:
    p: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"loss probability must be in [0, 1), got {self.p}")


def received(p: float, seed, k: int):
    """Whether time k's packet gets through: uniform01(seed, k) >= p, False with probability
    p and True at p = 0.  seed and k may be uint64 arrays, of trial slots and of step
    counters, to draw a block of steps at once with each step's bits."""
    return uniform01(seed, k) >= p


def draw(ch: ChannelConfig, k: int) -> int:
    """Reception flag at time k, received's one-trial form: 0 (lost) with probability p, else 1."""
    if k < 0:
        raise ValueError(f"time index must be >= 0, got {k}")
    return int(received(ch.p, ch.seed, k))
