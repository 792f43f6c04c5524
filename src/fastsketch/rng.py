"""Seed derivation, random-stream construction, and Rademacher signs.

Every randomized routine in this package takes an explicit seed or
generator; there is no hidden global state.  Streams are built on the
Philox counter-based bit generator, so a 64-bit seed fully determines
the output on every platform (for a fixed numpy version).

Every +-1 vector the package draws (the bucket sign table, the circulant
generator eps, the JL sign diagonal xi) comes from :func:`signs`, which
reads one bit of the generator's raw 64-bit output per sign in a fixed
bit order, so the signs do not depend on the platform's byte order.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "stream", "as_generator"]

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, trial_index: int, purpose_tag: str) -> int:
    """Derive a child seed from (master_seed, trial_index, purpose_tag).

    The triple is encoded as the UTF-8 string ``"{master}:{trial}:{tag}"``
    and hashed with BLAKE2b to 8 bytes, read big-endian.  The mapping is
    stable across platforms and runs; distinct trials or purpose tags give
    statistically independent streams.
    """
    payload = f"{int(master_seed)}:{int(trial_index)}:{purpose_tag}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def stream(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator keyed directly by ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def as_generator(rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a ready generator or a raw integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(rng)


def signs(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniform +-1 float64 values of ``shape``, one raw generator bit each.

    Sign ``64 i + j`` (in C order) is ``1 - 2 b`` for bit ``j`` (least
    significant first) of the generator's ``i``-th raw 64-bit word.  For
    n signs this allocates n / 8 bytes of words, n bytes of bits and the
    float64 output, where an integer draw makes one int64 per sign.
    """
    n = int(np.prod(shape))
    words = gen.bit_generator.random_raw(-(-n // 64))
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=n, bitorder="little")
    out = np.multiply(bits, -2.0)  # 1 - 2 bit, with one float64 allocation
    out += 1.0
    return out.reshape(shape)
