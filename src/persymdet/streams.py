"""Counter-based random stream derivation.

Every Monte Carlo trial draws from its own generator, keyed by
``(master_seed, trial_index)`` through the Philox4x64 counter-based family.
Streams for distinct keys are statistically independent and their values do
not depend on the order in which trials are executed, so results are
reproducible bit-for-bit regardless of chunking or worker count.
"""

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF
# SeedSequence.generate_state's output hash constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# Seeds each rekeyer's bit generator, whose key every rekey overwrites; a
# given seed spares the OS entropy that ``Philox(key=...)`` gathers.
_REKEYER_SEED = np.random.SeedSequence(0)


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for trial ``index`` under ``master_seed``."""
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_rekeyer():
    """Factory for a reusable generator that is rekeyed per trial.

    Constructing a Philox bit generator gathers OS entropy even when a key
    is supplied, which dominates tight Monte Carlo loops. The returned
    callable reuses one bit generator, built from ``_REKEYER_SEED`` without
    entropy, and one state dict of Python ints (so the setter makes no NumPy
    scalar per word): it writes the fresh ``(master_seed, index)`` key into
    the dict and assigns the dict, which copies it into the bit generator.
    The result is bit-for-bit identical to constructing
    :func:`derive_stream` anew (pinned by tests). Not thread-safe: create
    one rekeyer per task.
    """
    bitgen = np.random.Philox(_REKEYER_SEED)
    gen = np.random.Generator(bitgen)
    zeros = (0, 0, 0, 0)
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def rekey(master_seed: int, index: int) -> np.random.Generator:
        key[0] = master_seed & _MASK64
        key[1] = index & _MASK64
        bitgen.state = state
        return gen

    return rekey


def _words(value: int) -> list:
    """The uint32 words ``SeedSequence`` forms from ``0 <= value < 2**64``, low first."""
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def derive_seed(master_seed: int, tag: int) -> int:
    """Fold ``(master_seed, tag)`` into a fresh 64-bit master seed.

    Used to hand disjoint seed spaces to sub-experiments (e.g. one per CFAR
    grid cell) so their per-trial streams never collide. The value is
    ``SeedSequence([master_seed & M64, tag & M64]).generate_state(1, uint64)``
    (pinned by tests): ``SeedSequence`` mixes the entropy, given as the uint32
    words it would form itself, and the output hash of ``generate_state`` is
    applied here to the first two pool words, in Python ints.
    """
    entropy = np.array(_words(master_seed & _MASK64) + _words(tag & _MASK64), dtype=np.uint32)
    seed, const = 0, _INIT_B
    for shift, word in zip((0, 32), np.random.SeedSequence(entropy).pool[:2].tolist()):
        word ^= const
        const = const * _MULT_B & _MASK32
        word = word * const & _MASK32
        seed |= (word ^ word >> 16) << shift
    return seed
