"""Counter-based random number streams.

Every draw comes from a Philox stream keyed by two 64-bit words, (seed,
word). Subject i has a path stream, word i, and an effect stream, word
EFFECT_WORD | i; indices fit in 32 bits, so the two never meet. Streams
are read in replicate order (see simulate), so no draw depends on the
number of subjects or replicates or on chunking. The drawers re-key one
Philox per stream with rekey, to the state generator(seed, word) starts
from.
"""

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# set in the second key word of every effect stream, and in no path stream's
EFFECT_WORD = 1 << 32


def _ids(ids, name, bits=32):
    # a sequence of Python ints goes through object, which keeps a 64-bit
    # value exact beside small ones
    ids = ids if isinstance(ids, np.ndarray) else np.array(ids, dtype=object)
    if ids.size == 0:
        return ids.astype(np.uint64)
    top = (1 << bits) - 1
    if ids.dtype.kind in "iu":
        fits = 0 <= ids.min() and ids.max() <= top
    elif ids.dtype.kind == "O":
        values = ids.ravel().tolist()
        if not all(isinstance(x, (int, np.integer)) for x in values):
            raise TypeError(f"{name} must be integers")
        fits = 0 <= min(values) and max(values) <= top
    else:
        raise TypeError(f"{name} must be integers")
    if not fits:
        raise ValueError(f"{name} must fit in {bits} bits")
    return ids.astype(np.uint64)


def row_keys(seed, subjects):
    """Second key words of the path streams of subjects: the indices, as
    uint64, after a ValueError for a seed (one, or one per subject) past
    64 bits or an index past 32."""
    _ids(seed, "seed", 64)
    return _ids(subjects, "stream_id")


def generator(seed, word):
    """A fresh Generator on stream (seed, word); ValueError past 64 bits."""
    key = np.array([int(_ids(seed, "seed", 64)), int(_ids(word, "word", 64))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(gen, seed, word):
    """Set Philox Generator gen to the fresh state of stream (seed, word):
    key, counter 0, empty buffer, from plain Python ints, which the setter
    converts faster than arrays. The caller checks the ranges (row_keys)."""
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [seed, word]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed, *parts):
    """Mix a master seed with integer labels into a fresh 64-bit seed.

    Used by the experiment engines to give nested Monte Carlo passes (the
    design-point estimates and the continuity probe) their own seed lanes
    that cannot collide with subject path streams. Raises ValueError when
    the seed or a label does not fit in 64 bits.
    """
    x = int(_ids(seed, "seed", 64))
    for p in parts:
        x = _splitmix64(x ^ int(_ids(p, "label", 64)))
    return x


def float_label(value):
    """The IEEE-754 bit pattern of a float, as an integer label for derive_seed."""
    return int(np.float64(value).view(np.uint64))
