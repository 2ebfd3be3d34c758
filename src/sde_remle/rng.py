"""Counter-based random number streams.

Every stochastic routine in the package draws from a Philox generator keyed
by the triple (seed, stream_id, replicate_id). The key is packed explicitly,
so a given triple produces a bit-identical sequence on every platform and
under any execution order, which is what makes parallel runs reproducible.

The bulk drawer, simulate.path_normals, does not build one generator per
substream: it re-keys a single Philox through its public state (key from
row_keys, counter 0, empty buffer), which is exactly the state a fresh
generator starts from. A re-keyed row is therefore bit-identical to
generator(seed, stream_id, replicate_id).
"""

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# stream_id reserved for drawing the per-replicate random effects; subject
# path streams use stream_id = subject index, which must stay below this.
PHI_STREAM_ID = _MASK32


def _ids(ids, name, bits=32):
    ids = np.asarray(ids)
    if ids.size == 0:
        return ids.astype(np.uint64)
    top = (1 << bits) - 1
    if ids.dtype.kind in "iu":
        fits = 0 <= ids.min() and ids.max() <= top
    elif ids.dtype.kind == "O":
        values = ids.ravel().tolist()
        fits = 0 <= min(values) and max(values) <= top
    else:
        raise TypeError(f"{name} must be integers")
    if not fits:
        raise ValueError(f"{name} must fit in {bits} bits")
    return ids.astype(np.uint64)


def row_keys(seed, stream_ids, replicate_ids):
    """Second key words (stream_id << 32 | replicate_id) of a batch of substreams.

    seed and stream_ids are each one value for every row or one per row.
    Raises ValueError when a seed does not fit in 64 bits or any id does
    not fit in 32. The first key word of every row is its seed.
    """
    _ids(seed, "seed", 64)
    streams = _ids(stream_ids, "stream_id")
    reps = _ids(replicate_ids, "replicate_id")
    return (streams << np.uint64(32)) | reps


def generator(seed, stream_id, replicate_id):
    """Return a fresh Generator for the given stream triple.

    Raises row_keys's ValueError when an id is out of range.
    """
    key = np.array([seed, row_keys(seed, stream_id, [replicate_id])[0]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
