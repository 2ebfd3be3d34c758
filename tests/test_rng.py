import numpy as np
import pytest

from sde_remle.rng import (
    EFFECT_WORD,
    derive_seed,
    float_label,
    generator,
    rekey,
    row_keys,
)
from sde_remle.models import builtin_model
from sde_remle.simulate import STAGE, Segment, path_normals, replicate_uv, simulate_replicates


def test_same_triple_bit_identical():
    a = generator(7, 3).standard_normal(64)
    b = generator(7, 3).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_triples_differ():
    base = generator(7, 3).standard_normal(32)
    for seed, word in [(8, 3), (7, 4), (7, EFFECT_WORD | 3)]:
        other = generator(seed, word).standard_normal(32)
        assert not np.array_equal(base, other)


def test_draw_order_does_not_matter():
    """A stream's output depends only on its key, not on what other
    streams drew before it."""
    g1 = generator(5, 0)
    _ = g1.standard_normal(1000)
    fresh = generator(5, 1).standard_normal(16)
    interleaved = generator(5, 1).standard_normal(16)
    assert np.array_equal(fresh, interleaved)


def test_generator_key_packs_the_triple():
    # first key word the seed, second the stream word
    key = generator(9, 2).bit_generator.state["state"]["key"]
    assert key.tolist() == [9, 2]
    top = generator(2**64 - 1, 2**64 - 1).bit_generator.state["state"]["key"]
    assert top.tolist() == [2**64 - 1, 2**64 - 1]


def test_path_and_effect_key_spaces_are_disjoint():
    # every subject index fits in 32 bits: path words stay below
    # EFFECT_WORD and every effect word has it set
    subjects = np.array([0, 1, 7, 2**31, 2**32 - 1])
    paths = row_keys(3, subjects)
    effects = paths | np.uint64(EFFECT_WORD)
    assert paths.tolist() == subjects.tolist()
    assert (paths < EFFECT_WORD).all() and (effects >= EFFECT_WORD).all()
    assert not set(paths.tolist()) & set(effects.tolist())
    assert len(set(effects.tolist())) == len(subjects)
    with pytest.raises(ValueError, match="stream_id must fit in 32 bits"):
        row_keys(3, [EFFECT_WORD])


def test_rng_stream_validates_ranges():
    # generator checks both key words; a one-subject pass checks its seed
    # and subject through row_keys
    unit = builtin_model("unit")
    for seed, word in ((-1, 0), (2**64, 0), (0, 2**64), (0, -1)):
        with pytest.raises(ValueError):
            generator(seed, word)
    for seed, subject in ((-1, 0), (2**64, 0), (0, 2**32), (0, -1)):
        with pytest.raises(ValueError):
            simulate_replicates(unit, [1.0], 0.0, 1.0, 0.1, seed, subject)


def test_derive_seed_stable_and_sensitive():
    a = derive_seed(42, 1, 2)
    assert a == derive_seed(42, 1, 2)
    assert a != derive_seed(42, 2, 1)
    assert a != derive_seed(43, 1, 2)
    assert 0 <= a < 2**64


def test_derive_seed_refuses_a_seed_or_label_past_64_bits():
    assert 0 <= derive_seed(2**64 - 1, 2**64 - 1) < 2**64
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            derive_seed(bad, 1)
        # a label of 2**64 must not share the seed lane of label 0
        with pytest.raises(ValueError, match="label must fit in 64 bits"):
            derive_seed(1, 4, bad)


def test_float_label_distinguishes_sign_and_value():
    assert float_label(1.0) != float_label(-1.0)
    assert float_label(1.0) != float_label(2.0)
    assert float_label(0.5) == float_label(0.5)


def _fresh_rows(seed, word, R, steps):
    """R rows of steps normals: one call of a fresh generator on (seed, word)."""
    return generator(seed, word).standard_normal((R, steps))


def _keyed(seed, word):
    gen = generator(0, 0)
    gen.standard_normal(3)  # leave a part-used buffer for rekey to clear
    rekey(gen, seed, word)
    return gen


def test_path_normals_rows_equal_fresh_generators():
    # a block as wide as its buffer is one draw, a narrower one is drawn
    # row by row: both are the stream's normals in row order
    wide = path_normals(_keyed(12, 5), np.empty((5, 9)))
    assert np.array_equal(wide, _fresh_rows(12, 5, 5, 9))
    narrow = np.full((5, 14), -1.0)
    path_normals(_keyed(12, 5), narrow[:, :9])
    assert np.array_equal(narrow[:, :9], wide)
    assert (narrow[:, 9:] == -1.0).all()


@pytest.mark.parametrize("rows,width", [
    (3, STAGE + 3),      # a row wider than the stage: one row per block
    (64, 1024),          # the width divides the stage: two full blocks
    (70, 1000),          # blocks of 32 rows, then a ragged one of 6
    (0, 9),
    (5, 0),
], ids=["wide-rows", "exact-blocks", "ragged-block", "no-rows", "no-width"])
def test_staged_fills_are_the_row_by_row_stream(rows, width):
    # rows of a wider buffer are not C-contiguous, so they are staged in
    # blocks of whole rows; the block cuts must not show in the stream,
    # and the stream then goes on where a fresh one's rows would end
    padded = np.full((rows, width + 5), -1.0)
    out = padded[:, :width]
    assert out.size == 0 or not out.flags.c_contiguous
    gen = _keyed(9, EFFECT_WORD | 4)
    assert path_normals(gen, out) is out
    fresh = generator(9, EFFECT_WORD | 4)
    want = [fresh.standard_normal(width) for _ in range(rows)]
    assert np.array_equal(padded[:, :width], np.reshape(want, (rows, width)))
    assert (padded[:, width:] == -1.0).all()
    assert np.array_equal(gen.standard_normal(7), fresh.standard_normal(7))


def test_path_normals_mixed_subject_ids_per_row():
    # one generator re-keyed from stream to stream, mid-buffer, equals a
    # fresh generator on each
    gen = generator(0, 0)
    for word in (3, 0, 2**32 - 1, 2**31, EFFECT_WORD | 3, 2**64 - 1):
        rekey(gen, 2**64 - 1, word)
        z = path_normals(gen, np.empty((2, 17)))
        assert np.array_equal(z, _fresh_rows(2**64 - 1, word, 2, 17))


def test_path_normals_phi_stream_and_odd_lengths():
    # rows that end mid-block, and one longer than many Philox blocks,
    # carry the stream's buffered output on into the next row, drawn
    # alone or row by row
    lengths = (1, 3, 5, 1001)
    gen = _keyed(4, EFFECT_WORD | 2)
    rows = [path_normals(gen, np.empty(n)) for n in lengths]
    assert np.array_equal(np.concatenate(rows), _fresh_rows(4, EFFECT_WORD | 2, 1, sum(lengths))[0])


def test_path_normals_empty_and_numpy_ids():
    gen = _keyed(1, 2)
    assert path_normals(gen, np.empty((0, 4))).shape == (0, 4)
    assert np.array_equal(path_normals(gen, np.empty((2, 4))), _fresh_rows(1, 2, 2, 4))
    assert row_keys(1, np.array([2, 1], dtype=np.uint32)).tolist() == [2, 1]
    assert row_keys(1, []).size == 0


def test_path_normals_seed_and_length_per_row():
    # one seed per subject, a 64-bit one beside small ones, stays exact
    seeds = [2**64 - 1, 0, 12, 12]
    assert row_keys(seeds, [1, 1, 0, 5]).tolist() == [1, 1, 0, 5]
    assert row_keys(np.array(seeds, dtype=object), [1, 1, 0, 5]).dtype == np.uint64
    with pytest.raises(TypeError, match="seed must be integers"):
        row_keys([1.5, 2], [0, 1])


def test_path_normals_checks_every_row_seed(no_draws):
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        row_keys([1, 2**64], [0, 1])
    # a pass checks every segment's key before its first draw
    segments = [Segment(0.0, 1.0, 1, 0, [0.5]), Segment(0.0, 1.0, 2**64, 0, [0.5])]
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        replicate_uv(builtin_model("unit"), 0.1, segments)


@pytest.mark.parametrize("seed,subject,reps,bad_triple,match", [
    (-1, 0, [0], (-1, 0, 0), "seed must fit in 64 bits"),
    (2**64, 0, [0], (2**64, 0, 0), "seed must fit in 64 bits"),
    (0, 2**32, [0], (0, 2**32, 0), "stream_id must fit in 32 bits"),
    (0, -1, [0], (0, -1, 0), "stream_id must fit in 32 bits"),
    (0, [0, 2**32], [0, 0], (0, 2**32, 0), "stream_id must fit in 32 bits"),
])
def test_path_normals_range_errors_match_single_key(seed, subject, reps, bad_triple, match,
                                                    no_draws):
    """A pass whose row j is replicate reps[j] of subject id j (subject
    is one id or one per row) refuses a key out of range before any
    draw, with the error of one path, replicate 0, on the bad (seed,
    subject)."""
    subjects = np.broadcast_to(np.array(subject, dtype=object), len(reps)).tolist()
    segments = [Segment(0.0, 1.0, seed, s, [0.5] * (r + 1)) for s, r in zip(subjects, reps)]
    with pytest.raises(ValueError, match=match):
        replicate_uv(builtin_model("unit"), 0.1, segments)
    bad_seed, bad_subject, replicate = bad_triple
    assert replicate == 0
    with pytest.raises(ValueError, match=match):
        simulate_replicates(builtin_model("unit"), [1.0], 0.0, 1.0, 0.1, bad_seed, bad_subject)
