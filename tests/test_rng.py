import numpy as np
import pytest

from sde_remle.rng import (
    PHI_STREAM_ID,
    derive_seed,
    float_label,
    generator,
)
from sde_remle.models import builtin_model
from sde_remle.simulate import euler_maruyama, path_normals


def test_same_triple_bit_identical():
    a = generator(7, 3, 11).standard_normal(64)
    b = generator(7, 3, 11).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_triples_differ():
    base = generator(7, 3, 11).standard_normal(32)
    for seed, stream, rep in [(8, 3, 11), (7, 4, 11), (7, 3, 12)]:
        other = generator(seed, stream, rep).standard_normal(32)
        assert not np.array_equal(base, other)


def test_draw_order_does_not_matter():
    """A stream's output depends only on its key, not on what other
    streams drew before it."""
    g1 = generator(5, 0, 0)
    _ = g1.standard_normal(1000)
    fresh = generator(5, 1, 0).standard_normal(16)
    interleaved = generator(5, 1, 0).standard_normal(16)
    assert np.array_equal(fresh, interleaved)


def test_generator_key_packs_the_triple():
    # first key word the seed, second stream_id << 32 | replicate_id
    key = generator(9, 2, 5).bit_generator.state["state"]["key"]
    assert key.tolist() == [9, (2 << 32) | 5]
    top = generator(2**64 - 1, PHI_STREAM_ID, 2**32 - 1).bit_generator.state["state"]["key"]
    assert top.tolist() == [2**64 - 1, 2**64 - 1]


def test_phi_stream_id_is_reserved_top_of_range():
    assert PHI_STREAM_ID == 2**32 - 1


def test_rng_stream_validates_ranges():
    # generator and euler_maruyama's draw both check the key through row_keys
    unit = builtin_model("unit")
    for triple in ((-1, 0, 0), (2**64, 0, 0), (0, 2**32, 0), (0, -1, 0), (0, 0, 2**32)):
        with pytest.raises(ValueError):
            generator(*triple)
        with pytest.raises(ValueError):
            euler_maruyama(unit, 1.0, 0.0, 1.0, 0.1, *triple)


def test_derive_seed_stable_and_sensitive():
    a = derive_seed(42, 1, 2)
    assert a == derive_seed(42, 1, 2)
    assert a != derive_seed(42, 2, 1)
    assert a != derive_seed(43, 1, 2)
    assert 0 <= a < 2**64


def test_float_label_distinguishes_sign_and_value():
    assert float_label(1.0) != float_label(-1.0)
    assert float_label(1.0) != float_label(2.0)
    assert float_label(0.5) == float_label(0.5)


def _fresh_rows(seed, subjects, reps, steps):
    return np.stack([
        generator(seed, s, r).standard_normal(steps) for s, r in zip(subjects, reps)
    ])


def test_path_normals_rows_equal_fresh_generators():
    reps = [0, 7, 2**32 - 1, 7, 3]
    z = path_normals(12, 5, reps, 9)
    assert np.array_equal(z, _fresh_rows(12, [5] * len(reps), reps, 9))


def test_path_normals_mixed_subject_ids_per_row():
    subjects = [3, 0, PHI_STREAM_ID, 3, 2**31]
    reps = [1, 1, 2**32 - 1, 0, 4]
    z = path_normals(2**64 - 1, subjects, reps, 17)
    assert np.array_equal(z, _fresh_rows(2**64 - 1, subjects, reps, 17))


def test_path_normals_phi_stream_and_odd_lengths():
    # lengths that end mid-block and one longer than many Philox blocks
    # must not carry buffered output into the next row
    for steps in (1, 3, 5, 1001):
        z = path_normals(4, PHI_STREAM_ID, [0, 1, 2], steps)
        assert np.array_equal(z, _fresh_rows(4, [PHI_STREAM_ID] * 3, [0, 1, 2], steps))


def test_path_normals_empty_and_numpy_ids():
    assert path_normals(1, 0, [], 4).shape == (0, 4)
    z = path_normals(1, np.array([2, 1], dtype=np.uint32), np.arange(2), 4)
    assert np.array_equal(z, _fresh_rows(1, [2, 1], [0, 1], 4))


def test_path_normals_seed_and_length_per_row():
    # rows of several seeds and lengths share one call; each row's first
    # steps_j entries are its fresh generator's draws
    seeds = np.array([2**64 - 1, 0, 12, 12], dtype=object)
    subjects, reps, steps = [1, 1, 0, 5], [3, 3, 9, 0], np.array([11, 6, 6, 1])
    z = path_normals(seeds, subjects, reps, steps)
    assert z.shape == (4, 11)
    for row, seed, subject, rep, length in zip(z, seeds, subjects, reps, steps):
        fresh = generator(seed, subject, rep).standard_normal(length)
        assert np.array_equal(row[:length], fresh)


def test_path_normals_checks_every_row_seed():
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        path_normals(np.array([1, 2**64], dtype=object), 0, [0, 1], 3)


@pytest.mark.parametrize("seed,subject,reps,bad_triple,match", [
    (-1, 0, [0], (-1, 0, 0), "seed must fit in 64 bits"),
    (2**64, 0, [0], (2**64, 0, 0), "seed must fit in 64 bits"),
    (0, 2**32, [0], (0, 2**32, 0), "stream_id must fit in 32 bits"),
    (0, -1, [0], (0, -1, 0), "stream_id must fit in 32 bits"),
    (0, [0, 2**32], [0, 0], (0, 2**32, 0), "stream_id must fit in 32 bits"),
    (0, 0, [0, 2**32], (0, 0, 2**32), "replicate_id must fit in 32 bits"),
    (0, 0, [0, -1], (0, 0, -1), "replicate_id must fit in 32 bits"),
    (0, 0, [2**64], (0, 0, 2**64), "replicate_id must fit in 32 bits"),
])
def test_path_normals_range_errors_match_single_key(seed, subject, reps, bad_triple, match):
    with pytest.raises(ValueError, match=match):
        path_normals(seed, subject, reps, 3)
    with pytest.raises(ValueError, match=match):
        generator(*bad_triple)
