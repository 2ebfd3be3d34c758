import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import io_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_remle import Design, Theta, builtin_model, simulate_ensemble
from sde_remle import io as sde_io
from sde_remle.errors import IngestError
from sde_remle.io import (
    _cell,
    read_paths_csv,
    write_paths_csv,
    write_records,
    write_stats_csv,
)
from sde_remle.simulate import Path

UNIT = builtin_model("unit")


def test_cell_formats():
    assert _cell(None) == ""
    assert _cell(True) == "1"
    assert _cell(False) == "0"
    assert _cell(7) == "7"
    assert _cell(np.int64(7)) == "7"
    assert _cell(0.1) == "0.1"
    assert _cell(float("nan")) == "nan"
    assert _cell(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)


def test_cell_round_trips_floats():
    for x in (1.0 / 3.0, 0.1 + 0.2, 1e-300, -5.5):
        assert float(_cell(x)) == x


def test_boundary_cell():
    # a tuple is a fit's boundary flags
    assert _cell(()) == "-"
    assert _cell(("mu_hi",)) == "mu_hi"
    assert _cell(("omega2_lo", "mu_hi")) == "mu_hi|omega2_lo"


def test_write_records_writes_each_records_cells_in_column_order(tmp_path):
    out = tmp_path / "t.csv"
    records = [{"b": 0.1, "a": 3, "flags": (), "extra": "unread"},
               {"a": np.int64(-1), "b": None, "flags": ("omega2_lo", "mu_hi"), "extra": 1}]
    write_records(out, ("a", "b", "flags"), iter(records))
    assert out.read_bytes() == b"a,b,flags\n3,0.1,-\n-1,,mu_hi|omega2_lo\n"
    write_records(out, ("a",), [])
    assert out.read_bytes() == b"a\n"


def test_paths_round_trip(tmp_path):
    # a Path holds what paths.csv holds: every field comes back bit for
    # bit and with its type
    design = Design(subjects=((0.5, 1.0), (1.0, 2.0)), dt=0.1, seed=6)
    paths = simulate_ensemble(UNIT, Theta(mu=1.0, omega2=0.5), design)
    out = tmp_path / "paths.csv"
    write_paths_csv(paths, out)
    back = read_paths_csv(out)
    assert len(back) == 2
    for p, q in zip(paths, back):
        for field in dataclasses.fields(Path):
            a, b = getattr(p, field.name), getattr(q, field.name)
            assert type(a) is type(b), field.name
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            else:
                assert a == b


def test_stats_csv_full_precision(tmp_path):
    out = tmp_path / "stats.csv"
    write_stats_csv([0], np.array([1.0 / 3.0]), np.array([0.1 + 0.2]), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "subject,u,v"
    _, u_txt, v_txt = lines[1].split(",")
    assert float(u_txt) == 1.0 / 3.0
    assert float(v_txt) == 0.1 + 0.2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**63 - 1), st.floats(), st.floats()), max_size=20))
def test_stats_writer_bytes_equal_the_per_cell_reference(tmp_path_factory, rows):
    subjects = [np.int64(s) if s % 2 else s for s, _, _ in rows]
    u = np.array([a for _, a, _ in rows], dtype=float)
    v = np.array([b for _, _, b in rows], dtype=float)
    out = tmp_path_factory.mktemp("s")
    write_stats_csv(iter(subjects), u, v, str(out / "new.csv"))
    reference.write_stats_csv(subjects, u, v, out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


def _write(tmp_path, text):
    f = tmp_path / "in.csv"
    f.write_text(text)
    return f


def test_read_rejects_bad_header(tmp_path):
    f = _write(tmp_path, "subject,t,x\n0,0.0,1.0\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 1


def test_read_rejects_wrong_field_count(tmp_path):
    f = _write(tmp_path, "subject,k,t,x\n0,0,0.0\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 2


def test_read_rejects_decreasing_time(tmp_path):
    f = _write(
        tmp_path,
        "subject,k,t,x\n0,0,0.0,1.0\n0,1,0.5,1.1\n0,2,0.25,1.2\n",
    )
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 4
    assert "subject 0" in str(exc.value)


def test_read_rejects_a_repeated_time(tmp_path):
    # the generated files' times always step up by 1e-3 or more
    f = _write(tmp_path, "subject,k,t,x\n0,0,0.0,1.0\n1,0,0.0,2.0\n0,1,0.5,1.1\n0,2,0.5,1.2\n")
    for block_chars in (1, 1 << 16):
        got = _assert_reads_like_reference(f, block_chars)
        assert got == ("error", 5, "line 5: subject 0 time must increase (t=0.5 after t=0.5)")


def test_read_rejects_nonzero_start(tmp_path):
    f = _write(tmp_path, "subject,k,t,x\n0,0,0.5,1.0\n0,1,1.0,1.1\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 2
    assert "t=0" in str(exc.value)


def test_read_rejects_k_gap(tmp_path):
    f = _write(tmp_path, "subject,k,t,x\n0,0,0.0,1.0\n0,2,0.5,1.1\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 3
    assert "expected k=1" in str(exc.value)


def test_read_rejects_non_finite_value(tmp_path):
    f = _write(tmp_path, "subject,k,t,x\n0,0,0.0,inf\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 2


def test_read_rejects_negative_subject(tmp_path):
    f = _write(tmp_path, "subject,k,t,x\n-1,0,0.0,1.0\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 2


def test_read_rejects_single_point_subject(tmp_path):
    f = _write(tmp_path, "subject,k,t,x\n0,0,0.0,1.0\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert "fewer than 2" in str(exc.value)


def test_read_rejects_empty_file(tmp_path):
    f = _write(tmp_path, "subject,k,t,x\n")
    with pytest.raises(IngestError):
        read_paths_csv(f)


def test_read_allows_interleaved_subjects(tmp_path):
    f = _write(
        tmp_path,
        "subject,k,t,x\n"
        "1,0,0.0,2.0\n"
        "0,0,0.0,1.0\n"
        "1,1,0.5,2.1\n"
        "0,1,0.25,1.1\n",
    )
    paths = read_paths_csv(f)
    assert [p.subject_index for p in paths] == [0, 1]
    assert paths[0].values.tolist() == [1.0, 1.1]
    assert paths[1].times.tolist() == [0.0, 0.5]


def test_error_messages_carry_line_prefix(tmp_path):
    # the line number formats into the message text itself
    f = _write(tmp_path, "subject,k,t,x\n0,0,0.0,oops\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert str(exc.value).startswith("line 2: ")


# --- the streaming codec against the per-line reference (io_reference) ---

_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]),
)


@st.composite
def _paths(draw):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        reuse = draw(st.sampled_from(["no", "same", "copy", "signed zero", "last ulp"]))
        if out and reuse != "no":
            # an earlier path's grid, the array itself or a copy, which may
            # start at the other signed zero or end one ulp later
            times = draw(st.sampled_from(out)).times
            if reuse != "same":
                times = times.copy()
            if reuse == "signed zero":
                times[0] = -times[0]
            elif reuse == "last ulp":
                times[-1] = math.nextafter(times[-1], math.inf)
        else:
            n = draw(st.integers(2, 9))
            # a Path's grid strictly increases from 0
            times = np.array([draw(st.sampled_from([0.0, -0.0]))] + sorted(draw(st.lists(
                _FLOATS.filter(lambda x: x > 0), min_size=n - 1, max_size=n - 1, unique=True))))
        rest = st.lists(_FLOATS, min_size=len(times) - 1, max_size=len(times) - 1)
        values = [draw(_FLOATS.filter(lambda x: x == x))] + draw(rest)
        sid = draw(st.integers(0, 2**63 - 1))
        out.append(Path(
            times=times, values=np.array(values),
            subject_index=np.int64(sid) if draw(st.booleans()) else sid,
        ))
    return out


@settings(max_examples=150, deadline=None)
@given(_paths())
def test_paths_writer_bytes_equal_the_per_cell_reference(tmp_path_factory, paths):
    out = tmp_path_factory.mktemp("w")
    write_paths_csv(paths, out / "new.csv")
    reference.write_paths_csv(paths, out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


def _outcome(read, path):
    try:
        paths = read(path)
    except IngestError as err:
        return ("error", err.line, str(err))
    return ("paths", [
        (p.subject_index, type(p.subject_index), p.times.dtype, p.times.tobytes(),
         p.values.dtype, p.values.tobytes())
        for p in paths
    ])


def _assert_reads_like_reference(path, block_chars):
    with mock.patch.object(sde_io, "_BLOCK_CHARS", block_chars):
        got = _outcome(read_paths_csv, path)
    assert got == _outcome(reference.read_paths_csv, path)
    return got


# one edit per check kind of the reader; each makes its line bad
_FAULTS = {
    # "fields+" appends a fixed cell and "k-seq" reads k through float, so
    # any two faults compose on one row ("fields-" drops x, "k" makes k "2.0")
    "fields+": lambda r: r + ["0"],
    "fields-": lambda r: r[:3],
    "subject": lambda r: ["s" + r[0]] + r[1:],
    "subject<0": lambda r: ["-1"] + r[1:],
    "k": lambda r: [r[0], r[1] + ".0"] + r[2:],
    "k-seq": lambda r: [r[0], str(int(float(r[1])) + 1)] + r[2:],
    "k-huge": lambda r: [r[0], str(2**70)] + r[2:],  # past int64
    "t": lambda r: r[:2] + ["1e"] + r[3:],
    "t-finite": lambda r: r[:2] + ["nan"] + r[3:],
    "t-order": lambda r: r[:2] + ["-0.5"] + r[3:],
    "x": lambda r: r[:3] + ["x"],
    "x-finite": lambda r: r[:3] + ["-inf"],
    # one byte 0x80-0xff, set by t's text, into t: alone it is never UTF-8
    "utf8": lambda r: [r[0], r[1], r[2][:1] + chr(0xdc80 + sum(map(ord, r[2])) % 128)
                       + r[2][1:]] + r[3:],
    # str.isspace counts U+001C, and numpy strips it, but int and float refuse it
    "t-separator": lambda r: r[:2] + ["\x1c" + r[2]] + r[3:],
    # a letter that numpy's int parser reads as a digit of value 462
    "subject-letter": lambda r: [r[0] + "\u01fe"] + r[1:],
}

# valid spellings of a cell, for the columns (0 subject, 1 k, 2 t, 3 x)
# they suit; int and float read each as the cell it rewrites, though
# numpy's tokenizer refuses some of them
_SPELLINGS = {
    "underscore": ((0, 1, 2, 3), lambda c: re.sub("([0-9])([0-9])", r"\1_\2", c, count=1)),
    "plus": ((0, 1, 2, 3), lambda c: c if c.startswith("-") else "+" + c),
    "tab": ((0, 1, 2, 3), lambda c: "\t" + c + "\t"),
    "vertical tab": ((0, 1, 2, 3), lambda c: "\x0b" + c),
    "form feed": ((0, 1, 2, 3), lambda c: c + "\x0c"),
    "em space": ((0, 1, 2, 3), lambda c: "\u2003" + c + "\u2003"),
    "arabic-indic digit": ((0, 1, 2, 3), lambda c: re.sub(
        "[0-9]", lambda m: chr(0x660 + int(m.group())), c, count=1)),
    "minus zero": ((0, 1, 2, 3), lambda c: "-" + c if c in ("0", "0.0") else c),
    "exponent": ((2,), lambda c: c + "E+0"),
    "1E-3": ((3,), lambda c: "1E-3"),
}


@st.composite
def _path_files(draw):
    """A paths.csv text: interleaved subjects, valid respellings of some
    cells, optional faults, blank lines, any of the three line endings
    and an optional leading byte order mark. A byte that is not UTF-8 is
    its surrogateescape code point, so write the text encoded with
    errors="surrogateescape"."""
    queues = []
    ids = st.one_of(st.integers(0, 40), st.sampled_from([2**63, 2**70]))  # past int64 too
    for sid in draw(st.lists(ids, min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(1, 8))
        steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
        t = np.cumsum([0.0] + steps).tolist()
        x = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        queues.append([[str(sid), str(k), repr(t[k]), repr(x[k])] for k in range(n)])
    rows = []
    while queues:  # a random merge keeps each subject's rows in order
        q = queues[draw(st.integers(0, len(queues) - 1))]
        rows.append(q.pop(0))
        queues = [q for q in queues if q]
    for kind in draw(st.lists(st.sampled_from(sorted(_SPELLINGS)), max_size=3)):
        columns, spell = _SPELLINGS[kind]
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(columns))
        rows[i][j] = spell(rows[i][j])
    for kind in draw(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = _FAULTS[kind](rows[i])
    lines = ["subject,k,t,x"] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=300, deadline=None)
@given(_path_files(), st.sampled_from([1, 7, 24, 64, 1 << 16]))
def test_paths_reader_matches_the_per_line_reference(tmp_path_factory, text, block_chars):
    f = tmp_path_factory.mktemp("r") / "in.csv"
    f.write_bytes(text.encode(errors="surrogateescape"))
    _assert_reads_like_reference(f, block_chars)


@pytest.mark.parametrize("kind", sorted(_FAULTS))
def test_each_fault_on_either_side_of_a_block_boundary(tmp_path, kind):
    rows = [[str(s), str(k), repr(0.25 * k), repr(1.0 + s + k)]
            for k in range(6) for s in range(2)]
    for bad in range(len(rows)):
        for second in (None, bad + 3):
            edited = [_FAULTS[kind](r) if i in (bad, second) else r for i, r in enumerate(rows)]
            text = "subject,k,t,x\n" + "".join(",".join(r) + "\n" for r in edited)
            f = tmp_path / "in.csv"
            f.write_bytes(text.encode(errors="surrogateescape"))
            # the block ends fall before, inside and after the bad line
            for block_chars in (1, 17, 30, 64, 100):
                got = _assert_reads_like_reference(f, block_chars)
                assert got[0] == "error"


@pytest.mark.slow
def test_a_valid_int64_file_never_reaches_the_per_line_reader(tmp_path):
    # numpy's tokenizer and _check_block's column checks accept every
    # block of a file that simulate writes; _per_line runs on none
    design = Design(subjects=((1.0, 2.0),) * 600, dt=0.01, seed=3)
    big = tmp_path / "big.csv"
    write_paths_csv(simulate_ensemble(UNIT, Theta(mu=0.8, omega2=0.4), design), big)
    spy = mock.patch.object(sde_io, "_per_line", wraps=sde_io._per_line)
    for block_chars in (1, 17, 1 << 16):
        with spy as per_line:
            assert _assert_reads_like_reference(big, block_chars)[0] == "paths"
        assert per_line.call_count == 0, block_chars


def test_a_valid_file_with_ids_past_int64_reads_like_the_reference(tmp_path):
    # blank lines, both line ends and an id past int64, which only the
    # per-line reader parses
    rows = ["subject,k,t,x", "", "7,0,0.0,1.5", f"{2**70},0,-0.0,2.5", "", "",
            "7,1,0.25,-1.0", f"{2**70},1,1e-300,0.0", "0,0,0.0,3.0", "7,2,0.5,4.0",
            "0,1,2.0,-0.0", ""]
    mixed = tmp_path / "mixed.csv"
    mixed.write_bytes("".join(r + ("\r\n", "\r")[i % 2] for i, r in enumerate(rows)).encode())
    for block_chars in (1, 17, 1 << 16):
        assert _assert_reads_like_reference(mixed, block_chars)[0] == "paths"


def test_a_line_far_longer_than_a_block_reads_in_linear_time(tmp_path):
    # with fixed 16-character reads, re-copying the growing partial line
    # would move about 30 GB for this one 1 MB line
    f = tmp_path / "in.csv"
    f.write_text("subject,k,t,x\n0,0,0.0," + "1" * 1_000_000 + "\n0,1,1.0,2.0\n")
    got = _assert_reads_like_reference(f, 16)
    assert got == ("error", 2, "line 2: x is not finite")


def test_read_reports_a_byte_that_is_not_utf8_with_its_line(tmp_path):
    f = tmp_path / "in.csv"
    for newline in (b"\r\n", b"\r"):
        f.write_bytes(b"subject,k,t,x\r\n0,0,0.0,1.0\r\n\r\n0,1,0.5,\xff1.0\r\n"
                      .replace(b"\r\n", newline))
        for block_chars in (1, 16, 1 << 16):
            with mock.patch.object(sde_io, "_BLOCK_CHARS", block_chars):
                with pytest.raises(IngestError) as exc:
                    read_paths_csv(f)
            assert exc.value.line == 4
            assert str(exc.value) == "line 4: byte 0xff is not UTF-8"
    # a bad line before it is still the one reported
    f.write_bytes(b"subject,k,t,x\n0,0,0.5,1.0\n0,1,\xe9,1.0\n")
    with pytest.raises(IngestError) as exc:
        read_paths_csv(f)
    assert exc.value.line == 2


@pytest.mark.parametrize("make", [lambda d: d / "missing.csv", lambda d: d])
def test_read_of_a_missing_file_or_a_directory_is_an_ingest_error(tmp_path, make):
    with pytest.raises(IngestError, match="cannot read"):
        read_paths_csv(make(tmp_path))


def test_codec_peak_memory_on_a_600_by_201_file(tmp_path):
    design = Design(subjects=((1.0, 2.0),) * 600, dt=0.01, seed=3)
    paths = simulate_ensemble(UNIT, Theta(mu=0.8, omega2=0.4), design)
    out = tmp_path / "paths.csv"
    # the per-cell writer peaked at about 37 MB and the per-line reader at
    # about 10 MB; the file is 3.9 MB and its arrays 1.9 MB
    tracemalloc.start()
    try:
        write_paths_csv(paths, out)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_paths_csv(out)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == 600 and out.stat().st_size > 3.5e6
    assert write_peak < 2e6
    assert read_peak < 6e6
