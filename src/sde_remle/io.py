"""CSV persistence and ingestion.

Every numeric cell is written with repr(), whose shortest-round-trip
decimals reparse to the identical double, so a dumped file is a faithful
serialization of the in-memory result and reruns can be compared byte for
byte. Absent values are empty cells. Boundary flags join with '|' in a
fixed order, '-' when none.

Every table but paths.csv and stats.csv, which are written a column at a
time, is a tuple of column names and a write_records call: one row per
record, a mapping, with the _cell of its value under each column.

Tables stream both ways. write_table writes rows as its caller yields
them, and read_paths_csv parses blocks of whole lines, so neither holds a
whole file of Python strings. Each block is checked a column at a time,
which only tells whether it is good; a refused block is walked line by
line to raise the IngestError of its first bad line.

Every input file (paths.csv, the CLI's config) is read by open_text:
'\n', '\r\n' and '\r' each end a line and come out as '\n', one leading
byte order mark is dropped, and a byte that is not UTF-8 becomes one code
point in U+DC80..U+DCFF, which not_utf8 names.
"""

import math
import os
import re
from itertools import islice, repeat

import numpy as np

from .errors import IngestError
from .simulate import Path

PATHS_FILE = "paths.csv"
STATS_FILE = "stats.csv"
FIT_FILE = "fit.csv"
REPLICATES_FILE = "replicates.csv"
SUMMARY_FILE = "summary.csv"
LIMITS_FILE = "limits.csv"
LIMIT_FILE = "limit.csv"
CONTINUITY_FILE = "continuity.csv"

_PATHS_HEADER = ("subject", "k", "t", "x")
# the columns of each table written by write_records
_FIT_COLUMNS = ("n", "mu_hat", "omega2_hat", "loglik", "score_norm",
                "boundary", "se_mu", "se_omega2", "iterations")
_REPLICATES_COLUMNS = ("rep", "n", "mu_hat", "omega2_hat", "z_mu", "z_omega2", "boundary")
_SUMMARY_COLUMNS = ("n", "med_err", "p90_err", "ks_mu", "ks_omega2", "cov_mu", "cov_omega2")
_ESTIMATES = ("kl", "i00", "i01", "i11")
_LIMITS_COLUMNS = ("n",) + tuple(
    f"{e}{s}" for e in _ESTIMATES for s in ("", "_se", "_gap", "_gap_se"))
_LIMIT_COLUMNS = tuple(f"{e}{s}" for e in _ESTIMATES for s in ("", "_se"))
_CONTINUITY_COLUMNS = ("m", "x", "T", "k", "estimate", "se",
                       "limit_estimate", "limit_se", "gap", "gap_se")
# characters of whole lines read_paths_csv parses at a time (a readlines
# hint); its working set is a few dozen times this (the lines, tokens and
# parsed values of one block), whatever the size of the file
_BLOCK_CHARS = 1 << 16
_ESCAPED = re.compile("[\udc80-\udcff]")  # a non-UTF-8 byte, surrogateescaped
# rows write_table joins into one write
_WRITE_ROWS = 4096


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, tuple):  # boundary flags
        return "|".join(sorted(value)) or "-"
    if isinstance(value, (int, np.integer)):  # a bool too
        return str(int(value))
    return repr(float(value))


def write_table(path, header, rows):
    """Write a CSV: the header names, then one line per row of text cells.

    rows may be any iterable, a generator included. Rows are joined and
    written _WRITE_ROWS at a time, so no list of all lines is built.
    """
    lines = map(",".join, rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while batch := list(islice(lines, _WRITE_ROWS)):
            fh.write("\n".join(batch) + "\n")


def _path_rows(paths):
    k_text = []
    for p in paths:
        # repr of a float from tolist() is _cell's text for it, nan included
        times, values = p.times.tolist(), p.values.tolist()
        k_text.extend(map(str, range(len(k_text), len(times))))
        yield from zip(repeat(str(p.subject_index)), k_text,
                       map(repr, times), map(repr, values))


def write_paths_csv(paths, out_path):
    """One row per grid point: subject,k,t,x."""
    write_table(out_path, _PATHS_HEADER, _path_rows(paths))


def write_stats_csv(subjects, u, v, out_path):
    """One row per subject: subject,u,v, from subject ids and float arrays
    whose cells are the repr of each float, as _cell writes it."""
    write_table(out_path, ("subject", "u", "v"), zip(
        map(str, subjects), map(repr, np.asarray(u, dtype=float).tolist()),
        map(repr, np.asarray(v, dtype=float).tolist()),
    ))


def write_records(path, columns, records):
    """A CSV of one row per record, a mapping: the _cell of its value
    under each of columns, which is also the header."""
    write_table(path, columns, ([_cell(r[c]) for c in columns] for r in records))


def write_fit_csv(fit, n, out_path):
    se_mu, se_w2 = fit.wald_se if fit.wald_se is not None else (None, None)
    write_records(out_path, _FIT_COLUMNS, [{
        "n": n, "mu_hat": fit.theta_hat.mu, "omega2_hat": fit.theta_hat.omega2,
        "loglik": fit.loglik, "score_norm": fit.score_norm, "boundary": fit.boundary,
        "se_mu": se_mu, "se_omega2": se_w2, "iterations": fit.iterations,
    }])


def write_replicates_csv(rows, out_path):
    write_records(out_path, _REPLICATES_COLUMNS, rows)


def write_summary_csv(summaries, out_path):
    write_records(out_path, _SUMMARY_COLUMNS, summaries)


def write_limits_csv(table, out_path, limit_path):
    """Running-average rows of a ConvergenceTable to out_path, its limit
    estimates to limit_path."""
    write_records(out_path, _LIMITS_COLUMNS, table.rows)
    write_records(limit_path, _LIMIT_COLUMNS, [table.limit])


def write_continuity_csv(table, out_path):
    write_records(out_path, _CONTINUITY_COLUMNS, table.rows)


def open_text(path):
    """(first line, the open file after it) of path, read as the module
    docstring says every input file is read; raises OSError as open does.
    The mark is dropped by hand: the utf-8-sig codec reads a file of
    b"\\xef" or b"\\xef\\xbb" as empty text, not as bytes that are not UTF-8.
    """
    fh = open(path, encoding="utf-8", errors="surrogateescape")
    try:
        return fh.readline().removeprefix("\ufeff"), fh
    except OSError:
        fh.close()
        raise


def not_utf8(text):
    """(index, message) of the first byte of text from open_text that was
    not UTF-8, or None when every byte was."""
    m = _ESCAPED.search(text)
    return m and (m.start(), f"byte 0x{ord(m.group()) - 0xdc00:02x} is not UTF-8")


def _ints(values):
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # ids past int64 stay exact Python ints
        return np.array(values, dtype=object)


def _check_block(lines, first, seen):
    """Parse and check a block of data lines, whose first line is line
    number first, and add its rows to seen.

    seen maps each subject to [its point count, its t chunks, its x
    chunks]. The checks run on whole columns; a block that fails one is
    refused with the IngestError of its first bad line, from _bad_line.
    """
    try:
        rows = list(filter(None, "".join(lines).split("\n")))
        # a blank line carries no row; every other has 4 fields
        if not all(row.count(",") == 3 for row in rows):
            raise ValueError
        tokens = ",".join(rows).split(",") if rows else []
        n = len(rows)
        s, k = _ints(list(map(int, tokens[0::4] + tokens[1::4]))).reshape(2, n)
        t, x = tx = np.array(list(map(float, tokens[2::4] + tokens[3::4]))).reshape(2, n)
    except ValueError:  # no int or float parses a byte that was not UTF-8
        raise _bad_line(lines, first, seen) from None
    # each subject's rows in file order, and where its run starts
    order = np.argsort(s, kind="stable")
    s_run, t_run, x_run = s[order], t[order], x[order]
    new = np.ones(n + 1, dtype=bool)
    new[1:n] = s_run[1:] != s_run[:-1]
    # the first row of each run, then n
    edge = np.flatnonzero(new)
    head, size = edge[:-1], edge[1:] - edge[:-1]
    ids = s_run[head].tolist()
    known = [seen.get(i) for i in ids]
    # row j of a run that starts at row h expects k = its subject's count
    # so far + j - h
    start = np.subtract([c[0] if c else 0 for c in known], head)
    expect = np.repeat(start, size) + np.arange(n)
    prev = np.empty(n)
    prev[1:] = t_run[:-1]
    prev[head] = [c[1][-1][-1] if c else math.nan for c in known]
    if not ((s >= 0).all() and np.isfinite(tx).all()
            and (k[order] == expect).all()
            and np.where(expect == 0, t_run == 0.0, t_run > prev).all()):
        raise _bad_line(lines, first, seen)
    for i, c, h, m in zip(ids, known, head.tolist(), size.tolist()):
        if c is None:
            seen[i] = c = [0, [], []]
        c[0] += m
        c[1].append(t_run[h:h + m])
        c[2].append(x_run[h:h + m])


_CELLS = (("subject", int, "an integer"), ("k", int, "an integer"),
          ("t", float, "a number"), ("x", float, "a number"))


def _bad_line(lines, first, seen):
    """The IngestError of the first bad line of a block that _check_block
    refused: its lines are checked in order from the state in seen, each
    as a line-by-line reader checks it."""
    state = {i: (c[0], float(c[1][-1][-1])) for i, c in seen.items()}
    for line, text in enumerate(lines, first):
        if bad := not_utf8(text):
            return IngestError(bad[1], line=line)
        cells = text.removesuffix("\n").split(",")
        if cells == [""]:
            continue  # a blank line carries no row
        if len(cells) != 4:
            return IngestError(f"expected 4 fields, got {len(cells)}", line=line)
        values = []
        for cell, (what, conv, kind) in zip(cells, _CELLS):
            try:
                values.append(conv(cell))
            except ValueError:
                return IngestError(f"{what} is not {kind}: {cell!r}", line=line)
            if what == "subject" and values[0] < 0:
                return IngestError("subject must be >= 0", line=line)
            if conv is float and not math.isfinite(values[-1]):
                return IngestError(f"{what} is not finite", line=line)
        subject, k, t, _ = values
        count, last = state.get(subject, (0, None))
        if k != count:
            return IngestError(f"subject {subject} expected k={count}, got {k}", line=line)
        if count == 0 and t != 0.0:
            return IngestError(f"subject {subject} must start at t=0", line=line)
        if count and not t > last:
            return IngestError(f"subject {subject} time must increase "
                               f"(t={t!r} after t={last!r})", line=line)
        state[subject] = (count + 1, t)
    raise AssertionError(f"the block at line {first} was refused with no bad line")


def read_paths_csv(in_path):
    """Parse a subject,k,t,x file back into Path objects.

    Per subject: k must count 0,1,2,... in file order, t must start at 0
    and strictly increase. Rows of different subjects may interleave.
    Returns paths sorted by subject id. Every violation raises IngestError
    naming the first bad line; a file that cannot be opened raises it too.
    """
    try:
        header, fh = open_text(in_path)
    except OSError as err:
        raise IngestError(f"cannot read {os.fspath(in_path)}: {err.strerror}") from None
    seen = {}
    with fh:
        if header.removesuffix("\n") != ",".join(_PATHS_HEADER):
            raise IngestError("expected header 'subject,k,t,x'", line=1)
        first = 2
        while lines := fh.readlines(_BLOCK_CHARS):
            _check_block(lines, first, seen)
            first += len(lines)
    if not seen:
        raise IngestError("no data rows", line=1)
    short = [subject for subject, (n, _, _) in seen.items() if n < 2]
    if short:
        raise IngestError(f"subject {min(short)} has fewer than 2 points")
    paths = []
    for subject in sorted(seen):
        _, t, x = seen.pop(subject)
        paths.append(Path(times=np.concatenate(t), values=np.concatenate(x),
                          subject_index=int(subject)))
    return paths
