"""CSV persistence and ingestion.

Every numeric cell is written with repr(), whose shortest-round-trip
decimals reparse to the identical double, so a dumped file is a faithful
serialization of the in-memory result and reruns can be compared byte for
byte. Absent values are empty cells. Boundary flags join with '|' in a
fixed order, '-' when none.

Tables stream both ways. write_table writes rows as its caller yields
them, and read_paths_csv parses fixed-size blocks of lines and checks each
block column by column, so neither holds a whole file of Python strings.
"""

import math
import os
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
# bytes of text read_paths_csv parses at a time; its working set is a few
# dozen times this (the lines, tokens and parsed values of one block),
# whatever the size of the file
_BLOCK_BYTES = 1 << 16
# rows write_table joins into one write
_WRITE_ROWS = 4096


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "nan"
    return repr(x)


def _boundary_cell(flags):
    return "|".join(sorted(flags)) if flags else "-"


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


def write_fit_csv(fit, n, out_path):
    se_mu, se_w2 = fit.wald_se if fit.wald_se is not None else (None, None)
    write_table(
        out_path,
        ("n", "mu_hat", "omega2_hat", "loglik", "score_norm",
         "boundary", "se_mu", "se_omega2", "iterations"),
        [(str(n), _cell(fit.theta_hat.mu), _cell(fit.theta_hat.omega2),
          _cell(fit.loglik), _cell(fit.score_norm), _boundary_cell(fit.boundary),
          _cell(se_mu), _cell(se_w2), str(fit.iterations))],
    )


def write_replicates_csv(rows, out_path):
    write_table(
        out_path,
        ("rep", "n", "mu_hat", "omega2_hat", "z_mu", "z_omega2", "boundary"),
        ((str(r["rep"]), str(r["n"]), _cell(r["mu_hat"]), _cell(r["omega2_hat"]),
          _cell(r["z_mu"]), _cell(r["z_omega2"]), _boundary_cell(r["boundary"]))
         for r in rows),
    )


def write_summary_csv(summaries, out_path):
    keys = ("med_err", "p90_err", "ks_mu", "ks_omega2", "cov_mu", "cov_omega2")
    write_table(out_path, ("n",) + keys, (
        [str(s["n"])] + [_cell(s[k]) for k in keys] for s in summaries
    ))


_LIMITS_KEYS = (
    "kl", "kl_se", "kl_gap", "kl_gap_se",
    "i00", "i00_se", "i00_gap", "i00_gap_se",
    "i01", "i01_se", "i01_gap", "i01_gap_se",
    "i11", "i11_se", "i11_gap", "i11_gap_se",
)


def write_limits_csv(table, out_path, limit_path=None):
    """Running-average rows of a ConvergenceTable; the limit estimates go
    to limit_path when given."""
    write_table(out_path, ("n",) + _LIMITS_KEYS, (
        [str(r["n"])] + [_cell(r[k]) for k in _LIMITS_KEYS] for r in table.rows
    ))
    if limit_path is not None:
        keys = ("kl", "kl_se", "i00", "i00_se", "i01", "i01_se", "i11", "i11_se")
        write_table(limit_path, keys, [[_cell(table.limit[k]) for k in keys]])


def write_continuity_csv(table, out_path):
    keys = ("m", "x", "T", "k", "estimate", "se",
            "limit_estimate", "limit_se", "gap", "gap_se")
    write_table(out_path, keys, (
        [str(r[k]) if k in ("m", "k") else _cell(r[k]) for k in keys]
        for r in table.rows
    ))


def _line_blocks(fh):
    """(number of its first line, its bytes) for each run of whole lines
    of about _BLOCK_BYTES in a binary file.

    '\n', '\r\n' and '\r' each end a line, as in text mode with
    newline=''; every line ending comes out as '\n'.
    """
    line_no, rest = 1, b""
    while True:
        # a line longer than a block doubles the read, so its bytes are
        # copied O(1) times on average
        chunk = fh.read(max(_BLOCK_BYTES, len(rest)))
        data = rest + chunk
        if not data:
            return
        # a final '\r' may be the first half of a '\r\n' that the read split
        hold = 1 if chunk and data.endswith(b"\r") else 0
        text = data[:len(data) - hold].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        end = text.rfind(b"\n") + 1 if chunk else len(text)
        block, rest = text[:end], text[end:] + data[len(data) - hold:]
        if block:
            yield line_no, block
            line_no += block.count(b"\n")


def _parse(conv, tokens):
    """(conv of each token up to the first it rejects, that token's index
    or len(tokens)); a rejection is found by bisection."""
    try:
        return list(map(conv, tokens)), len(tokens)
    except ValueError:
        lo, hi = 0, len(tokens)  # tokens[:lo] parse; tokens[lo:hi] holds a reject
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                list(map(conv, tokens[lo:mid]))
                lo = mid
            except ValueError:
                hi = mid
        return list(map(conv, tokens[:lo])), lo


def _ints(values):
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # ids past int64 stay exact Python ints
        return np.array(values, dtype=object)


def _check_block(block, first, seen):
    """Parse and check a block of data lines, whose first line is line
    number first, and add its rows to seen.

    seen maps each subject to [its point count, its t chunks, its x
    chunks]. Every check runs on whole columns, and a failing check cuts
    the block before its first failing line, so later checks see only the
    lines before it. The IngestError raised is thus the one of the first
    bad line, and on that line the first failing check in this order:
    UTF-8; field count; subject parse, >= 0; k parse; t parse, finite;
    x parse, finite; k counting on from the subject's points so far; t
    starting at 0 or exceeding the subject's last t.
    """
    try:
        lines = block.decode("utf-8").split("\n")
    except UnicodeDecodeError as err:
        good = block.rfind(b"\n", 0, err.start) + 1
        _check_block(block[:good], first, seen)
        raise IngestError(f"byte 0x{block[err.start]:02x} is not UTF-8",
                          line=first + block.count(b"\n", 0, good)) from None
    if not lines[-1]:
        lines.pop()  # the empty text after the block's last '\n'
    rows = list(filter(None, lines))  # blank lines carry no row
    # line lengths and field counts from the bytes: ',' and '\n' are
    # never part of a multi-byte UTF-8 character
    a = np.frombuffer(block, dtype=np.uint8)
    ends = np.r_[np.flatnonzero(a == 10), a.size][:len(lines)]
    fields = np.diff(np.searchsorted(np.flatnonzero(a == 44), ends), prepend=0) + 1
    filled = np.diff(ends, prepend=-1) > 1
    line_no, fields = first + np.flatnonzero(filled), fields[filled]
    end, error = len(rows), None

    def fail(i, message):
        nonlocal end, error
        end, error = int(i), IngestError(message, line=int(line_no[i]))

    bad = np.flatnonzero(fields != 4)
    if bad.size:
        fail(bad[0], f"expected 4 fields, got {fields[bad[0]]}")
    tokens = ",".join(rows[:end]).split(",") if end else []

    def column(j, conv, what, kind):
        cells = tokens[j::4][:end]
        values, i = _parse(conv, cells)
        if i < end:
            fail(i, f"{what} is not {kind}: {cells[i]!r}")
        return values[:end]

    def floats(j, what):
        x = np.array(column(j, float, what, "a number"), dtype=float)
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            fail(bad[0], f"{what} is not finite")
        return x

    s = _ints(column(0, int, "subject", "an integer"))
    bad = np.flatnonzero(s < 0)
    if bad.size:
        fail(bad[0], "subject must be >= 0")
    k = _ints(column(1, int, "k", "an integer"))
    t = floats(2, "t")
    x = floats(3, "x")
    s, k, t, x = s[:end], k[:end], t[:end], x[:end]

    # each subject's rows in file order, and where its run starts
    order = np.argsort(s, kind="stable")
    s_run, t_run, x_run = s[order], t[order], x[order]
    new = np.ones(end, dtype=bool)
    new[1:] = s_run[1:] != s_run[:-1]
    head = np.flatnonzero(new)
    size = np.diff(np.r_[head, end])
    ids = s_run[head].tolist()
    known = [seen.get(i) for i in ids]
    expect = np.empty(end, dtype=np.int64)
    expect[order] = (np.repeat([c[0] if c else 0 for c in known], size)
                     + np.arange(end) - np.repeat(head, size))
    prev = np.empty(end)
    prev[order] = np.r_[math.nan, t_run[:-1]]
    prev[order[head]] = [c[1][-1][-1] if c else math.nan for c in known]
    bad_k = np.asarray(k != expect, dtype=bool)
    bad = np.flatnonzero(bad_k | np.where(expect == 0, t != 0.0, ~(t > prev)))
    if bad.size:
        i, subject = bad[0], int(s[bad[0]])
        if bad_k[i]:
            fail(i, f"subject {subject} expected k={expect[i]}, got {int(k[i])}")
        elif expect[i] == 0:
            fail(i, f"subject {subject} must start at t=0")
        else:
            fail(i, f"subject {subject} time must increase "
                    f"(t={float(t[i])!r} after t={float(prev[i])!r})")
    if error is not None:
        raise error
    for i, c, h, n in zip(ids, known, head.tolist(), size.tolist()):
        if c is None:
            seen[i] = c = [0, [], []]
        c[0] += n
        c[1].append(t_run[h:h + n])
        c[2].append(x_run[h:h + n])


def read_paths_csv(in_path):
    """Parse a subject,k,t,x file back into Path objects.

    Per subject: k must count 0,1,2,... in file order, t must start at 0
    and strictly increase. Rows of different subjects may interleave.
    Returns paths sorted by subject id; phi and seed are unknown for
    external data and left as None. Every violation raises IngestError
    naming the first bad line; a file that cannot be opened raises it too.
    """
    try:
        fh = open(in_path, "rb")
    except OSError as err:
        raise IngestError(f"cannot read {os.fspath(in_path)}: {err.strerror}") from None
    seen = {}
    with fh:
        blocks = _line_blocks(fh)
        header, _, block = next(blocks, (1, b""))[1].partition(b"\n")
        if header != ",".join(_PATHS_HEADER).encode():
            raise IngestError("expected header 'subject,k,t,x'", line=1)
        _check_block(block, 2, seen)
        for first, block in blocks:
            _check_block(block, first, seen)
    if not seen:
        raise IngestError("no data rows", line=1)
    short = [subject for subject, (n, _, _) in seen.items() if n < 2]
    if short:
        raise IngestError(f"subject {min(short)} has fewer than 2 points")
    paths = []
    for subject in sorted(seen):
        _, t, x = seen.pop(subject)
        values = np.concatenate(x)
        paths.append(Path(times=np.concatenate(t), values=values, x0=float(values[0]),
                          phi=None, seed=None, subject_index=int(subject)))
    return paths


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
