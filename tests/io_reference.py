"""Per-line reference for sde_remle.io's codec.

The writers format every cell with _cell and read_paths_csv parses one
line at a time, as the package did before its codec streamed blocks.
The package must write the same bytes, and read the same arrays or raise
the same IngestError (line and message) for the first bad line.

read_paths_csv works on the file's bytes, not through a text decoder:
it drops one leading byte order mark, splits lines at '\r\n', '\r' and
'\n', and decodes each line strictly, so a line's first byte that is not
UTF-8 is reported at that line.
"""

import codecs
import math
import re

import numpy as np

from sde_remle.errors import IngestError
from sde_remle.simulate import Path


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


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_paths_csv(paths, out_path):
    """One row per grid point: subject,k,t,x."""
    rows = []
    for p in paths:
        for k in range(len(p.times)):
            rows.append((
                str(p.subject_index), str(k), _cell(p.times[k]), _cell(p.values[k]),
            ))
    _write_rows(out_path, ("subject", "k", "t", "x"), rows)


def write_stats_csv(subjects, u, v, out_path):
    """One row per subject: subject,u,v."""
    rows = [(str(s), _cell(a), _cell(b)) for s, a, b in zip(subjects, u, v)]
    _write_rows(out_path, ("subject", "u", "v"), rows)


def write_fit_csv(fit, n, out_path):
    se_mu, se_w2 = fit.wald_se if fit.wald_se is not None else (None, None)
    boundary = "|".join(sorted(fit.boundary)) if fit.boundary else "-"
    _write_rows(
        out_path,
        ("n", "mu_hat", "omega2_hat", "loglik", "score_norm",
         "boundary", "se_mu", "se_omega2", "iterations"),
        [(str(n), _cell(fit.theta_hat.mu), _cell(fit.theta_hat.omega2), _cell(fit.loglik),
          _cell(fit.score_norm), boundary, _cell(se_mu), _cell(se_w2), str(fit.iterations))],
    )


def _parse_float(token, line, what):
    try:
        x = float(token)
    except ValueError:
        raise IngestError(f"{what} is not a number: {token!r}", line=line)
    if not math.isfinite(x):
        raise IngestError(f"{what} is not finite", line=line)
    return x


def _parse_int(token, line, what):
    try:
        return int(token)
    except ValueError:
        raise IngestError(f"{what} is not an integer: {token!r}", line=line)


def read_paths_csv(in_path):
    """Parse a subject,k,t,x file back into Path objects.

    Per subject: k must count 0,1,2,... in file order, t must start at 0
    and strictly increase. Rows of different subjects may interleave.
    Returns paths sorted by subject id; phi and seed are unknown for
    external data and left as None.
    """
    by_subject = {}
    with open(in_path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    header, *lines = re.split(rb"\r\n|\r|\n", data)
    if header != b"subject,k,t,x":
        raise IngestError(
            "expected header 'subject,k,t,x'", line=1
        )
    for line_no, raw in enumerate(lines, start=2):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise IngestError(f"byte 0x{raw[err.start]:02x} is not UTF-8", line=line_no)
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 4:
            raise IngestError(
                f"expected 4 fields, got {len(parts)}",
                line=line_no,
            )
        subject = _parse_int(parts[0], line_no, "subject")
        if subject < 0:
            raise IngestError("subject must be >= 0", line=line_no)
        k = _parse_int(parts[1], line_no, "k")
        t = _parse_float(parts[2], line_no, "t")
        x = _parse_float(parts[3], line_no, "x")
        rec = by_subject.setdefault(subject, {"t": [], "x": []})
        if k != len(rec["t"]):
            raise IngestError(
                f"subject {subject} expected k={len(rec['t'])}, got {k}",
                line=line_no,
            )
        if k == 0:
            if t != 0.0:
                raise IngestError(
                    f"subject {subject} must start at t=0",
                    line=line_no,
                )
        elif not t > rec["t"][-1]:
            raise IngestError(
                f"subject {subject} time must increase "
                f"(t={t!r} after t={rec['t'][-1]!r})",
                line=line_no,
            )
        rec["t"].append(t)
        rec["x"].append(x)
    if not by_subject:
        raise IngestError("no data rows", line=1)
    paths = []
    for subject in sorted(by_subject):
        rec = by_subject[subject]
        if len(rec["t"]) < 2:
            raise IngestError(f"subject {subject} has fewer than 2 points")
        paths.append(Path(
            times=np.array(rec["t"]),
            values=np.array(rec["x"]),
            x0=rec["x"][0],
            phi=None,
            seed=None,
            subject_index=subject,
        ))
    return paths
