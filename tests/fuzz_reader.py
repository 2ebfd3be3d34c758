"""Fuzz read_paths_csv against the per-line reference reader.

Generates paths.csv files with test_io's strategy (interleaved subjects,
ids past int64, blank lines, any line ending, an optional byte order
mark, up to three of the valid cell spellings in test_io._SPELLINGS, on
which numpy's tokenizer and int or float may disagree, and up to two of
the faults in test_io._FAULTS, a byte that is not UTF-8 among them),
reads each with the per-line reader in tests/io_reference.py and with
read_paths_csv at every block size in BLOCK_SIZES, and reports every
file on which the two differ: in the paths read, or in the line or
message of the IngestError raised. pytest does not collect this file;
test_io runs the same comparison on a few hundred files.

    python tests/fuzz_reader.py [--examples N] [--seed S]

prints the number of files, how many of them the reference refused, and
each mismatch; it exits 1 if there was one. Run it with the package
importable, e.g. PYTHONPATH=src.
"""

import argparse
import os
import sys
import tempfile
import time
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import io_reference as reference  # noqa: E402
from hypothesis import HealthCheck, Phase, given, seed, settings  # noqa: E402
from test_io import _FAULTS, _outcome, _path_files  # noqa: E402

from sde_remle import io as sde_io  # noqa: E402

BLOCK_SIZES = (1, 7, 24, 64, 1 << 16)


def fuzz(examples, random_seed, path):
    """Compare the two readers on examples generated files written to
    path; returns (files, refused, mismatches)."""
    files, refused, mismatches = 0, 0, []

    @seed(random_seed)
    @settings(max_examples=examples, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(_path_files())
    def run(text):
        nonlocal files, refused
        with open(path, "wb") as fh:
            fh.write(text.encode(errors="surrogateescape"))
        want = _outcome(reference.read_paths_csv, path)
        files += 1
        refused += want[0] == "error"
        for block_chars in BLOCK_SIZES:
            try:
                with mock.patch.object(sde_io, "_BLOCK_CHARS", block_chars):
                    got = _outcome(sde_io.read_paths_csv, path)
            except Exception as err:  # anything but an IngestError is a mismatch
                got = ("raised", repr(err))
            if got != want:
                mismatches.append((text, block_chars, got, want))

    run()
    return files, refused, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(f"faults: {', '.join(sorted(_FAULTS))}; block sizes: {BLOCK_SIZES}")
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        files, refused, mismatches = fuzz(args.examples, args.seed,
                                          os.path.join(tmp, "paths.csv"))
    for text, block_chars, got, want in mismatches:
        print(f"MISMATCH at block size {block_chars}: {text!r}\n"
              f"  read_paths_csv: {got}\n  reference:      {want}")
    print(f"{files} files, {refused} refused by the reference, {files - refused} read; "
          f"{len(mismatches)} mismatches ({time.perf_counter() - t0:.0f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
