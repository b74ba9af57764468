"""Every truncation and single-bit flip of test_fuzz's five files, read back.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_formats.py > sweep.txt

It prints one line per case, `<file> <damage> <crc>: <outcome>`, where the
outcome is `loaded` or the error type and its byte offset; VIDX files are
tried with the stored CRC and with a recomputed one. Diffing the output of
two versions shows every case whose outcome moved. The exit status is 1 if
any case neither loads into a usable object nor fails with a typed error
that carries an offset. pytest does not collect this file (it matches no
`test_*.py`): the sweep takes about half a minute.
"""

import os
import pathlib
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_fuzz import FVB, VIDX, _vectors, load_damaged, undamaged  # noqa: E402

from vse import FvbFormatError, VidxFormatError, search_any  # noqa: E402


def outcome(name, cut, flip, fix_crc, directory):
    """`loaded`, or the typed error and its offset; anything else raises."""
    error = VidxFormatError if name in VIDX else FvbFormatError
    try:
        loaded = load_damaged(name, cut, flip, fix_crc, directory)
    except error as exc:
        if exc.offset is None:
            raise AssertionError(f"{type(exc).__name__} without an offset: {exc}") from None
        return f"{type(exc).__name__} @ {exc.offset}"
    if name in VIDX:
        assert len(search_any(loaded, _vectors()[:1], 1, nprobe=1)) == 1
    else:
        assert loaded.vectors.shape == (6, 4)
    return "loaded"


def cases():
    for name, blob in undamaged().items():
        for fix_crc in (False, True) if name in VIDX else (False,):
            for cut in range(len(blob)):
                yield name, cut, None, fix_crc
            for flip in range(8 * len(blob)):
                yield name, None, flip, fix_crc


def main() -> int:
    bad = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        for name, cut, flip, fix_crc in cases():
            damage = f"cut {cut}" if cut is not None else f"flip {flip}"
            crc = "crc fixed" if fix_crc else "crc kept"
            total += 1
            try:
                result = outcome(name, cut, flip, fix_crc, directory)
            except Exception as exc:  # the sweep reports every failure kind
                bad += 1
                result = f"BAD {type(exc).__name__}: {exc}"
                print(f"{name} {damage} {crc}: {result}", file=sys.stderr)
            print(f"{name} {damage} {crc}: {result}")
    print(f"{total} cases, {bad} bad", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
