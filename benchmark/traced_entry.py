"""Run one tanglekit command with outside-in spans installed.

    python3 benchmark/traced_entry.py SPANS_JSON OP_ID -- <tanglekit argv>

Installs the wrappers from ``tracer``, calls ``tanglekit.cli.main(argv)``,
writes the op's spans to SPANS_JSON when the command returns or raises, and
exits with the command's exit code.
"""

import sys
from collections import Counter

import tracer


def main():
    spans_path, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_entry.py SPANS_JSON OP_ID -- ARGV...")
    recorder = tracer.Recorder(op)
    counts = Counter(oriented_built=0, orientations_enumerated=0,
                     submodularity_repeats=0)
    tracer.install(recorder, counts)
    from tanglekit import cli
    try:
        code = cli.main(argv)
    finally:
        recorder.dump(spans_path, counts)
    sys.exit(code)


if __name__ == "__main__":
    main()
