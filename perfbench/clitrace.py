"""Run one flattop CLI command in this process with every layer traced.

    python perfbench/clitrace.py TOTALS.json SPANS.npz -- ARGV...

Behaves like ``python -m flattop.cli ARGV...`` (same stdout and exit
code) and, when the command ends, writes the span totals and the spans.
``flattop`` must be importable (``PYTHONPATH=src``).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, dump_totals  # noqa: E402


def main() -> int:
    totals_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    from flattop import cli

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.uninstall()
        sys.stdout.flush()
        dump_totals(tracer.totals(), totals_path)
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
