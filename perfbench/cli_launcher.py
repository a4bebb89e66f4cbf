"""Traced stand-in for `python -m qideal.cli`.

Usage: python perfbench/cli_launcher.py SPANS_DIR [qideal arguments...]

Installs the layer wrappers, calls `qideal.cli.main` with the remaining
arguments, writes the spans into SPANS_DIR and exits with main's code.
"""

import sys

from spans import Tracer


def main():
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    import qideal.cli

    try:
        code = qideal.cli.main(argv)
    finally:
        tracer.dump(spans_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
