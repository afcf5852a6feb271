"""One traced CLI call: the ``ellipsum`` command with spans around the
library's public functions.

    python3 bench/cli_trace.py SPANS_PATH SUBCOMMAND [ARGS ...]

Behaves like ``python3 -m ellipsum.cli SUBCOMMAND ARGS`` (same stdout and
exit code) and writes the spans of ``cli.run`` and everything below it to
SPANS_PATH.
"""

import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ellipsum.cli as cli

    rec = tracer.install()
    rec.on = True
    try:
        rc = cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    finally:
        rec.on = False
        rec.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
