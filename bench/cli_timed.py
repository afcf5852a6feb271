"""One calibrated CLI call: ``python -m ellipsum.cli`` with calibration
samples (see ``calib.py``).

    python3 bench/cli_timed.py SAMPLES_PATH SUBCOMMAND [ARGS ...]
    python3 bench/cli_timed.py SAMPLES_PATH --import-only

Runs the ``ellipsum.cli`` module as ``__main__`` exactly as ``-m`` does (same
stdout and exit code), or only imports it, and writes the samples and the
time they took to SAMPLES_PATH.
"""

import runpy
import sys

import calib


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    sampler = calib.Sampler().start()
    code = 0
    try:
        if argv == ["--import-only"]:
            import ellipsum.cli  # noqa: F401
        else:
            sys.argv = [sys.argv[0], *argv]
            runpy.run_module("ellipsum.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        sampler.stop()
        sampler.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
