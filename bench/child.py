"""One benchmark child: run an fchsim scenario through its command line entry
point in a fresh process, and write what the parent cannot see from outside.

    python3 bench/child.py RECORD TRACE -- SCENARIO [fchsim options...]

RECORD is the JSON file written at exit; TRACE is 1 for a traced child, whose
FFT counter is installed before fchsim is imported.  The exit code is the one
``fchsim.cli.main`` returns.
"""

import json
import os
import sys

import tracing


def main(argv):
    if len(argv) < 4 or argv[1] not in ("0", "1") or argv[2] != "--":
        raise SystemExit("usage: child.py RECORD TRACE(0|1) -- SCENARIO [options]")
    record_path, traced, cli_args = argv[0], argv[1], argv[3:]
    tracer = tracing.Tracer()
    if traced == "1":
        tracing.install_fft_counter(tracer)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import fchsim.cli
    import fchsim.experiments  # noqa: F401  (loads every module the runners use)

    tracing.instrument(tracer, tracing.TRACED if traced == "1" else tracing.UNTRACED)
    code = fchsim.cli.main(cli_args)
    with open(record_path, "w") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
