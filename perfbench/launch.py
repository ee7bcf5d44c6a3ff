"""Run one `semshot.cli` command with the benchmark's span wrappers installed.

    python perfbench/launch.py SPANS_FILE COMMAND [ARGS...]

Imports semshot from the checkout's ``src/``, wraps its public functions as
`tracer.install` does for the in-process workloads, calls
``semshot.cli.main`` and writes the spans to SPANS_FILE (``.npz``) when the
command returns.  The exit code is the command's.  ``PERFBENCH_UNIT`` in the
environment tags every span with the repeat it belongs to.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    import semshot

    where = Path(semshot.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"launch: semshot resolves to {where}, outside {SRC}", file=sys.stderr)
        return 3
    import tracer as tr

    tracer = tr.install(tr.Tracer())
    tracer.unit_id = int(os.environ.get("PERFBENCH_UNIT", "-1"))
    from semshot import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
