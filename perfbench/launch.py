"""Run the fedsim CLI in a fresh process and note when its set-up ends.

Usage: python3 perfbench/launch.py MARKS_JSON <fedsim arguments...>

Behaves as ``python3 -m fedsim.cli <fedsim arguments...>`` and exits with its
code. It also writes MARKS_JSON with CLOCK_MONOTONIC readings (comparable
across processes): ``main`` when the CLI entry point starts (imports done),
``first_call`` at the first call into the engine or bounds layer or, for a
sweep, when the first grid point is handed to the process pool, and
``main_end`` when the entry point returns. Nothing else is wrapped.
"""

import json
import sys
import time


def main() -> int:
    marks_path, argv = sys.argv[1], sys.argv[2:]
    from fedsim import cli

    marks: dict[str, float] = {}

    def first_call(fn):
        def marked(*args, **kwargs):
            marks.setdefault("first_call", time.monotonic())
            return fn(*args, **kwargs)

        return marked

    for name in ("run_experiment", "verify_theorem1"):
        setattr(cli, name, first_call(getattr(cli, name)))

    class MarkedPool(cli.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            marks.setdefault("first_call", time.monotonic())
            return super().submit(*args, **kwargs)

    cli.ProcessPoolExecutor = MarkedPool

    marks["main"] = time.monotonic()
    code = cli.main(argv)
    marks["main_end"] = time.monotonic()
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
