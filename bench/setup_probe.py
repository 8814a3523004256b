#!/usr/bin/env python3
"""One set-up probe: a fresh process that runs a fovalign command up to its
first useful step and prints the `time.perf_counter()` reading there.

    python3 bench/setup_probe.py COMMAND --config config.json

COMMAND is `train` (stops at the first `Trainer.train_epoch`) or `evaluate`
(stops at `encode_pairs`). The reading is on the system-wide monotonic
clock, so the parent that started this process subtracts its own start
time from it and gets process start through import, config, data and
checkpoint load and trainer construction. Exits 1 when the command ends
before its first useful step.
"""

import contextlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fovalign.alignment  # noqa: E402
import fovalign.cli  # noqa: E402
from tracer import Patches  # noqa: E402


class Reached(Exception):
    pass


def reached(*args, **kwargs):
    raise Reached


def main(argv: list[str]) -> int:
    with Patches() as patches:
        if argv[0] == "train":
            patches.set(fovalign.alignment.Trainer, "train_epoch", reached)
        else:
            patches.everywhere(fovalign.alignment.encode_pairs, reached)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = fovalign.cli.main(argv)
        except Reached:
            print(repr(time.perf_counter()))
            return 0
    print(f"`fovalign {' '.join(argv)}` ended with {code} before its first useful step",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
