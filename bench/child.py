"""Run one boxlift CLI command in this fresh process and record its cost.

    python3 bench/child.py RESULT.json [--spans SPANS.jsonl] -- <boxlift args>

The benchmark starts one of these per timed command, one after another.
Writes RESULT.json with the monotonic clock reading right after
``import boxlift`` (the parent subtracts its own reading from before the
spawn to get the set-up time), the wall time of ``cli_main``, its exit code,
this process's peak RSS, the number of masks actually decoded, and the
speed ticks (see ``_tick``) taken during the import and during the command.
With ``--spans`` the command runs under the tracer and its spans are
written there.
"""

import signal
import sys
import time

# numpy before the ticks start so they can run during the rest of the
# import; boxlift imports numpy anyway, so setup_s covers the same work.
import numpy as np

TICK_INTERVAL_S = 0.05
_ROT = np.eye(3)
_CORNERS = np.arange(24.0).reshape(8, 3)
_ticks: list[tuple[float, float]] = []   # (start, duration), perf_counter seconds


def _tick(signum, frame):
    """Time a fixed loop of small numpy calls and Python arithmetic, 20 times a second.

    The shared host's CPU speed drifts by tens of percent within a second,
    on wall and CPU clocks alike.  The loop has the mix of the pipeline's
    inner loops but no boxlift code, so its time follows the machine's
    speed and nothing a change to the program could move; the parent
    divides it out.  It runs between bytecodes of whatever this process is
    doing, on the same core, and costs about 3%.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(100):
        cam = (_CORNERS - i) @ _ROT
        acc += float(cam[:, 0].min()) + float(cam[:, 1].max())
        for j in range(40):
            acc += j * 0.5
    _ticks.append((start, time.perf_counter() - start))


signal.signal(signal.SIGALRM, _tick)
signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

import boxlift  # noqa: E402,F401  -- the import whose cost is setup_s

IMPORTED_AT = time.monotonic()
IMPORTED_PC = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

from boxlift import masks  # noqa: E402
from boxlift.cli import cli_main  # noqa: E402


def _ticks_between(start: float, end: float) -> list[float]:
    return [d for t, d in _ticks if start <= t < end]


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    result_path = own[0]
    spans_path = own[2] if len(own) > 2 and own[1] == "--spans" else None

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(cli_main, "cli.cli_main")
    else:
        run = cli_main
    misses = masks._decode_cached.cache_info().misses
    start = time.perf_counter()
    try:
        code = run(cli_args)
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(spans_path)
    result = {
        "imported_at": IMPORTED_AT,
        "import_ticks": _ticks_between(0.0, IMPORTED_PC),
        "run_s": end - start,
        "run_ticks": _ticks_between(start, end),
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mask_decodes": masks._decode_cached.cache_info().misses - misses,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
