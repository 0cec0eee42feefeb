"""One benchmark child process: set-up, then at most one CLI job.

Usage: python3 bench/child.py REQUEST_JSON

The request holds `spawned_at` (the parent's time.monotonic() just before
it started this process), `result` (where to write the result JSON), and
optionally `argv` (the job, run through detangle.cli.cli), `trace` and
`job`. Set-up is everything from process start through `import detangle`
and one tiny probe trained, which starts the BLAS library's threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _set_up() -> None:
    import numpy as np

    import detangle

    rng = np.random.default_rng(0)
    features = rng.standard_normal((64, 4))
    detangle.train_probe(features, (features[:, 0] > 0).astype(int), config=detangle.TrainConfig(epochs=1))


def _run_job(argv: list[str], trace: bool, job: int) -> dict:
    from detangle.cli import cli

    tracer = restore = None
    if trace:
        import tracing

        tracer = tracing.Tracer(job)
        restore = tracing.install(tracer)
    stdout = io.StringIO()
    error = None
    exit_code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                exit_code = cli(argv)
            else:
                with tracer.span(tracing.ROOT_SPAN):
                    exit_code = cli(argv)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    if restore is not None:
        restore()
    return {
        "wall_s": wall_s,
        "exit_code": exit_code,
        "error": error,
        "stdout": stdout.getvalue(),
        "spans": tracer.spans if tracer else None,
    }


def _peak_rss_mb() -> float:
    """This process's peak resident memory since exec (VmHWM).

    ru_maxrss is not used: Linux carries the parent's peak across exec into
    it, so a child would report at least the benchmark parent's memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    _set_up()
    result = {"setup_s": time.monotonic() - request["spawned_at"]}
    if request.get("argv") is not None:
        result.update(_run_job(request["argv"], bool(request.get("trace")), int(request.get("job", 0))))
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
