"""Entry point of the gateway process the served workloads talk to.

Started by :class:`workloads.GatewayProcess` as a plain child process::

    python3 perfbench/gateway_main.py WORKDIR N_WORKERS TRACED

It boots ``repro.net.serve_forever`` over a store and a records
directory inside ``WORKDIR``, writes one line ``READY_PREFIX <json>``
with the host and port to its standard output once listening, and
serves until its standard input reaches end of file.  Then it writes
``gateway_report.json`` into ``WORKDIR``: its own peak RSS and, in a
traced run, every span it recorded.

A plain child (not ``multiprocessing``) keeps the benchmark's process
tree to exactly the processes it waits for: ``multiprocessing`` queues
and events start a resource-tracker process that outlives the parent.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import spans  # noqa: E402

READY_PREFIX = "perfbench-gateway-ready"


def serve(workdir: str, n_workers: int, traced: bool) -> None:
    # The ready line goes to the real standard output; anything else the
    # process prints goes to standard error, so the parent's pipe never
    # fills up unread.
    ready_out = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def ready(info: dict) -> None:
        ready_out.write(f"{READY_PREFIX} {json.dumps(info)}\n")
        ready_out.flush()
        ready_out.close()

    stop = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.buffer.read()
        stop.set()

    threading.Thread(target=wait_for_eof, name="perfbench-stdin", daemon=True).start()

    tracer = spans.install(spans.Tracer(prefix="g")) if traced else None
    from repro.net.server import serve_forever

    root = pathlib.Path(workdir)
    serve_forever(
        store=root / "store",
        records=root / "records",
        ready=ready,
        stop=stop,
        n_workers=n_workers,
    )
    report = {
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.records() if tracer is not None else [],
    }
    (root / "gateway_report.json").write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore", DeprecationWarning)
    serve(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
