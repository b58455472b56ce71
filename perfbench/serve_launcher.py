"""Start ``repro serve`` in this process, optionally with tracing installed.

Usage: ``serve_launcher.py --trace 0|1 <repro CLI arguments...>``

With ``--trace 1`` the benchmark's wrappers are installed before the CLI
builds the session, and the line-JSON server answers two more ops, both
owned by the benchmark:

``perfbench.trace``  ``enabled: bool`` turns span recording on or off
``perfbench.spans``  the recorded spans, returned in the ``trace`` field

Then control passes to the CLI's own ``serve`` entry point.
"""

from __future__ import annotations

import sys

from tracing import Recorder, install


def _add_bench_ops(recorder: Recorder) -> None:
    from repro.serve.api import SessionServer

    handle = SessionServer.handle

    def bench_handle(self, request):
        op = request.get("op")
        if op == "perfbench.trace":
            recorder.enabled = bool(request.get("enabled"))
            return {"ok": True, "enabled": recorder.enabled}
        if op == "perfbench.spans":
            return {"ok": True, "trace": recorder.export()}
        return handle(self, request)

    SessionServer.handle = bench_handle


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace" or argv[1] not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "1":
        recorder = Recorder("serve")
        install(recorder)
        _add_bench_ops(recorder)
    from repro.cli import main as cli_main

    return cli_main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
