"""Run ``python -m repro.service`` with the engine layers traced.

Usage: ``python perfbench/daemon.py --spans FILE [daemon args...]``

Installs the tracer of :mod:`layers` (engine layers plus the daemon's
request decode / handling / serialization), then runs the
``repro.service`` entry point exactly as ``python -m`` would.  When the
daemon stops (SIGINT), the recorded spans are written to ``FILE``.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        raise SystemExit("usage: daemon.py --spans FILE [daemon args...]")
    spans_path = sys.argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    layers.install_server(tracer)
    sys.argv = [sys.argv[0]] + sys.argv[3:]
    try:
        runpy.run_module("repro.service", run_name="__main__",
                         alter_sys=True)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
