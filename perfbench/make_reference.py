"""Regenerate ``reference.json``, the stored answers every run is checked
against.

Usage: ``python perfbench/make_reference.py``

Runs each Table II operation once and every ``service_mix`` pool entry
once, in process, through ``repro.api`` (a fresh ``AnalysisSession`` for
the pool, so the daemon's replies are checked against the in-process
path).  Regenerate only when a change is *meant* to alter the answers,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro.api as api
    import mix
    import workloads

    ref: dict = {}
    for name, build in workloads.BATCH.items():
        ops = build(api)
        ref[name] = {op: workloads.answer(op, call())
                     for op, call in ops.items()}
        print(name, json.dumps(ref[name]), flush=True)

    session = api.AnalysisSession()
    pool = mix.build_pool(api)
    service = {}
    for label, request in sorted(pool.items()):
        reply = (api.run_shard(request) if label.startswith("shard-")
                 else session.run(request))
        service[label] = mix.answer(label, reply)
    ref["service_mix"] = service
    print(f"service_mix: {len(service)} pool entries", flush=True)

    with open(HERE / "reference.json", "w") as fh:
        json.dump(json.loads(json.dumps(ref)), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
