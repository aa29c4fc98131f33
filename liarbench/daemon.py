"""Run ``repro serve`` with the server and api layers wrapped.

    python3 liarbench/daemon.py COUNTERS.json serve --config serve.toml

Used by the traced serve-mixed run: the daemon's request handling
(``OptimizationServer.handle_request``, ``JobQueue._execute``) and its
calls into the session (``Session.optimize_many``) accumulate counts,
seconds and per-layer self time, written to ``COUNTERS.json`` when the
daemon shuts down.  Saturation itself runs in the daemon's fork pool,
whose workers are not traced.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_program  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    import_program()
    import layers
    from repro.cli import main as repro_main

    recorder = layers.Recorder("serve")
    layers.install(recorder, layers=("server", "api"))
    try:
        return repro_main(sys.argv[2:])
    finally:
        out.write_text(json.dumps({
            "layer_self": recorder.layer_self,
            "counters": {name: {"calls": c.calls, "seconds": c.seconds,
                                "self_seconds": c.self_seconds}
                         for name, c in recorder.counters.items()},
        }))


if __name__ == "__main__":
    sys.exit(main())
