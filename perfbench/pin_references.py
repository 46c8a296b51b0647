"""Regenerate ``references.json``: cold objectives for the default inputs.

    python3 perfbench/pin_references.py

Every op of every workload is re-solved from scratch at its workload's
default input seed, and the objectives are written next to this file.
The benchmark checks each op against these pinned values; inputs without
pinned values get their references from the same cold re-solves at run
time, outside set-up and timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main() -> int:
    pinned: dict[str, dict[str, dict[str, float]]] = {}
    for name in workloads.WORKLOADS:
        seed = workloads.DEFAULT_INPUT[name]
        prepared = workloads.build(name, seed)
        pinned[name] = {
            str(seed): {op.key: op.cold() for op in prepared.ops}
        }
        print(f"{name}: pinned {len(prepared.ops)} objectives")
    path = HERE / "references.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
