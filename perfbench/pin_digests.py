"""Recompute digests.json: the SHA-256 of permute's augmented CoNLL-U for
each workload and seed in a range.

    python3 perfbench/pin_digests.py 0 50

The benchmark fails a run whose augmented output differs from its pin, so
a change to scrambleparse must reproduce these bytes. Re-pin only when the
benchmark's own input generation changes on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main(argv) -> int:
    lo, hi = (int(a) for a in argv)
    cli = run.import_program()
    import workloads

    path = Path(__file__).parent / "digests.json"
    pins = json.loads(path.read_text())
    for name, w in workloads.WORKLOADS.items():
        for seed in range(lo, hi):
            f = workloads.Files(run.WORK / name)
            shutil.rmtree(f.root, ignore_errors=True)
            workloads.write_inputs(w, f, seed)
            stages = workloads.chain(w, f, seed)
            run.run_chain(cli, stages[:[s.name for s in stages].index("permute") + 1])
            pins.setdefault(name, {})[str(seed)] = workloads.digest(f.augmented)
        pins[name] = dict(sorted(pins[name].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
