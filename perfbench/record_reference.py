#!/usr/bin/env python3
"""Record the held-out quality of the declared seeds into reference.json.

    python3 perfbench/record_reference.py

run.py compares the quality of every run on a declared seed with these
numbers, exactly, when the BLAS thread count and kernel match the ones
recorded here.  Re-record only with a change that is meant to move
quality, and say so in that change.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    run.load_package()
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    blas = run.blas_info()
    reference["blas"] = {"threads": blas["threads"], "core": blas["core"]}
    reference["quality"] = {}
    for name in run.WORKLOAD_NAMES:
        recorded = reference["quality"][name] = {}
        for seed in reference["seeds"][name].values():
            workload = run.make_workload(name, seed)
            try:
                workload.setup()
                result = workload.check(workload.run_pass())
            finally:
                run.remove_workdir(workload)
            recorded[str(seed)] = result.quality
            print(f"{name} seed {seed}: {result.quality}")
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
