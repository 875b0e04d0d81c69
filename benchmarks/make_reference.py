#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks against.

    python3 benchmarks/make_reference.py [--size full|tiny] [workload ...]

Each workload's canonical instance (identity node labels) is solved once with
the package in this checkout, and its per-operation records are written to
``benchmarks/reference/<workload>.<size>.json``.  Regenerate only when the
package's outputs are meant to change.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gsp
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("names", nargs="*", default=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    for name in args.names:
        workload = workloads.WORKLOADS[name](args.size)
        with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
            inputs, _ = workload.setup(None, workdir)
            records = workload.summarize(inputs, workload.run(inputs))
        broken = [r for r in records if "error" in r or r["problems"]]
        if broken:
            print(f"{name}: not writing a reference, failed operations: {broken}",
                  file=sys.stderr)
            return 1
        for r in records:
            del r["problems"]
        ref = {"workload": name, "size": args.size, "params": workload.params,
               "package_version": gsp.__version__, "ops": records}
        path = workloads.REFERENCE_DIR / f"{name}.{args.size}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)} ({len(records)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
