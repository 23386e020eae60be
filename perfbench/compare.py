"""Compare the behaviour digests of two checkouts on the same seed.

    python3 perfbench/compare.py BASE NEW --workload paper-loo --seed 0

Runs this directory's run.py from the root of each checkout, so both
sides are measured and checked by the same benchmark code, and compares
what each run recorded: the forecaster indices selected by every model
and every leave-one-out fold, the predicted labels, and every error
count.  Make BASE from the parent commit, for instance with
``git archive <commit> | tar -x -C <dir>``; no reference output is kept
in the repository.  Exits 0 when the digests are identical and 1 with
the first differing op when they are not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def digest_of(checkout: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: run failed ({done.returncode})\n{done.stderr}")
    with open(checkout / ".bench_build" / "perfbench" / f"digest-{workload}-s{seed}.json",
              encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two checkouts' behaviour digests.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    base, new = (digest_of(path.resolve(), args.workload, args.seed)
                 for path in (args.base, args.new))
    for op in sorted(set(base["ops"]) | set(new["ops"])):
        if base["ops"].get(op) != new["ops"].get(op):
            print(f"{args.workload} seed {args.seed}: {op} differs")
            for key in sorted(set(base["ops"].get(op, {})) | set(new["ops"].get(op, {}))):
                a, b = base["ops"].get(op, {}).get(key), new["ops"].get(op, {}).get(key)
                if a != b:
                    print(f"  {key}: {str(a)[:200]} != {str(b)[:200]}")
            return 1
    print(f"{args.workload} seed {args.seed}: digests identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
