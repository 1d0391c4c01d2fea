"""Exit 1 unless every named metric of a benchmark result is non-zero.

    python3 scripts/require_nonzero.py RESULT.json METRIC [METRIC ...]

RESULT.json holds the last line `perfbench/run.py` prints. In a traced run a
trainer's span reads 0 when the trainer was called past the module attribute
the tracer wraps, for one by a reference kept from before the wrap.
"""

import json
import sys


def main(argv):
    path, names = argv[0], argv[1:]
    with open(path, encoding="utf-8") as fh:
        metrics = json.load(fh)["metrics"]
    zero = [name for name in names if not metrics.get(name, {}).get("value")]
    for name in zero:
        print(f"{path}: {name} reads 0 or is missing", file=sys.stderr)
    return 1 if zero else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
