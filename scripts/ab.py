"""A/B the benchmark between two revisions: alternating pairs, one verdict per metric.

    python3 scripts/ab.py --base REV --head REV --workload W --pairs N \\
        --seeds 1 7 [--seconds S] [--out ab.json]

The committed files of each revision of the checkout this script sits in
are exported with `git archive` into a directory of their own, and
`perfbench/run.py --trace 0` runs there (the benchmark and the package
both come from that revision), for `--seconds` of pipeline time, by
default the base's `BENCHMARK.json` `run_seconds`. Pair k runs both
sides at seed `seeds[(k // 2) % len(seeds)]`, base first in even pairs and
head first in odd ones, so every seed sees both orders. Every run must be
`correct` with 0 failed operations, or the script stops with exit code 1.

Per end-to-end metric of the base's `BENCHMARK.json` it prints each side's
median and quartiles, the change of the median in percent, the pairs in
which head is better, the base's interquartile range (IQR), and a verdict
(`verdict`). The raw pairs and the summary are written as JSON.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a change resolves when head wins (or loses) at least this share of the
# pairs, and its median gap exceeds the base IQR; never on fewer pairs
RESOLVE_SHARE = 0.9
MIN_PAIRS = 5


def quartiles(values):
    """(q1, median, q3); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    """One metric's summary over paired runs: `base[k]` and `head[k]` ran together.

    `resolved gain` (or `resolved loss`): head is better (worse) in at least
    `RESOLVE_SHARE` of at least `MIN_PAIRS` pairs, and the medians differ by
    more than the base IQR. Otherwise `within bound` when the median moved
    the wrong way by at most `bound` (a share of the base median) and the
    base IQR is at most `bound` of its median, else `unresolved`.
    """
    n = len(base)
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    iqr = b3 - b1
    if bm:
        change, spread = (hm - bm) / abs(bm), iqr / abs(bm)
    else:
        change, spread = (0.0 if hm == 0 else math.copysign(math.inf, hm)), 0.0
    need = max(MIN_PAIRS, math.ceil(RESOLVE_SHARE * n))
    gap = abs(hm - bm) > iqr
    if wins >= need and gap:
        said = "resolved gain"
    elif losses >= need and gap:
        said = "resolved loss"
    elif sign * change <= bound and spread <= bound:
        said = "within bound"
    else:
        said = "unresolved"
    return {"pairs": n, "base_median": bm, "base_q1": b1, "base_q3": b3,
            "head_median": hm, "head_q1": h1, "head_q3": h3,
            "change_pct": 100 * change, "wins": wins, "losses": losses,
            "base_iqr": iqr, "bound": bound, "verdict": said}


def export(repo, rev, where):
    """Extract `rev`'s committed tree into `where`; returns the full commit id."""
    commit = subprocess.run(["git", "-C", repo, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(where)
    archive = subprocess.Popen(["git", "-C", repo, "archive", "--format=tar", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", where], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"ab.py: git archive {commit} failed")
    return commit


def run_once(checkout, workload, seed, seconds):
    """The result line of one untraced benchmark run in `checkout`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode or not result.get("correct") or result.get("failed") != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ab.py: {checkout}: seed {seed}: exit code {proc.returncode}, "
                         f"correct {result.get('correct')}, failed {result.get('failed')}")
    return result


def summarize(pairs, end_to_end):
    return {m["name"]: verdict([p["base"]["metrics"][m["name"]]["value"] for p in pairs],
                               [p["head"]["metrics"][m["name"]]["value"] for p in pairs],
                               m["better"], m["bound"])
            for m in end_to_end}


def table(summary) -> str:
    head = ("metric", "base median [q1, q3]", "head median [q1, q3]", "change",
            "wins", "base IQR", "verdict")
    rows = [head]
    for name, s in summary.items():
        rows.append((name, f"{s['base_median']:.4g} [{s['base_q1']:.4g}, {s['base_q3']:.4g}]",
                     f"{s['head_median']:.4g} [{s['head_q1']:.4g}, {s['head_q3']:.4g}]",
                     f"{s['change_pct']:+.1f}%", f"{s['wins']}/{s['pairs']}",
                     f"{s['base_iqr']:.4g}", s["verdict"]))
    widths = [max(len(r[c]) for r in rows) for c in range(len(head))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--head", required=True, help="git revision of the changed side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float,
                    help="pipeline seconds per run (default: the base's BENCHMARK.json)")
    ap.add_argument("--out", default=None, help="raw pairs as JSON (default ab_<workload>.json)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out = args.out or f"ab_{args.workload}.json"

    work = tempfile.mkdtemp(prefix="ab-")
    try:
        sides = {}
        for side in ("base", "head"):
            checkout = os.path.join(work, side)
            sides[side] = (export(REPO, getattr(args, side), checkout), checkout)
        with open(os.path.join(sides["base"][1], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        pairs = []
        for k in range(args.pairs):
            seed = args.seeds[(k // 2) % len(args.seeds)]
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            pair = {"pair": k, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side][1], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {k + 1}/{args.pairs}: seed {seed}, {order[0]} first", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(pairs, bench["end_to_end"])
    print(f"base {sides['base'][0][:12]}  head {sides['head'][0][:12]}  "
          f"{args.workload}, {args.pairs} pairs, seeds {' '.join(map(str, args.seeds))}, "
          f"--seconds {args.seconds:g}")
    print(table(summary))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"base": sides["base"][0], "head": sides["head"][0],
                   "workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
                   "pairs": pairs, "summary": summary}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
