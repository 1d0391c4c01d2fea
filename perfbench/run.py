"""Benchmark of the recsuite CLI pipeline on three seeded workloads.

    python3 perfbench/run.py --workload seq-narrow --seed 1 --seconds 20 --trace 0

Set-up generates the seeded corpus with `recsuite synth` (several times,
median reported). Each round then runs the pipeline a user runs, calling
`recsuite.cli.main` in this process: (`profile`), then per model `train`,
`eval` and `recommend` for a fixed sample of users. Rounds repeat until
`--seconds` of pipeline time are measured, and at least twice, so every run
can check that reruns write byte-identical artifacts. Round 0's outputs are
checked against computations made apart from the program (checks.py); later
rounds must match round 0 byte for byte.

With `--trace 1`, round 0 runs untraced and every later round runs with the
per-layer wrappers of tracer.py installed; the per-layer metrics are the
medians over the traced rounds, and spans.csv and counts.csv hold every span
and count. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Scratch output goes to
`.perfbench_out/<workload>/` at the root of the checkout, so two runs of one
workload must not overlap.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_ROUNDS = 2
SETUP_REPEATS = 5
RECOMMEND_USERS = 4
RECOMMEND_N = 10

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "train_s": "s", "eval_s": "s",
                    "recommend_ms": "ms", "peak_rss_mb": "MB", "ckpt_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    synth: tuple  # `recsuite synth` flags, without --seed and --out
    models: tuple  # (model, `train` flags) in training order
    profile: bool  # run `recsuite profile` first
    cutoffs: tuple  # ranking cutoffs passed to `eval`; empty for rating models
    planted: tuple  # checks.planted_problems arguments after `reports`


SEQ = ("--kind", "sequential", "--sessions-per-user", "5", "--session-len", "5",
       "--noise", "0.1")
# the default learning rate of 0.01 leaves CAN near popularity after one epoch
CAN_FLAGS = ("--k", "32", "--epochs", "1", "--lr", "0.05")

WORKLOADS = {
    # per-instance Python loops of DAS and CAN; catalog-sized layers are tiny
    "seq-narrow": Workload(
        synth=SEQ + ("--items", "50", "--users", "400"),
        models=(("das", ("--k", "32", "--epochs", "1")),
                ("can", CAN_FLAGS),
                ("top", ())),
        profile=False, cutoffs=(5, 10),
        planted=("recall", 10, "can", "top", 2.0)),
    # same generator and about the same event count over a catalog of ~4k
    # items: output layer, ranking and negative pools grow with the catalog
    "seq-wide": Workload(
        synth=SEQ + ("--items", "5000", "--users", "240"),
        models=(("das", ("--k", "32", "--epochs", "1")),
                ("can", CAN_FLAGS),
                ("bpr", ("--k", "16", "--epochs", "1"))),
        profile=False, cutoffs=(5, 10), planted=()),
    # no sequential code: trait scoring, the n x n similarity and APAR steps
    "trait-ratings": Workload(
        synth=("--kind", "personality", "--clusters", "5", "--users-per-cluster", "200",
               "--items-per-cluster", "40", "--rating-density", "0.6"),
        models=(("apar", ("--k", "16", "--epochs", "50")),
                ("usermean", ())),
        profile=True, cutoffs=(),
        planted=("mae", None, "apar", "usermean", 0.5)),
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(args):
    """Run one `recsuite` subcommand in this process: (ok, stdout, stderr)."""
    import click
    from recsuite.cli import main as recsuite

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = recsuite.main(args=list(args), prog_name="recsuite", standalone_mode=False)
        ok = code in (None, 0)
    except click.ClickException as exc:
        ok = False
        err.write(f"Error: {exc.format_message()}\n")
    except Exception as exc:  # a crash fails this operation, not the run
        ok = False
        err.write(f"{type(exc).__name__}: {exc}\n")
    return ok, out.getvalue(), err.getvalue()


def artifacts(wl):
    """Files of a round that reruns must write byte for byte."""
    rels = ["profile/profiles.csv"] if wl.profile else []
    for model, _ in wl.models:
        rels += [f"{model}/{model}.npz", f"{model}/{model}_trace.csv",
                 f"{model}-eval/report.csv"]
    return rels


@dataclass
class Round:
    pipeline_s: float = 0.0
    train_s: float = 0.0
    eval_s: float = 0.0
    recommend_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)  # artifact path -> sha256
    ckpt_bytes: int = 0
    listings: dict = field(default_factory=dict)  # (model, user) -> stdout
    errors: list = field(default_factory=list)


def run_round(wl, corpus, rdir, seed, users):
    """One pass of the pipeline; every stage is one operation."""
    rnd = Round()
    broken = set()

    def stage(args, needs=None):
        rnd.attempted += 1
        if needs in broken:
            rnd.failed += 1
            return False, "", "", 0.0
        t = time.perf_counter()
        ok, out, err = run_cli(args)
        dt = time.perf_counter() - t
        if not ok:
            rnd.failed += 1
            rnd.errors.append(f"{' '.join(args[:2])}: {err.strip()[-500:]}")
        return ok, out, err, dt

    s = str(seed)
    t0 = time.perf_counter()
    if wl.profile:
        stage(["profile", corpus, "--seed", s, "--out", os.path.join(rdir, "profile")])
    for model, flags in wl.models:
        mdir = os.path.join(rdir, model)
        ok, _, _, dt = stage(["train", corpus, "--model", model, *flags, "--seed", s,
                              "--out", mdir])
        rnd.train_s += dt
        if not ok:
            broken.add(model)
        ev = ["eval", os.path.join(mdir, f"{model}.npz"), corpus, "--seed", s,
              "--out", os.path.join(rdir, f"{model}-eval")]
        if wl.cutoffs:
            ev += ["--cutoffs", ",".join(map(str, wl.cutoffs))]
        ok, out, err, dt = stage(ev, needs=model)
        rnd.eval_s += dt
        if ok:
            # each eval instance is an operation too
            m = re.search(r"instances=(\d+)", out)
            lost = sum(1 for line in err.splitlines() if line.startswith("instance failed:"))
            rnd.attempted += (int(m.group(1)) if m else 0) + lost
            rnd.failed += lost
        for user in users:
            ok, out, _, dt = stage(["recommend", os.path.join(mdir, f"{model}.npz"), corpus,
                                    "--user", user, "-n", str(RECOMMEND_N)], needs=model)
            rnd.recommend_s.append(dt)
            rnd.listings[(model, user)] = out
    rnd.pipeline_s = time.perf_counter() - t0

    for rel in artifacts(wl):
        path = os.path.join(rdir, rel)
        if os.path.exists(path):
            rnd.digests[rel] = sha256(path)
            if path.endswith(".npz"):
                rnd.ckpt_bytes += os.path.getsize(path)
    return rnd


def check_outputs(wl, corpus, rdir, seed, listings):
    """Problems found in round 0's reports, traces, factors and listings."""
    from recsuite import checkpoint, data
    from recsuite.numeric import make_rng

    interactions, _ = data.ingest_csv(corpus)
    if wl.cutoffs:
        ds = data.Dataset.from_interactions(interactions)
        instances = checks.ranking_instances(ds, data.split(ds.sessions, "random-80-20",
                                                            make_rng(seed)))
        items, user_index = ds.items, ds.user_index
    else:
        matrix = data.RatingMatrix.from_interactions(interactions)
        _, test = data.split_ratings(matrix, 0.2, make_rng(seed))
        items, user_index = matrix.items, matrix.user_index

    problems, reports = [], {}
    for model, _ in wl.models:
        ck = checkpoint.load_checkpoint(os.path.join(rdir, model, f"{model}.npz"))
        with open(os.path.join(rdir, f"{model}-eval", "report.csv"), encoding="utf-8") as fh:
            got = checks.parse_report(csv.DictReader(fh))
        if wl.cutoffs:
            expected = checks.ranking_rows(ck.state.score_items, instances, len(items),
                                           wl.cutoffs)
        else:
            expected = checks.rating_rows(ck.state.predict_rating, test)
        problems += checks.report_problems(model, got, expected)
        reports[model] = got

        with open(os.path.join(rdir, model, f"{model}_trace.csv"), encoding="utf-8") as fh:
            values = [float(r["value"]) for r in csv.DictReader(fh)]
        problems += checks.trace_problems(model, values)
        if model == "apar":
            problems += checks.factor_problems(model, {"P": ck.state.P, "Q": ck.state.Q})

        for (m, user), out in listings.items():
            if m != model:
                continue
            u = user_index[user]
            if wl.cutoffs:
                scores = ck.state.score_items(u, *checks.recommend_inputs(ds, user))
            elif model == "apar":
                scores = ck.state.score_items(u, [], [])
            else:
                scores = [ck.state.predict_rating(u, j) for j in range(len(items))]
            problems += checks.listing_problems(f"recommend {model} {user}", out,
                                                scores, items, RECOMMEND_N)
    if wl.planted:
        problems += checks.planted_problems(reports, *wl.planted)
    return problems


def sample_users(corpus, seed):
    with open(corpus, newline="", encoding="utf-8") as fh:
        users = sorted({row["user"] for row in csv.DictReader(fh)})
    return random.Random(seed).sample(users, RECOMMEND_USERS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "recsuite", "cli.py")):
        print(f"run.py: no recsuite sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: steadier timings on a shared machine, never above nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    t = time.perf_counter()
    sys.path.insert(0, SRC)
    import recsuite
    import recsuite.cli  # noqa: F401  (loads every module the tracer wraps)
    import_s = time.perf_counter() - t

    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    corpus_dir = os.path.join(out_dir, "corpus")
    corpus = os.path.join(corpus_dir, "corpus.csv")

    problems = []
    synth_s, corpus_digests = [], set()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ok, _, err = run_cli(["synth", *wl.synth, "--seed", str(args.seed), "--out", corpus_dir])
        synth_s.append(time.perf_counter() - t)
        if not ok:
            print(f"run.py: corpus generation failed: {err}", file=sys.stderr)
            return 1
        corpus_digests.add(sha256(corpus))
    if len(corpus_digests) != 1:
        problems.append("synth wrote different corpora for one seed")
    users = sample_users(corpus, args.seed)

    rounds, traced, measured = [], [], 0.0
    while len(rounds) < MIN_ROUNDS or measured < args.seconds:
        r = len(rounds)
        rdir = os.path.join(out_dir, f"round{r}")
        tr = tracer.Tracer() if args.trace and r > 0 else None
        if tr:
            tr.install(recsuite)
        try:
            rnd = run_round(wl, corpus, rdir, args.seed, users)
        finally:
            if tr:
                tr.uninstall()
        measured += rnd.pipeline_s
        print(f"round {r}{' traced' if tr else ''}: pipeline {rnd.pipeline_s:.3f} s, "
              f"train {rnd.train_s:.3f} s, eval {rnd.eval_s:.3f} s", file=sys.stderr)
        problems += rnd.errors
        if r == 0:
            problems += check_outputs(wl, corpus, rdir, args.seed, rnd.listings)
        else:
            for key in set(rnd.digests) | set(rounds[0].digests):
                if rnd.digests.get(key) != rounds[0].digests.get(key):
                    problems.append(f"round {r}{' (traced)' if tr else ''}: {key} "
                                    "differs from round 0")
            if rnd.listings != rounds[0].listings:
                problems.append(f"round {r}: recommend listings differ from round 0")
        if tr:
            traced.append((tr, rnd.pipeline_s))
        rounds.append(rnd)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        stats = [(tr.summary(), p) for tr, p in traced]
        if any(st.counted() != stats[0][0].counted() for st, _ in stats):
            problems.append("traced rounds counted different calls")
        for i, (tr, _) in enumerate(traced, start=1):
            tr.write(out_dir, i)
        metrics = tracer.per_layer_metrics(stats)
    else:
        values = {
            "setup_s": import_s + statistics.median(synth_s),
            "pipeline_s": statistics.median(r.pipeline_s for r in rounds),
            "train_s": statistics.median(r.train_s for r in rounds),
            "eval_s": statistics.median(r.eval_s for r in rounds),
            "recommend_ms": 1e3 * statistics.median(s for r in rounds for s in r.recommend_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ckpt_mb": rounds[0].ckpt_bytes / 1e6,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
