#!/usr/bin/env python3
"""Train the sequential models on a planted successor cycle and print how
much of the structure each one recovers, next to the popularity baseline.

Most users contribute a single session, so negatives sampled outside a
user's history coincide with negatives sampled outside the session and
the models cannot shortcut the task by memorizing per-user item sets.
"""

import argparse
import time

from recsuite import baselines, can, das, data, metrics
from recsuite.numeric import make_rng


def build_corpus(n_items, noise, seed):
    rng = make_rng(seed)
    successor = data.make_successor_map(n_items, rng)
    solo = data.synth_sequential(n_items, 1600, 1, successor, noise, rng)
    multi = data.synth_sequential(n_items, 100, 4, successor, noise, rng)
    multi = [
        data.Session(user="m" + s.user, t=s.t, day=s.day, items=s.items)
        for s in multi
    ]
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(solo + multi))
    sp = data.split(ds.sessions, "random-80-20", make_rng(seed + 1))
    return ds, sp


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--items", type=int, default=50)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cutoff", type=int, default=5)
    args = ap.parse_args()

    ds, sp = build_corpus(args.items, args.noise, args.seed)
    print(
        f"corpus: {ds.n_items} items, {len(ds.sessions)} sessions "
        f"({len(sp.train)} train / {len(sp.test)} test)"
    )

    runs = [("top", baselines.top_scorer(sp.train, ds.item_index, ds.n_items), 0.0)]

    das_cfg = das.DasConfig(k=24, lr=0.02, epochs=60, batch=50, seed=args.seed)
    t0 = time.perf_counter()
    runs.append(("das", das.train_das(sp, ds, das_cfg), time.perf_counter() - t0))

    can_cfg = can.CanConfig(
        D=32, D_u=32, N_f=32, D_p=32, D_q=32, dropout=0.0, lr=0.05,
        epochs=5, batch=50, seed=args.seed,
    )
    t0 = time.perf_counter()
    runs.append(("can", can.train_can(sp, ds, can_cfg), time.perf_counter() - t0))

    k = args.cutoff
    print(f"\n{'model':<8}{f'recall@{k}':>12}{'auc':>10}{'train s':>10}")
    for name, state, seconds in runs:
        rep = metrics.evaluate(state, ds, sp, [k], name)
        print(
            f"{name:<8}{rep.value('recall', k):>12.4f}"
            f"{rep.value('auc'):>10.4f}{seconds:>10.1f}"
        )


if __name__ == "__main__":
    main()
