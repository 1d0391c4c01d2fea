#!/usr/bin/env python3
"""Score review text into trait profiles, then show the trait-regularized
factorizer beating the mean baselines on cluster-disjoint ratings.

The synthetic corpus plants users in clusters that share no rated items,
so any transfer between clusters has to come through the trait groups
(users who share a dominant trait) rather than co-rated items.
"""

import argparse

from recsuite import apar, baselines, data, metrics, personality
from recsuite.numeric import make_rng


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clusters", type=int, default=2)
    ap.add_argument("--users-per-cluster", type=int, default=20)
    ap.add_argument("--items-per-cluster", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = make_rng(args.seed)
    corpus, cluster = data.synth_personality_clusters(
        args.clusters, args.users_per_cluster, args.items_per_cluster, rng=rng
    )
    sep = data.cross_cluster_disjointness(corpus, cluster)
    print(
        f"{len(cluster)} users in {args.clusters} clusters; "
        f"cross-cluster item disjointness {sep:.0%}"
    )

    # the planted weight table gives each trait a dedicated category; the
    # shipped default table spreads categories across traits and cannot
    # recover a planted argmax winner
    scores, has_text = profiles = personality.profile_all(
        corpus, personality.DEMO_LEXICON, data.planted_cluster_weights()
    )
    # data.TRAITS and personality.TRAIT_ORDER list the traits in one order
    planted = cluster % len(data.TRAITS)
    hit = int((scores.argmax(axis=1) == planted)[has_text].sum())
    print(f"dominant trait matches the planted trait for {hit}/{has_text.sum()} users")

    matrix = data.RatingMatrix.from_interactions(corpus)
    train, test = data.split_ratings(matrix, 0.2, make_rng(args.seed + 1))

    state = apar.fit_ratings(
        train, personality.trait_groups(corpus, profiles, train.users),
        personality.knowledge_levels(corpus, train.users),
        apar.AparConfig(d=8, max_iters=800, seed=args.seed),
    )

    print(f"\n{'model':<10}{'mae':>8}{'rmse':>8}")
    for name, predictor in (
        ("apar", state),
        ("usermean", baselines.user_mean(train)),
        ("itemmean", baselines.item_mean(train)),
    ):
        rep = metrics.evaluate_ratings(predictor, test, name)
        print(f"{name:<10}{rep.value('mae'):>8.4f}{rep.value('rmse'):>8.4f}")


if __name__ == "__main__":
    main()
