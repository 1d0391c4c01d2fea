"""Command-line front end.

Subcommands cover the whole workflow: ``synth`` writes reproducible
synthetic corpora, ``ingest`` normalizes raw interaction logs,
``profile`` scores trait profiles from review text, ``train`` fits any
model to a corpus, ``eval`` scores a checkpoint against a corpus, and
``recommend`` prints a ranked item list for one user.

Every default is declared once, on its click option, and ``--help``
shows it. A ``--config`` file of ``key = value`` lines becomes the
command's click defaults: each key is the long flag name of an option
of that command (dashes or underscores), so every option can be set
from the file, and a ``[command]``-scoped entry wins over a bare one.
A flag on the command line wins over both. File values are converted
and checked by the option's own type, so click's boolean words work and
a bad value exits 2 naming the flag. Every artifact-producing run writes
a JSON manifest (seed, resolved config and its hash, input file hashes,
package version, wall time) next to its outputs, and the same inputs
with the same seed produce byte-identical artifacts.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict

import click
import numpy as np

from . import __version__, apar, baselines, can, checkpoint, das, data, metrics, personality
from .numeric import make_rng

MODELS = ("apar", "das", "can", "top", "random", "usermean", "itemmean", "bpr")
RATING_MODELS = ("apar", "usermean", "itemmean")
METRIC_NAMES = ("precision", "recall", "mcan", "auc", "mae", "rmse")
POSITIVE = click.IntRange(min=1)
FRACTION = click.FloatRange(0, 1)
NONNEGATIVE = click.FloatRange(min=0)
SPLIT_POLICIES = click.Choice(["random-80-20", "last-week"])


# ---------------------------------------------------------------------------
# Config files


def _load_config_file(path):
    """Parse a key=value file with optional [section] scoping."""
    values = {"": {}}
    section = ""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"{path}: not UTF-8 text ({exc})")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            values.setdefault(section, {})
            continue
        if "=" not in line:
            raise click.ClickException(
                f"{path}:{line_no}: expected key = value, got {line!r}"
            )
        key, val = line.split("=", 1)
        values[section][key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config(ctx, param, path):
    """Make the file's entries the command's defaults, keyed by long flag."""
    if path is None:
        return
    values = _load_config_file(path)
    entries = {**values[""], **values.get(ctx.command.name, {})}
    by_flag = {
        opt.lstrip("-").replace("-", "_"): option.name
        for option in ctx.command.params
        if isinstance(option, click.Option) and option is not param
        for opt in option.opts
    }
    ctx.default_map = {by_flag[k]: v for k, v in entries.items() if k in by_flag}


# ---------------------------------------------------------------------------
# Shared plumbing


def common_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True, help="rng seed")(fn)
    fn = click.option(
        "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
        expose_value=False, callback=_apply_config,
        help="key = value file of option defaults; flags override it",
    )(fn)
    return fn


def out_option(required=True):
    def deco(fn):
        return click.option(
            "--out", "out_dir", type=click.Path(file_okay=False),
            required=required, help="output directory",
        )(fn)
    return deco


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, command, seed, config, inputs, wall_time_s):
    config_json = json.dumps(config, sort_keys=True)
    record = {
        "command": command,
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(config_json.encode("utf-8")).hexdigest(),
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "version": __version__,
        "wall_time_s": round(wall_time_s, 6),
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_corpus(path, schema=None):
    """(corpus, row errors); per-row problems go to stderr."""
    try:
        corpus, errors = data.ingest_csv(path, schema)
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc))
    for err in errors:
        click.echo(f"row {err.line}: {err.message}", err=True)
    if not len(corpus):
        raise click.ClickException(f"{path}: no valid interaction rows")
    return corpus, errors


def _ranking_context(corpus, policy, seed):
    ds = data.Dataset.from_interactions(corpus)
    sp = data.split(ds.sessions, policy, make_rng(seed))
    for warning in sp.warnings:
        click.echo(f"split: {warning}", err=True)
    return ds, sp


def _rating_context(corpus, test_fraction, seed):
    matrix = data.RatingMatrix.from_interactions(corpus)
    if not matrix.triplets:
        raise click.ClickException("input has no explicit ratings")
    train_trips, test_trips = data.split_ratings(matrix, test_fraction, make_rng(seed))
    return matrix, train_trips, test_trips


@click.group()
def main():
    """Recommender-systems engine: data, personality profiles, models, metrics."""


# ---------------------------------------------------------------------------
# synth


@main.command()
@click.option("--kind", type=click.Choice(["sequential", "personality"]),
              default="sequential", show_default=True)
@click.option("--items", type=POSITIVE, default=50, show_default=True,
              help="sequential: catalog size")
@click.option("--users", type=POSITIVE, default=20, show_default=True,
              help="sequential: user count")
@click.option("--sessions-per-user", type=POSITIVE, default=100, show_default=True)
@click.option("--session-len", type=POSITIVE, default=5, show_default=True)
@click.option("--noise", type=FRACTION, default=0.1, show_default=True,
              help="sequential: per-step random-jump rate")
@click.option("--clusters", type=click.IntRange(min=2), default=2, show_default=True,
              help="personality: cluster count")
@click.option("--users-per-cluster", type=POSITIVE, default=20, show_default=True)
@click.option("--items-per-cluster", type=POSITIVE, default=10, show_default=True)
@click.option("--rating-density", type=FRACTION, default=0.6, show_default=True)
@common_options
@out_option()
def synth(kind, items, users, sessions_per_user, session_len, noise, clusters,
          users_per_cluster, items_per_cluster, rating_density, seed, out_dir):
    """Write a reproducible synthetic corpus."""
    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.csv")
    rng = make_rng(seed)

    if kind == "sequential":
        transition = data.make_successor_map(items, rng)
        sessions = data.synth_sequential(items, users, sessions_per_user, transition,
                                         noise, rng, session_len=session_len)
        corpus = data.sessions_to_interactions(sessions)
        data.write_csv(corpus_path, corpus)
        click.echo(
            f"wrote {corpus_path}: {len(corpus)} events, "
            f"{len(sessions)} sessions, {items} items"
        )
        cfg = {"kind": kind, "items": items, "users": users,
               "sessions_per_user": sessions_per_user, "session_len": session_len,
               "noise": noise}
    else:
        corpus, truth = data.synth_personality_clusters(
            clusters, users_per_cluster, items_per_cluster, rng=rng,
            rating_density=rating_density,
        )
        data.write_csv(corpus_path, corpus)
        labels_path = os.path.join(out_dir, "clusters.csv")
        with open(labels_path, "w", encoding="utf-8") as fh:
            fh.write("user,cluster,trait\n")
            for user, info in truth.items():
                fh.write(f"{user},{info.cluster},{info.trait}\n")
        separation = data.cross_cluster_disjointness(
            corpus, {u: info.cluster for u, info in truth.items()}
        )
        isolated = data.dsw_degree(corpus)
        click.echo(f"wrote {corpus_path}: {len(corpus)} events")
        click.echo(f"cluster separation (no items shared across clusters): "
                   f"{100 * separation:.1f}%")
        click.echo(f"fully isolated users (no items shared with anyone): "
                   f"{100 * isolated:.1f}%")
        cfg = {"kind": kind, "clusters": clusters, "users_per_cluster": users_per_cluster,
               "items_per_cluster": items_per_cluster, "rating_density": rating_density}

    _write_manifest(out_dir, "synth", seed, cfg, [], time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# ingest


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--column", "columns", multiple=True, metavar="LOGICAL=ACTUAL",
              help="map a logical column (user, item, timestamp, action, rating, "
                   "review, helpful) to the input header name; repeatable")
@common_options
@out_option()
def ingest(input_path, columns, seed, out_dir):
    """Normalize a raw interaction CSV and write it with its index maps."""
    t0 = time.perf_counter()
    schema = {}
    for pair in columns:
        if "=" not in pair:
            raise click.BadParameter(f"--column needs LOGICAL=ACTUAL, got {pair!r}")
        logical, actual = pair.split("=", 1)
        schema[logical.strip()] = actual.strip()
    corpus, errors = _read_corpus(input_path, schema)

    ds = data.Dataset.from_interactions(corpus)
    os.makedirs(out_dir, exist_ok=True)
    data.write_csv(os.path.join(out_dir, "interactions.csv"), corpus)
    for fname, tokens in (("users.txt", ds.users), ("items.txt", ds.items)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write("\n".join(tokens) + "\n")
    avg_len = sum(len(s.items) for s in ds.sessions) / max(len(ds.sessions), 1)
    click.echo(
        f"users={len(ds.users)} items={len(ds.items)} "
        f"sessions={len(ds.sessions)} avg-session-len={avg_len:.2f}"
    )
    if errors:
        click.echo(f"skipped {len(errors)} malformed rows", err=True)
    _write_manifest(out_dir, "ingest", seed, {"columns": schema}, [input_path],
                    time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# profile


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--lexicon", "lexicon_path", type=click.Path(exists=True, dir_okay=False),
              help="category lexicon file [default: built-in demo]")
@click.option("--weights", "weights_path", type=click.Path(exists=True, dir_okay=False),
              help="trait weight file [default: built-in demo]")
@common_options
@out_option()
def profile(input_path, lexicon_path, weights_path, seed, out_dir):
    """Score five-trait profiles from the review text in a corpus."""
    t0 = time.perf_counter()
    corpus, _ = _read_corpus(input_path)
    try:
        lexicon = (personality.load_lexicon(lexicon_path)
                   if lexicon_path else personality.DEMO_LEXICON)
        weights = (personality.load_weights(weights_path)
                   if weights_path else personality.DEMO_WEIGHTS)
        profiles = personality.profile_all(corpus, lexicon, weights)
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc))
    total_users = len(corpus.users)
    os.makedirs(out_dir, exist_ok=True)
    personality.profiles_to_csv(list(profiles.values()),
                                os.path.join(out_dir, "profiles.csv"))
    click.echo(f"profiled {len(profiles)} users "
               f"({total_users - len(profiles)} with no usable text)")
    inputs = [p for p in (input_path, lexicon_path, weights_path) if p]
    _write_manifest(out_dir, "profile", seed, {"lexicon": lexicon_path,
                    "weights": weights_path}, inputs, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# train


def _build_model_config(model, p):
    """Per-model config from the shared flag namespace; None means default."""

    def fill(cls, mapping):
        return cls(**{k: v for k, v in mapping.items() if v is not None})

    if model == "das":
        return fill(das.DasConfig, {
            "k": p["k"], "lr": p["lr"], "epochs": p["epochs"], "batch": p["batch"],
            "lam_uv": p["lam_uv"], "lam_at": p["lam_at"], "seed": p["seed"],
        })
    if model == "can":
        mapping = {
            "window": p["window"], "dropout": p["dropout"], "lr": p["lr"],
            "epochs": p["epochs"], "batch": p["batch"], "lam_uv": p["lam_uv"],
            "lam_a": p["lam_at"], "seed": p["seed"],
        }
        if p["k"] is not None:  # one knob scales every width
            mapping.update(D=p["k"], D_u=p["k"], N_f=p["k"], D_p=p["k"], D_q=p["k"])
        return fill(can.CanConfig, mapping)
    if model == "bpr":
        return fill(baselines.BprConfig, {
            "d": p["k"], "lr": p["lr"], "l2": p["l2"], "epochs": p["epochs"],
            "seed": p["seed"],
        })
    if model == "apar":
        return fill(apar.AparConfig, {
            "d": p["k"], "alpha1": p["alpha1"], "alpha2": p["alpha2"],
            "lam": p["lam"], "beta": p["beta"], "gamma_override": p["gamma"],
            "max_iters": p["epochs"], "seed": p["seed"],
        })
    return None


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--k", type=POSITIVE, help="latent dimension / model width")
@click.option("--lr", type=click.FloatRange(min=0, min_open=True), help="learning rate")
@click.option("--epochs", type=POSITIVE, help="training epochs (iteration cap for apar)")
@click.option("--batch", type=POSITIVE, help="minibatch size")
@click.option("--l2", type=NONNEGATIVE, help="bpr: L2 penalty")
@click.option("--lam-uv", type=NONNEGATIVE, help="embedding-table penalty")
@click.option("--lam-at", type=NONNEGATIVE, help="attention-layer penalty")
@click.option("--alpha1", type=NONNEGATIVE, help="apar: user-factor penalty")
@click.option("--alpha2", type=NONNEGATIVE, help="apar: item-factor penalty")
@click.option("--lam", type=NONNEGATIVE, help="apar: trait-similarity penalty")
@click.option("--beta", type=float, help="apar: blend-weight floor")
@click.option("--gamma", type=FRACTION, help="apar: global blend override")
@click.option("--window", type=int, help="can: conv window (odd)")
@click.option("--dropout", type=click.FloatRange(0, 1, max_open=True), help="can: dropout")
@click.option("--split-policy", type=SPLIT_POLICIES, default="random-80-20",
              show_default=True, help="session split policy")
@click.option("--test-fraction", type=FRACTION, default=0.2, show_default=True,
              help="rating models: held-out fraction")
@common_options
@out_option()
def train(input_path, model, split_policy, test_fraction, seed, out_dir, **_model_flags):
    """Fit a model to a corpus and write checkpoint, trace, and manifest.

    Model flags left unset (None) keep the model's own default.
    """
    t0 = time.perf_counter()
    corpus, _ = _read_corpus(input_path)
    cfg = _build_model_config(model, click.get_current_context().params)
    try:
        if model in RATING_MODELS:
            matrix, train_trips, _ = _rating_context(corpus, test_fraction, seed)
            users, items = matrix.users, matrix.items
            if model == "usermean":
                state = baselines.user_mean(train_trips)
            elif model == "itemmean":
                state = baselines.item_mean(train_trips)
            else:
                profiles = personality.profile_all(
                    corpus, personality.DEMO_LEXICON, personality.DEMO_WEIGHTS
                )
                kl_map = {
                    u: lvl.kl_normalized
                    for u, lvl in personality.knowledge_levels(corpus).items()
                }
                state = apar.fit_ratings(
                    matrix, train_trips, personality.trait_groups(profiles, users),
                    kl_map, cfg,
                )
        else:
            ds, sp = _ranking_context(corpus, split_policy, seed)
            users, items = ds.users, ds.items
            if model == "das":
                state = das.train_das(sp, ds, cfg)
            elif model == "can":
                state = can.train_can(sp, ds, cfg)
            elif model == "bpr":
                state = baselines.train_bpr(sp, ds, cfg)
            elif model == "top":
                state = baselines.top_scorer(sp.train, ds.item_index, ds.n_items)
            else:  # random
                state = baselines.RandomScorer(ds.n_items, seed)
    except (ValueError, FloatingPointError) as exc:
        raise click.ClickException(f"training failed: {exc}")

    os.makedirs(out_dir, exist_ok=True)
    ck_path = os.path.join(out_dir, f"{model}.npz")
    checkpoint.save_checkpoint(ck_path, state, users, items)
    trace = getattr(state, "trace", [])
    with open(os.path.join(out_dir, f"{model}_trace.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("epoch,value\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{v:.17g}\n")

    cfg_record = {"model": model, "split_policy": split_policy,
                  "test_fraction": test_fraction}
    if cfg is not None:
        cfg_record.update(asdict(cfg))
    _write_manifest(out_dir, "train", seed, cfg_record, [input_path],
                    time.perf_counter() - t0)
    click.echo(f"wrote {ck_path}"
               + (f" (trace: {len(trace)} rows)" if trace else ""))


# ---------------------------------------------------------------------------
# eval


@main.command("eval")
@click.argument("checkpoint_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cutoffs", default="5,10,20", show_default=True,
              help="comma-separated ranking cutoffs")
@click.option("--metrics", "metrics_filter",
              help=f"only report these (comma-separated from {','.join(METRIC_NAMES)})")
@click.option("--include-context", is_flag=True,
              help="keep current-session items rankable instead of excluding them")
@click.option("--auc-negatives", type=click.Choice(["all", "sampled-100"]),
              default="all", show_default=True)
@click.option("--split-policy", type=SPLIT_POLICIES, default="random-80-20",
              show_default=True, help="session split policy")
@click.option("--test-fraction", type=FRACTION, default=0.2, show_default=True)
@common_options
@out_option()
def eval_cmd(checkpoint_path, input_path, cutoffs, metrics_filter,
             include_context, auc_negatives, split_policy, test_fraction, seed,
             out_dir):
    """Evaluate a checkpoint on a corpus; writes report.csv and report.txt."""
    t0 = time.perf_counter()
    try:
        cutoff_list = [int(c) for c in cutoffs.split(",") if c.strip()]
        if not cutoff_list or min(cutoff_list) < 1:
            raise ValueError
    except ValueError:
        raise click.BadParameter(f"must name positive integers, got {cutoffs!r}",
                                 param_hint="'--cutoffs'")
    wanted = None
    if metrics_filter:
        wanted = {m.strip() for m in metrics_filter.split(",") if m.strip()}
        unknown = wanted - set(METRIC_NAMES)
        if unknown:
            raise click.BadParameter(
                f"unknown metrics: {', '.join(sorted(unknown))}"
            )

    try:
        ck = checkpoint.load_checkpoint(checkpoint_path)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    corpus, _ = _read_corpus(input_path)

    try:
        if ck.kind in RATING_MODELS:
            matrix, _, test_trips = _rating_context(corpus, test_fraction, seed)
            checkpoint.verify_compatible(ck, matrix.users, matrix.items)
            report = metrics.evaluate_ratings(ck.state, test_trips, ck.kind)
        else:
            checkpoint.verify_compatible(ck, corpus.users, corpus.items)
            ds, sp = _ranking_context(corpus, split_policy, seed)
            report = metrics.evaluate(
                ck.state, ds, sp, cutoff_list, ck.kind,
                exclude_context=not include_context,
                auc_negatives=auc_negatives, rng=make_rng(seed),
            )
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if not report.n_instances:
        reason = (f"all {len(report.failures)} failed; first: {report.failures[0]}"
                  if report.failures else "the split holds none")
        raise click.ClickException(f"no test instance was scored: {reason}")

    if wanted is not None:
        report.rows = [row for row in report.rows if row[0] in wanted]
    os.makedirs(out_dir, exist_ok=True)
    report.to_csv(os.path.join(out_dir, "report.csv"))
    text = report.to_text()
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    click.echo(text)
    for failure in report.failures:
        click.echo(f"instance failed: {failure}", err=True)
    _write_manifest(
        out_dir, "eval", seed,
        {"cutoffs": cutoff_list, "metrics": sorted(wanted) if wanted else "all",
         "split_policy": split_policy, "test_fraction": test_fraction,
         "auc_negatives": auc_negatives, "exclude_context": not include_context},
        [checkpoint_path, input_path], time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# recommend


@main.command()
@click.argument("checkpoint_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--user", required=True, help="user token as it appears in the corpus")
@click.option("-n", "count", type=POSITIVE, default=10, show_default=True,
              help="list length")
@common_options
@out_option(required=False)
def recommend(checkpoint_path, input_path, user, count, seed, out_dir):
    """Print the top-N items for one user as rank,item,score lines."""
    t0 = time.perf_counter()
    try:
        ck = checkpoint.load_checkpoint(checkpoint_path)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    corpus, _ = _read_corpus(input_path)

    try:
        if ck.kind in RATING_MODELS:
            matrix = data.RatingMatrix.from_interactions(corpus)
            checkpoint.verify_compatible(ck, matrix.users, matrix.items)
            items = matrix.items
            u_idx = matrix.user_index.get(user)
            if u_idx is None:
                raise click.ClickException(f"unknown user {user!r}")
            if ck.kind == "apar":
                scores = np.asarray(ck.state.score_items(u_idx, [], []))
            else:
                scores = np.array([
                    ck.state.predict_rating(u_idx, j) for j in range(len(items))
                ])
        else:
            checkpoint.verify_compatible(ck, corpus.users, corpus.items)
            items = corpus.items
            if user not in corpus.users:
                raise click.ClickException(f"unknown user {user!r}")
            u_idx = corpus.users.index(user)
            # only the user's own rows are sessionized
            ds = data.Dataset.from_interactions(corpus.take(corpus.user == u_idx))
            history = data.Histories(ds.sessions, ds)
            last = history.by_user[user][-1]
            scores = np.asarray(ck.state.score_items(
                u_idx,
                history.long_term(user, last.day),
                [ds.item_index[t] for t in last.items],
            ))
    except ValueError as exc:
        raise click.ClickException(str(exc))

    if count > len(scores):
        click.echo(
            f"asked for {count} items but the catalog holds {len(scores)}; "
            "returning all of them", err=True,
        )
        count = len(scores)
    for rank, j in enumerate(metrics.top_k(scores, count), start=1):
        click.echo(f"{rank},{items[j]},{scores[j]:.17g}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_manifest(out_dir, "recommend", seed, {"user": user, "n": count},
                        [checkpoint_path, input_path], time.perf_counter() - t0)


if __name__ == "__main__":
    main()
