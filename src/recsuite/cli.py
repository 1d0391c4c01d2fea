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

import contextlib
import errno
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, fields

import click
import numpy as np

from . import __version__, checkpoint, data, metrics, personality
from .numeric import make_rng


class FiniteFloat(click.types.FloatParamType):
    """A float other than NaN and +-inf, which float() parses."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value


class FiniteRange(click.FloatRange, FiniteFloat):
    """A float range of finite floats; a click range alone lets NaN through,
    and infinity on an unbounded side."""


METRIC_NAMES = metrics.RANKING_METRICS + metrics.RATING_METRICS
POSITIVE = click.IntRange(min=1)
FRACTION = FiniteRange(0, 1)
NONNEGATIVE = FiniteRange(min=0)
SPLIT_POLICIES = click.Choice(["random-80-20", "last-week"])
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    # hashlib.file_digest's loop (3.11+) through 1 MiB: freeing that much lifts glibc's mmap
    # threshold above the mid-size arrays training makes, so they reuse heap pages, unfaulted
    h, buf = hashlib.sha256(), bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh, memoryview(buf) as view:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _write_manifest(out_dir, command, seed, config, inputs, wall_time_s):
    """Write `<command>_manifest.json`; `inputs` maps each input file to its
    sha256, or to None to hash the file here.

    An input that is not a regular file (a pipe, a device) has been read
    already and cannot be read again; its digest is recorded as null. The
    numpy version, the BLAS thread settings (null where unset) and the core
    count are recorded, as results of some models vary with them."""
    config_json = json.dumps(config, sort_keys=True)
    record = {
        "command": command,
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(config_json.encode("utf-8")).hexdigest(),
        "inputs": {str(p): digest or (_sha256_file(p) if os.path.isfile(p) else None)
                   for p, digest in inputs.items()},
        "version": __version__,
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "wall_time_s": round(wall_time_s, 6),
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_corpus(path, schema=None):
    """(corpus, row errors, the file's sha256); per-row problems go to stderr.

    A file content is parsed once: the parse is kept beside the file `path`
    resolves to, as `<file>.parsed`, under a key naming the content's
    sha256, `schema` and the parser's source, and read from there while the
    key holds. Any other sidecar (stale, damaged, or of another schema) is
    replaced by the new parse's; a directory that cannot be written keeps
    what it has. A pipe or a device can be read only once, so it is parsed
    and nothing is kept; its sha256 is then None.
    """
    try:
        real = os.path.realpath(path)
        if os.path.isfile(real):
            digest = _sha256_file(real)
            key = data.sidecar_key(digest, schema)
            sidecar = real + data.SIDECAR_SUFFIX
            parsed = data.read_sidecar(sidecar, key)
            if parsed is None:
                parsed = data.ingest_csv(path, schema)
                if _sha256_file(real) == digest:  # not rewritten while it was parsed
                    with contextlib.suppress(OSError):
                        data.write_sidecar(sidecar, key, *parsed)
        else:
            digest, parsed = None, data.ingest_csv(path, schema)
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc))
    corpus, errors = parsed
    for err in errors:
        click.echo(f"row {err.line}: {err.message}", err=True)
    if not len(corpus):
        raise click.ClickException(f"{path}: no valid interaction rows")
    return corpus, errors, digest


def _split_setting(model):
    """{name: value} of the one split setting `model` reads.

    Rating models hold out `test_fraction` of each user's ratings, ranking
    models split sessions by `split_policy`. The other setting given on the
    command line is a usage error (exit 2); from a config file it is ignored.
    """
    if checkpoint.KINDS[model].rates:
        read, unread, kind = "test_fraction", "split_policy", "rating"
    else:
        read, unread, kind = "split_policy", "test_fraction", "ranking"
    ctx = click.get_current_context()
    if ctx.get_parameter_source(unread) is click.core.ParameterSource.COMMANDLINE:
        raise click.UsageError(
            f"--{unread.replace('_', '-')} does not apply to {model}; a {kind} model "
            f"reads --{read.replace('_', '-')} only", ctx)
    return {read: ctx.params[read]}


def _ranking_context(corpus, policy, seed):
    ds = data.Dataset.from_interactions(corpus)
    sp = data.split(ds.sessions, policy, make_rng(seed))
    for warning in sp.warnings:
        click.echo(f"split: {warning}", err=True)
    return ds, sp


def _rating_context(corpus, test_fraction, seed):
    """(train, test) ratings of the corpus, over its rated vocabularies."""
    matrix = data.RatingMatrix.from_interactions(corpus)
    if not len(matrix):
        raise click.ClickException("input has no explicit ratings")
    return data.split_ratings(matrix, test_fraction, make_rng(seed))


class _Command(click.Command):
    """A command whose OSError (an output it cannot write) ends it with one
    `Error:` line naming the path, exit 1; a closed stdout is left to click."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                raise
            # os.replace names its target second; a failed write names no file
            path = exc.filename2 or exc.filename or ctx.params.get("out_dir")
            raise click.ClickException(f"{path}: {exc.strerror or exc}") from None


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
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
        corpus, cluster = data.synth_personality_clusters(
            clusters, users_per_cluster, items_per_cluster, rng=rng,
            rating_density=rating_density,
        )
        data.write_csv(corpus_path, corpus)
        labels_path = os.path.join(out_dir, "clusters.csv")
        with open(labels_path, "w", encoding="utf-8") as fh:
            fh.write("user,cluster,trait\n")
            for user, c in zip(corpus.users, cluster.tolist()):
                fh.write(f"{user},{c},{data.TRAITS[c % len(data.TRAITS)]}\n")
        separation = data.cross_cluster_disjointness(corpus, cluster)
        isolated = data.dsw_degree(corpus)
        click.echo(f"wrote {corpus_path}: {len(corpus)} events")
        click.echo(f"cluster separation (no items shared across clusters): "
                   f"{100 * separation:.1f}%")
        click.echo(f"fully isolated users (no items shared with anyone): "
                   f"{100 * isolated:.1f}%")
        cfg = {"kind": kind, "clusters": clusters, "users_per_cluster": users_per_cluster,
               "items_per_cluster": items_per_cluster, "rating_density": rating_density}

    _write_manifest(out_dir, "synth", seed, cfg, {}, time.perf_counter() - t0)


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
    corpus, errors, digest = _read_corpus(input_path, schema)

    ds = data.Dataset.from_interactions(corpus)
    os.makedirs(out_dir, exist_ok=True)
    data.write_csv(os.path.join(out_dir, "interactions.csv"), corpus)
    for fname, tokens in (("users.txt", ds.users), ("items.txt", ds.items)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write("\n".join(tokens) + "\n")
    avg_len = len(corpus) / max(len(ds.sessions), 1)
    click.echo(
        f"users={len(ds.users)} items={len(ds.items)} "
        f"sessions={len(ds.sessions)} avg-session-len={avg_len:.2f}"
    )
    if errors:
        click.echo(f"skipped {len(errors)} malformed rows", err=True)
    _write_manifest(out_dir, "ingest", seed, {"columns": schema}, {input_path: digest},
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
    corpus, _, digest = _read_corpus(input_path)
    try:
        lexicon = (personality.load_lexicon(lexicon_path)
                   if lexicon_path else personality.DEMO_LEXICON)
        weights = (personality.load_weights(weights_path)
                   if weights_path else personality.DEMO_WEIGHTS)
        profiles = personality.profile_all(corpus, lexicon, weights)
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc))
    os.makedirs(out_dir, exist_ok=True)
    personality.profiles_to_csv(corpus.users, profiles,
                                os.path.join(out_dir, "profiles.csv"))
    _, has_text = profiles
    n_profiled = int(has_text.sum())
    click.echo(f"profiled {n_profiled} users "
               f"({len(corpus.users) - n_profiled} with no usable text)")
    inputs = {input_path: digest, **{p: None for p in (lexicon_path, weights_path) if p}}
    _write_manifest(out_dir, "profile", seed, {"lexicon": lexicon_path,
                    "weights": weights_path}, inputs, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# train


def _model_config(kind, flags):
    """The config the train flags set, None for a kind without one; a flag
    that is None keeps its field's default."""
    if kind.config is None:
        return None
    values = {f.name: flags.get(kind.flags.get(f.name, f.name)) for f in fields(kind.config)}
    return kind.config(**{k: v for k, v in values.items() if v is not None})


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", type=click.Choice(list(checkpoint.KINDS)), required=True)
@click.option("--k", type=POSITIVE, help="latent dimension / model width")
@click.option("--lr", type=FiniteRange(min=0, min_open=True), help="learning rate")
@click.option("--epochs", type=POSITIVE, help="training epochs (iteration cap for apar)")
@click.option("--batch", type=POSITIVE, help="minibatch size")
@click.option("--l2", type=NONNEGATIVE, help="bpr: L2 penalty")
@click.option("--lam-uv", type=NONNEGATIVE, help="embedding-table penalty")
@click.option("--lam-at", type=NONNEGATIVE, help="attention-layer penalty")
@click.option("--alpha1", type=NONNEGATIVE, help="apar: user-factor penalty")
@click.option("--alpha2", type=NONNEGATIVE, help="apar: item-factor penalty")
@click.option("--lam", type=NONNEGATIVE, help="apar: trait-similarity penalty")
@click.option("--beta", type=FiniteFloat(), help="apar: blend-weight floor")
@click.option("--gamma", type=FRACTION, help="apar: global blend override")
@click.option("--window", type=int, help="can: conv window (odd)")
@click.option("--dropout", type=FiniteRange(0, 1, max_open=True), help="can: dropout")
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
    kind = checkpoint.KINDS[model]
    setting = _split_setting(model)
    corpus, _, digest = _read_corpus(input_path)
    cfg = _model_config(kind, click.get_current_context().params)
    try:
        if kind.rates:
            vocab = fit = _rating_context(corpus, test_fraction, seed)[0]
        else:
            vocab, sp = _ranking_context(corpus, split_policy, seed)
            fit = sp, vocab
        state = kind.train(corpus, fit, cfg, seed)
    except (ValueError, FloatingPointError) as exc:
        raise click.ClickException(f"training failed: {exc}")

    os.makedirs(out_dir, exist_ok=True)
    ck_path = os.path.join(out_dir, f"{model}.npz")
    checkpoint.save_checkpoint(ck_path, state, vocab.users, vocab.items)
    trace = getattr(state, "trace", [])
    with open(os.path.join(out_dir, f"{model}_trace.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("epoch,value\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{v:.17g}\n")

    cfg_record = {"model": model, **setting}
    if cfg is not None:
        cfg_record.update(asdict(cfg))
    _write_manifest(out_dir, "train", seed, cfg_record, {input_path: digest},
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
@click.option("--split-policy", type=SPLIT_POLICIES, default="random-80-20",
              show_default=True, help="session split policy")
@click.option("--test-fraction", type=FRACTION, default=0.2, show_default=True)
@common_options
@out_option()
def eval_cmd(checkpoint_path, input_path, cutoffs, metrics_filter,
             include_context, split_policy, test_fraction, seed, out_dir):
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
    setting = _split_setting(ck.kind)
    # a name of the family the model is not reported on is a usage error on
    # the command line, and dropped from a config file
    rates = checkpoint.KINDS[ck.kind].rates
    family = metrics.RATING_METRICS if rates else metrics.RANKING_METRICS
    if wanted is not None and not wanted <= set(family):
        ctx = click.get_current_context()
        if ctx.get_parameter_source("metrics_filter") is click.core.ParameterSource.COMMANDLINE:
            raise click.UsageError(
                f"--metrics {','.join(sorted(wanted - set(family)))} does not apply to "
                f"{ck.kind}; a {'rating' if rates else 'ranking'} model reports "
                f"{','.join(family)} only", ctx)
        wanted &= set(family)
    corpus, _, digest = _read_corpus(input_path)

    try:
        if checkpoint.KINDS[ck.kind].rates:
            _, test = _rating_context(corpus, test_fraction, seed)
            checkpoint.verify_compatible(ck, test.users, test.items)
            report = metrics.evaluate_ratings(ck.state, test, ck.kind)
        else:
            checkpoint.verify_compatible(ck, corpus.users, corpus.items)
            ds, sp = _ranking_context(corpus, split_policy, seed)
            report = metrics.evaluate(
                ck.state, ds, sp, cutoff_list, ck.kind,
                exclude_context=not include_context,
            )
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if not report.n_instances:
        reason = (f"all {len(report.failures)} failed; first: {report.failures[0]}"
                  if report.failures else "the split holds none")
        raise click.ClickException(f"no test instance was scored: {reason}")

    if wanted is not None:
        report.rows = [row for row in report.rows if row[0] in wanted]
    if not report.rows:
        raise click.ClickException(f"--metrics {metrics_filter!r} leaves no row to report")
    os.makedirs(out_dir, exist_ok=True)
    report.to_csv(os.path.join(out_dir, "report.csv"))
    text = report.to_text()
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    click.echo(text)
    for failure in report.failures:
        click.echo(f"instance failed: {failure}", err=True)
    total = report.n_instances + len(report.failures)
    for cause, n_failed in report.failure_causes.items():
        click.echo(f"{n_failed} of {total} instances failed: {cause}", err=True)
    for k, n_short in report.short_rankings.items():
        click.echo(f"{n_short} of {report.n_instances} instances ranked fewer than {k} "
                   f"items; their precision@{k} is over the items ranked", err=True)
    _write_manifest(
        out_dir, "eval", seed,
        {"cutoffs": cutoff_list, "metrics": sorted(wanted) if wanted else "all",
         **setting, "exclude_context": not include_context},
        {checkpoint_path: ck.sha256(), input_path: digest}, time.perf_counter() - t0,
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
    corpus, _, digest = _read_corpus(input_path)

    try:
        rates = checkpoint.KINDS[ck.kind].rates
        if rates:
            _, (users, _), (items, _) = data.rated_vocabularies(corpus)
        else:
            users, items = corpus.users, corpus.items
        checkpoint.verify_compatible(ck, users, items)
        if user not in users:
            raise click.ClickException(f"unknown user {user!r}")
        u_idx = users.index(user)
        if not isinstance(ck.state, metrics.Ranker):
            scores = ck.state.predict_ratings(np.full(len(items), u_idx),
                                              np.arange(len(items)))
        elif rates:  # rated, so ranked from the user alone
            scores = np.asarray(ck.state.score_items(u_idx, [], []))
        else:
            # only the user's own rows are sessionized; the last session is the
            # latest, and the items before it, first-seen first, its long-term list
            sessions = data.sessionize(corpus.take(corpus.user == u_idx))
            last = sessions.offsets[-2]
            earlier = sessions.item[:last]
            scores = np.asarray(ck.state.score_items(
                u_idx, data.first_appearance(earlier, len(items)), sessions.item[last:]))
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
                        {checkpoint_path: ck.sha256(), input_path: digest},
                        time.perf_counter() - t0)


if __name__ == "__main__":
    main()
