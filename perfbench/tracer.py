"""Per-layer spans and counts for recsuite, recorded from outside the package.

`Tracer.install` replaces module attributes of recsuite (functions, the
public methods of its classes and the callbacks of its click commands) with
wrappers that record a span per call: name, start, end and parent span.
Names a module imported from another module (`das.sigmoid`) get the wrapper
of the original function, so each function has one name whatever path calls
it. A few tiny functions called per instance are only counted. Nothing under
`src/` is edited; `uninstall` puts every original back.
"""

import collections
import csv
import inspect
import os
import statistics
import time

MODULES = ("data", "personality", "cli", "apar", "das", "can", "numeric",
           "baselines", "metrics", "checkpoint")

# Private helpers that are layers of their own and get a span anyway.
PRIVATE_LAYERS = {"cli._read_corpus", "cli._aligned_L", "cli._ranking_context",
                  "cli._rating_context", "cli._write_manifest", "can._windows"}

# Called several times per training instance; a span each would cost more
# than the call, so these are counted and their time stays in the caller.
COUNT_ONLY = {"numeric.sigmoid", "numeric.softmax", "numeric.softmax_backward",
              "numeric.relu", "das.attend"}


def _pool_bytes(prepared):
    """Bytes of the distinct negative-pool arrays of prepared instances."""
    seen = {}
    for inst in prepared:
        seen[id(inst[4])] = inst[4].nbytes
    return sum(seen.values())


def _after_ingest(tracer, args, result):
    tracer.extra["data.ingest_csv.rows"] += len(result[0])


def _after_prepared(tracer, args, result):
    key = "data.prepared_instances.pool_bytes"
    tracer.extra[key] = max(tracer.extra[key], _pool_bytes(result))


def _after_batch(name):
    def hook(tracer, args, result):
        tracer.extra[name + ".instances"] += len(args[1].users)
    return hook


def _after_save(tracer, args, result):
    tracer.extra["checkpoint.save_checkpoint.bytes"] += os.path.getsize(args[0])


AFTER = {
    "data.ingest_csv": _after_ingest,
    "data.prepared_instances": _after_prepared,
    "das.loss_and_grads": _after_batch("das.loss_and_grads"),
    "can.loss_and_grads": _after_batch("can.loss_and_grads"),
    "checkpoint.save_checkpoint": _after_save,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.extra = collections.defaultdict(float)
        self._stack = []
        self._patches = []  # (owner, attribute, original value)
        self._wrappers = {}  # id(original function) -> wrapper

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, after = self.spans, self._stack, AFTER.get(name)
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _wrap(self, name, fn):
        if id(fn) not in self._wrappers:
            make = self._counter if name in COUNT_ONLY else self._span
            w = make(name, fn)
            w.__wrapped__ = fn
            self._wrappers[id(fn)] = w
        return self._wrappers[id(fn)]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall -----------------------------------------------

    def install(self, package):
        """Wrap every layer of `package` (the imported recsuite module)."""
        import click

        mods = {m: getattr(package, m) for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or name in PRIVATE_LAYERS:
                        self._patch(mod, attr, self._wrap(name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(name, obj)
                elif isinstance(obj, click.Command) and obj.callback is not None:
                    self._patch_callback(name, obj)
        # names imported from a sibling module share the original's wrapper
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = self._wrappers.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)

    def _install_class(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))

    def _patch_callback(self, name, command):
        original = command.callback
        self._patches.append((command, "callback", original))
        command.callback = self._wrap(name, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per name: total seconds, self seconds and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        calls = collections.Counter(self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return LayerStats(total, self_s, calls, dict(self.extra))

    def write(self, out_dir, round_no):
        """Append this round's spans and counts to spans.csv and counts.csv."""
        st = self.summary()
        rows = {"spans.csv": (["round", "id", "name", "start", "end", "parent"],
                              [[round_no, i, name, repr(start), repr(end), parent]
                               for i, (name, start, end, parent) in enumerate(self.spans)]),
                "counts.csv": (["round", "name", "value"],
                               [[round_no, f"{name}.calls", n]
                                for name, n in sorted(st.calls.items())]
                               + [[round_no, name, repr(v)]
                                  for name, v in sorted(st.extra.items())])}
        for fname, (header, body) in rows.items():
            path = os.path.join(out_dir, fname)
            new = not os.path.exists(path)
            with open(path, "a", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                if new:
                    w.writerow(header)
                w.writerows(body)


class LayerStats:
    def __init__(self, total, self_s, calls, extra):
        self.total, self.self_s, self.calls, self.extra = total, self_s, calls, extra

    def s(self, name):
        return self.total.get(name, 0.0)

    def per_instance_us(self, name):
        n = self.extra.get(name + ".instances", 0.0)
        return 1e6 * self.s(name) / n if n else 0.0

    def counted(self):
        """Everything that must repeat exactly between traced rounds."""
        return dict(self.calls), self.extra


def _rows_per_s(st):
    t = st.s("data.ingest_csv")
    return st.extra.get("data.ingest_csv.rows", 0.0) / t if t else 0.0


# name -> (unit, value from one traced round's LayerStats and its pipeline time)
PER_LAYER = {
    "data.ingest_csv.s": ("s", lambda st, p: st.s("data.ingest_csv")),
    "data.ingest_csv.rows_per_s": ("rows/s", lambda st, p: _rows_per_s(st)),
    "data.Dataset.from_interactions.s":
        ("s", lambda st, p: st.s("data.Dataset.from_interactions")),
    "data.prepared_instances.s": ("s", lambda st, p: st.s("data.prepared_instances")),
    "data.prepared_instances.pool_mb":
        ("MB", lambda st, p: st.extra.get("data.prepared_instances.pool_bytes", 0.0) / 1e6),
    "personality.profile_all.s": ("s", lambda st, p: st.s("personality.profile_all")),
    "personality.categorize.s": ("s", lambda st, p: st.s("personality.categorize")),
    "personality.categorize.calls":
        ("count", lambda st, p: st.calls.get("personality.categorize", 0)),
    "personality.build_L.s": ("s", lambda st, p: st.s("personality.build_L")),
    "cli._aligned_L.s": ("s", lambda st, p: st.s("cli._aligned_L")),
    "apar.AparProblem.build.s": ("s", lambda st, p: st.s("apar.AparProblem.build")),
    "apar.multiplicative_step.s": ("s", lambda st, p: st.s("apar.multiplicative_step")),
    "apar.multiplicative_step.calls":
        ("count", lambda st, p: st.calls.get("apar.multiplicative_step", 0)),
    "apar.objective.s": ("s", lambda st, p: st.s("apar.objective")),
    "apar.objective.calls": ("count", lambda st, p: st.calls.get("apar.objective", 0)),
    "apar.objective_grads.calls":
        ("count", lambda st, p: st.calls.get("apar.objective_grads", 0)),
    "apar.predict.s": ("s", lambda st, p: st.s("apar.AparState.predict_rating")
                       + st.s("apar.AparState.score_items")),
    "das.train_das.self_s": ("s", lambda st, p: st.self_s.get("das.train_das", 0.0)),
    "das.loss_and_grads.s": ("s", lambda st, p: st.s("das.loss_and_grads")),
    "das.loss_and_grads.us_per_instance":
        ("us", lambda st, p: st.per_instance_us("das.loss_and_grads")),
    "das.attend.calls": ("count", lambda st, p: st.calls.get("das.attend", 0)),
    "das.score_items.s": ("s", lambda st, p: st.s("das.DasState.score_items")),
    "can.train_can.self_s": ("s", lambda st, p: st.self_s.get("can.train_can", 0.0)),
    "can.loss_and_grads.s": ("s", lambda st, p: st.s("can.loss_and_grads")),
    "can.loss_and_grads.us_per_instance":
        ("us", lambda st, p: st.per_instance_us("can.loss_and_grads")),
    "can._windows.s": ("s", lambda st, p: st.s("can._windows")),
    "can.score_items.s": ("s", lambda st, p: st.s("can.CanState.score_items")),
    "numeric.sigmoid.calls": ("count", lambda st, p: st.calls.get("numeric.sigmoid", 0)),
    "numeric.softmax.calls": ("count", lambda st, p: st.calls.get("numeric.softmax", 0)),
    "baselines.train_bpr.s": ("s", lambda st, p: st.s("baselines.train_bpr")),
    "metrics.evaluate.s": ("s", lambda st, p: st.s("metrics.evaluate")),
    "metrics.evaluate.self_s": ("s", lambda st, p: st.self_s.get("metrics.evaluate", 0.0)),
    "metrics.rank_items.s": ("s", lambda st, p: st.s("metrics.rank_items")),
    "metrics.auc.s": ("s", lambda st, p: st.s("metrics.auc")),
    "metrics.evaluate_ratings.s": ("s", lambda st, p: st.s("metrics.evaluate_ratings")),
    "checkpoint.save_checkpoint.s": ("s", lambda st, p: st.s("checkpoint.save_checkpoint")),
    "checkpoint.save_checkpoint.mb":
        ("MB", lambda st, p: st.extra.get("checkpoint.save_checkpoint.bytes", 0.0) / 1e6),
    "checkpoint.load_checkpoint.s": ("s", lambda st, p: st.s("checkpoint.load_checkpoint")),
    "trace.pipeline_s": ("s", lambda st, p: p),
}


def per_layer_metrics(rounds):
    """Median over traced rounds of every PER_LAYER metric.

    `rounds` holds (LayerStats, pipeline seconds) per traced round.
    """
    return {
        name: {"value": statistics.median(float(fn(st, p)) for st, p in rounds),
               "unit": unit}
        for name, (unit, fn) in PER_LAYER.items()
    }
