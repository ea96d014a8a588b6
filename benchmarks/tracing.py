"""In-memory span tracer for the traced benchmark run.

`Tracer.install()` wraps public taskinfer functions at every module attribute
that binds them (for example both `taskinfer.methods.train_method` and
`taskinfer.evaluation.train_method`), so the program's own call paths are
traced without changing its code.  A span is (name, start, end, parent); all
spans stay in memory until the run ends.  `uninstall()` restores the original
functions.

Span names are `<module>.<what>`; the module is the layer the time belongs
to.  A span's self time is its duration minus the time its child spans
cover.  Spans come from one thread and nest strictly, so the children of one
span never overlap and their durations can simply be summed.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from collections import defaultdict
from time import perf_counter

from taskinfer import actr, baselines, cli, core, evaluation, ingest, methods, synthgen

MODULES = (core, actr, baselines, methods, evaluation, synthgen, ingest, cli)
LAYERS = tuple(m.__name__.rsplit(".", 1)[-1] for m in MODULES)

# Method id -> span prefix of its model layer.
MODEL_PREFIX = {
    "actr-ib": "actr.ib",
    "actr-r": "actr.rb",
    "nb": "baselines.nb",
    "dt": "baselines.dt",
    "rf": "baselines.rf",
    "logreg": "baselines.logreg",
}
_PROTOCOL_NAME = {"loocv": "loocv", "split_trials": "split",
                  "leave_one_family_out": "lofo"}


def _argument(fn, name):
    """Return a function reading argument `name` of a call to `fn`."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _by_mode(prefix, train_fn):
    """Span namer `<prefix>.<mode>.train` for a training function."""
    mode = _argument(train_fn, "mode")
    return lambda args, kwargs: f"{prefix}.{mode(args, kwargs)}.train"


def matrix_bytes(x) -> int:
    """Bytes held by a design matrix, dense or scipy sparse."""
    if hasattr(x, "indptr"):
        return int(x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)
    return int(x.nbytes)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self.protocol = defaultdict(lambda: [0.0, 0.0])  # name -> [train_s, predict_s]
        self.predictions = defaultdict(list)   # query span name -> [(retained, degenerate)]
        self.tokens = []         # attribute count of every parsed report
        self.rejected = 0        # parse_report calls that raised ReportError
        self.matrix_bytes = 0    # largest attribute_matrix result

    # ------------------------------------------------------------ recording

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    # ------------------------------------------------------------- patching

    def _wrap(self, fn, name_of, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _patch_everywhere(self, fn, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_function(self, module, attr, name_of, after=None):
        fn = getattr(module, attr)
        self._patch_everywhere(fn, self._wrap(fn, name_of, after))

    def install(self) -> None:
        for attr in ("load_corpus", "read_corpus_records", "build_corpus",
                     "write_corpus_records"):
            self._patch_function(core, attr, f"core.{attr}")
        self._patch_function(core, "attribute_matrix", "core.attribute_matrix",
                             after=self._after_matrix)

        ib_init = actr.IbModel.__init__
        self._patched.append((actr.IbModel, "__init__", ib_init))
        actr.IbModel.__init__ = self._wrap(ib_init, _by_mode("actr.ib", ib_init))
        self._patch_function(actr, "rb_train", _by_mode("actr.rb", actr.rb_train))
        for short in ("nb", "dt", "rf", "logreg"):
            fn = getattr(baselines, f"{short}_train")
            self._patch_function(baselines, f"{short}_train",
                                 _by_mode(f"baselines.{short}", fn))

        train = methods.train_method
        train_method_of = _argument(train, "method")
        train_mode = _argument(train, "mode")
        tracer = self

        @functools.wraps(train)
        def traced_train_method(*args, **kwargs):
            predictor = tracer.call("methods.train_method", train, *args, **kwargs)
            name = (f"{MODEL_PREFIX[train_method_of(args, kwargs)]}."
                    f"{train_mode(args, kwargs)}.query")
            return tracer._traced_predictor(name, predictor)
        self._patch_everywhere(train, traced_train_method)

        for attr, short in _PROTOCOL_NAME.items():
            self._patch_function(
                evaluation, attr, f"evaluation.{short}",
                after=functools.partial(self._after_protocol, short))
        self._patch_function(evaluation, "paired_ttest", "evaluation.paired_ttest")

        for attr in ("generate", "measure_overlap", "encrypt_variant"):
            self._patch_function(synthgen, attr, f"synthgen.{attr}")

        parse = ingest.parse_report

        @functools.wraps(parse)
        def traced_parse(*args, **kwargs):
            try:
                sample = tracer.call("ingest.parse_report", parse, *args, **kwargs)
            except ingest.ReportError:
                tracer.rejected += 1
                raise
            tracer.tokens.append(len(sample.attribs))
            return sample
        self._patch_everywhere(parse, traced_parse)

        argv = _argument(cli.main, "argv")
        self._patch_function(cli, "main", lambda a, k: f"cli.{argv(a, k)[0]}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _traced_predictor(self, name, predictor):
        record = self.predictions[name].append

        def traced(query):
            pred = self.call(name, predictor, query)
            record((pred.retained_chunks, pred.degenerate))
            return pred
        return traced

    def _after_matrix(self, args, kwargs, result):
        self.matrix_bytes = max(self.matrix_bytes, matrix_bytes(result[2]))

    def _after_protocol(self, short, args, kwargs, result):
        reports = result if isinstance(result, list) else [result]
        acc = self.protocol[short]
        acc[0] += sum(r.train_time for r in reports)
        acc[1] += sum(r.predict_time for r in reports)

    # ----------------------------------------------------------- summaries

    def summarize(self) -> dict:
        """Per span name: calls, total and self seconds, durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, stop, parent in spans:
            if parent >= 0:
                child[parent] += stop - start
        out = {}
        for i, (name, start, stop, _) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["total_s"] += stop - start
            entry["self_s"] += stop - start - child[i]
            entry["durations"].append(stop - start)
        return out


# --------------------------------------------------------- per-layer metrics

def _models():
    return [(prefix, mode) for prefix in MODEL_PREFIX.values()
            for mode in ("family", "direct")]


_KINDS = (("predict", lambda n: n.endswith(".query")),
          ("train", lambda n: n.endswith(".train") or n == "methods.train_method"),
          ("ingest", lambda n: n.startswith(("ingest.", "cli."))),
          ("protocol", lambda n: n.startswith("evaluation.")),
          ("corpus", lambda n: n.startswith("core.")),
          ("generate", lambda n: n.startswith("synthgen.")))


def kind_of(name: str) -> str:
    return next(kind for kind, test in _KINDS if test(name))


def per_layer(tracer: Tracer, rounds: int, properties: dict, prepared: dict) -> dict:
    """Every per-layer metric: per-round means of the tracer's spans.

    Latencies (`*_us`) are medians over all calls; synthgen timings come
    from `prepared`, the span table of input preparation.
    """
    table = tracer.summarize()

    def m(value, unit):
        return {"value": value, "unit": unit}

    def per_round(name, key="total_s"):
        return table[name][key] / rounds if name in table else 0.0

    def p50_us(name):
        durations = table[name]["durations"] if name in table else []
        return statistics.median(durations) * 1e6 if durations else None

    out = {}
    for fn in ("load_corpus", "read_corpus_records", "build_corpus",
               "attribute_matrix", "write_corpus_records"):
        out[f"core.{fn}.s"] = m(per_round(f"core.{fn}"), "s")
    for fn in ("build_corpus", "attribute_matrix"):
        out[f"core.{fn}.calls"] = m(per_round(f"core.{fn}", "calls"), "count")
    out["core.attribute_matrix.bytes"] = m(tracer.matrix_bytes, "B")
    for prefix, mode in _models():
        out[f"{prefix}.{mode}.train_s"] = m(per_round(f"{prefix}.{mode}.train"), "s")
        out[f"{prefix}.{mode}.query_us"] = m(p50_us(f"{prefix}.{mode}.query"), "us")
    ib = tracer.predictions["actr.ib.family.query"] + tracer.predictions["actr.ib.direct.query"]
    out["actr.ib.degenerate_rate"] = m(
        sum(d for _, d in ib) / len(ib) if ib else None, "1")
    out["actr.ib.retained_chunks_mean"] = m(
        sum(r for r, _ in ib) / len(ib) if ib else None, "count")
    out["methods.train_method.calls"] = m(per_round("methods.train_method", "calls"), "count")
    out["methods.train_method.s"] = m(per_round("methods.train_method"), "s")
    for short in ("loocv", "split", "lofo"):
        train_s, predict_s = (v / rounds for v in tracer.protocol[short])
        out[f"evaluation.{short}.train_s"] = m(train_s, "s")
        out[f"evaluation.{short}.predict_s"] = m(predict_s, "s")
        out[f"evaluation.{short}.self_s"] = m(
            per_round(f"evaluation.{short}") - train_s - predict_s, "s")
    for fn in ("generate", "measure_overlap"):
        name = f"synthgen.{fn}"
        out[f"{name}.s"] = m(prepared[name]["total_s"] if name in prepared else 0.0, "s")
    out["ingest.parse_report.us"] = m(p50_us("ingest.parse_report"), "us")
    out["ingest.tokens_per_report"] = m(
        sum(tracer.tokens) / len(tracer.tokens) if tracer.tokens else None, "count")
    out["ingest.rejected"] = m(tracer.rejected / rounds, "count")
    out["cli.ingest.s"] = m(per_round("cli.ingest"), "s")
    for key, value in properties.items():
        out[f"input.{key}"] = m(value, "1" if isinstance(value, float) else "count")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in table.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"] / rounds
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = m(value, "s")
    return out


def span_table(tracer: Tracer, rounds: int) -> dict:
    """Per span name, per-round calls and seconds, plus the dominant layer and kind."""
    table = tracer.summarize()
    spans = {name: {"calls": e["calls"] / rounds, "total_s": e["total_s"] / rounds,
                    "self_s": e["self_s"] / rounds}
             for name, e in sorted(table.items())}
    by_layer, by_kind = {}, {}
    for name, e in spans.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + e["self_s"]
        by_kind[kind_of(name)] = by_kind.get(kind_of(name), 0.0) + e["self_s"]
    return {
        "spans": spans,
        "self_s_by_layer": by_layer,
        "self_s_by_kind": by_kind,
        "top_layer": max(by_layer, key=by_layer.get),
        "top_kind": max(by_kind, key=by_kind.get),
    }
