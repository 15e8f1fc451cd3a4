"""Span tracing of the scrambleparse modules, from outside the package.

``traced(tracer)`` wraps the public entry points of every module for the
duration of a ``with`` block. Each function is patched under every name
a caller can look it up by (``parser.parse_tree`` and ``cli.parse_tree``
are the same object, so both are replaced). Spans are kept in memory as
``[name, start, end, parent, run_id]`` and written out once, at exit.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from scrambleparse import (arceager, cli, conllu, metrics, ngram, nn, parser,
                           projectivity, scramble, synthetic)

CLI_STAGES = ("gen-synthetic", "train-lm", "permute", "train", "parse", "eval")
UNIT_BINS = ("le3", "4", "5", "6", "7", "ge8")


class Tracer:
    """In-memory spans and per-run counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.run_id = 0
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.run_id, Counter())[key] += n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")


# Hooks see (tracer, args, result) and return the result the caller gets.

def _count_len(key, of_arg=None):
    def hook(t, args, result):
        t.count(key, len(args[of_arg] if of_arg is not None else result))
        return result
    return hook


def _on_permute(t, args, result):
    units = args[1].unit_count
    t.count("scramble.variants_built", len(result.variants))
    t.count("scramble.units_hist." + ("le3" if units <= 3 else "ge8" if units >= 8 else str(units)))
    return result


def _on_filter(t, args, result):
    t.count("ngram.variants_scored", len(args[0].variants))
    t.count("ngram.survivors", len(result.variants))
    return result


def _on_mlp_forward(t, args, result):
    t.count("nn.mlp_rows", int(np.shape(args[1])[0]))
    return result


def _on_sentence_loss(t, args, result):
    loss, backprop = result
    return loss, lambda: t.call("parser.backprop", backprop, (), {})


# (owner, attribute, span name, hook). Functions are patched wherever the
# same object is bound in a scrambleparse module; methods on their class.
TARGETS = (
    (cli, "run", None, None),
    (conllu, "load_treebank", "conllu.load", _count_len("conllu.sentences_io")),
    (conllu, "dump_treebank", "conllu.dump", _count_len("conllu.sentences_io", of_arg=0)),
    (projectivity, "is_projective", "projectivity.is_projective", None),
    (arceager, "static_oracle", "arceager.static_oracle", None),
    (arceager, "apply", "arceager.apply", None),
    (arceager, "legal_transitions", "arceager.legal_transitions", None),
    (scramble, "extract_projections", "scramble.extract", _count_len("scramble.projections")),
    (scramble, "permute_projection", "scramble.permute", _on_permute),
    (scramble, "balance_orders", "scramble.balance", _count_len("scramble.kept")),
    (ngram, "train_lm", "ngram.train", None),
    (ngram, "filter_by_perplexity", "ngram.filter", _on_filter),
    (ngram.NGramModel, "load", "ngram.load", None),
    (nn.BiLSTM, "forward", "nn.BiLSTM.forward", None),
    (nn.BiLSTM, "backward", "nn.BiLSTM.backward", None),
    (nn.BiLSTMStack, "forward", "nn.BiLSTMStack.forward", None),
    (nn.BiLSTMStack, "backward", "nn.BiLSTMStack.backward", None),
    (nn.MLP, "forward", "nn.MLP.forward", _on_mlp_forward),
    (nn.MLP, "backward", "nn.MLP.backward", None),
    (nn.MomentumSGD, "step", "nn.sgd_step", None),
    (nn, "save_checkpoint", "nn.checkpoint_save", None),
    (nn, "load_checkpoint", "nn.checkpoint_load", None),
    (parser, "train_parser", "parser.train_parser", None),
    (parser, "sentence_loss", "parser.sentence_loss", _on_sentence_loss),
    (parser.SentenceEncoder, "encode", "parser.encode", None),
    (parser.SentenceEncoder, "backward", "parser.encoder_backward", None),
    (parser, "parse", "parser.parse", None),
    (parser, "parse_tree", "parser.parse_tree", None),
    (metrics, "score", "metrics.score", None),
    (metrics, "score_by_order", "metrics.score_by_order", None),
    (synthetic, "gen_synthetic", "synthetic.gen", None),
)


def _wrap(tracer: Tracer, name, fn, hook):
    def wrapper(*args, **kwargs):
        span = name if name is not None else "cli." + str((args[0] if args else kwargs["argv"])[0])
        result = tracer.call(span, fn, args, kwargs)
        return hook(tracer, args, result) if hook is not None else result
    return wrapper


def _bindings(fn):
    """Every (module, attribute) of the package bound to ``fn``."""
    return [(mod, attr) for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod_name.split(".")[0] == "scrambleparse"
            for attr, value in list(vars(mod).items()) if value is fn]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    undo = []
    try:
        for owner, attr, name, hook in TARGETS:
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__, hook))
                else:
                    new = _wrap(tracer, name, raw, hook)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                fn = getattr(owner, attr)
                new = _wrap(tracer, name, fn, hook)
                for mod, mod_attr in _bindings(fn):
                    undo.append((mod, mod_attr, fn))
                    setattr(mod, mod_attr, new)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, run_id: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced run of the chain."""
    spans = tracer.spans
    selfs = self_times(spans)
    counts = tracer.counts.get(run_id, Counter())
    total: Counter = Counter()
    self_total: Counter = Counter()
    calls: Counter = Counter()
    parse_ms = []
    decode_steps = char_fwd = char_bwd = 0.0
    char_calls = 0
    for i, (name, start, end, parent, rid) in enumerate(spans):
        if rid != run_id:
            continue
        dur = end - start
        total[name] += dur
        self_total[name] += selfs[i]
        calls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "parser.parse_tree":
            parse_ms.append(1e3 * dur)
        elif name == "arceager.apply" and parent_name == "parser.parse":
            decode_steps += 1
        elif name == "nn.BiLSTM.forward" and parent_name != "nn.BiLSTMStack.forward":
            char_fwd += dur
            char_calls += 1
        elif name == "nn.BiLSTM.backward" and parent_name != "nn.BiLSTMStack.backward":
            char_bwd += dur

    m = {f"cli.stage_s.{s}": total["cli." + s] for s in CLI_STAGES}
    m["cli.overhead_s"] = sum(self_total["cli." + s] for s in CLI_STAGES)
    m["conllu.load_s"] = total["conllu.load"]
    m["conllu.dump_s"] = total["conllu.dump"]
    m["conllu.sentences_io"] = counts["conllu.sentences_io"]
    m["projectivity.check_s"] = total["projectivity.is_projective"]
    m["projectivity.calls"] = calls["projectivity.is_projective"]
    m["arceager.oracle_s"] = total["arceager.static_oracle"]
    m["arceager.decode_steps"] = decode_steps
    m["arceager.legal_s"] = total["arceager.legal_transitions"]
    m["scramble.extract_s"] = total["scramble.extract"]
    m["scramble.permute_s"] = total["scramble.permute"]
    m["scramble.variants_built"] = counts["scramble.variants_built"]
    m["scramble.projections"] = counts["scramble.projections"]
    for b in UNIT_BINS:
        m[f"scramble.units_hist.{b}"] = counts[f"scramble.units_hist.{b}"]
    m["scramble.balance_s"] = total["scramble.balance"]
    m["scramble.kept_ratio"] = _ratio(counts["scramble.kept"], counts["scramble.variants_built"])
    m["ngram.filter_s"] = total["ngram.filter"]
    m["ngram.variants_scored"] = counts["ngram.variants_scored"]
    m["ngram.survivor_ratio"] = _ratio(counts["ngram.survivors"], counts["ngram.variants_scored"])
    m["ngram.train_s"] = total["ngram.train"]
    m["ngram.load_s"] = total["ngram.load"]
    m["nn.char_bilstm_fwd_s"] = char_fwd
    m["nn.char_bilstm_bwd_s"] = char_bwd
    m["nn.char_bilstm_calls"] = char_calls
    m["nn.enc_stack_fwd_s"] = total["nn.BiLSTMStack.forward"]
    m["nn.enc_stack_bwd_s"] = total["nn.BiLSTMStack.backward"]
    m["nn.mlp_fwd_s"] = total["nn.MLP.forward"]
    m["nn.mlp_bwd_s"] = total["nn.MLP.backward"]
    m["nn.mlp_fwd_calls"] = calls["nn.MLP.forward"]
    m["nn.mlp_rows_per_call"] = _ratio(counts["nn.mlp_rows"], calls["nn.MLP.forward"])
    m["nn.sgd_step_s"] = total["nn.sgd_step"]
    m["nn.sgd_steps"] = calls["nn.sgd_step"]
    m["nn.checkpoint_save_s"] = total["nn.checkpoint_save"]
    m["nn.checkpoint_load_s"] = total["nn.checkpoint_load"]
    m["parser.encode_s"] = total["parser.encode"]
    m["parser.encoder_bwd_s"] = total["parser.encoder_backward"]
    m["parser.loss_self_s"] = self_total["parser.sentence_loss"] + self_total["parser.backprop"]
    m["parser.decode_self_s"] = self_total["parser.parse"]
    m["parser.parse_sent_p50_ms"] = float(np.percentile(parse_ms, 50)) if parse_ms else 0.0
    m["parser.parse_sent_p90_ms"] = float(np.percentile(parse_ms, 90)) if parse_ms else 0.0
    m["metrics.score_s"] = total["metrics.score"] + total["metrics.score_by_order"]
    m["synthetic.gen_s"] = total["synthetic.gen"]
    m["trace.wall_s"] = wall_s
    return {k: float(v) for k, v in m.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
