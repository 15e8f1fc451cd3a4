"""Command-line pipeline: stats, transforms, augmentation, training, evaluation.

Every run echoes the resolved configuration and seed; generated files
carry the producing command line as a provenance comment. Exit status is
0 on success, 1 on pipeline errors (printed with the failing module), 2
on usage errors. Any other exception raised in a package module also
exits 1, its type named in the error line.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import traceback

from . import conllu, metrics, ngram, projectivity, scramble, synthetic
from .conllu import Treebank, dump_treebank, load_treebank
# parse_tree is not called here but stays importable from this module:
# perfbench/tracing.py patches every binding of it.
from .parser import (ParserModel, TaggerModel, TrainConfig, parse_batch, parse_tree,  # noqa: F401
                     tag_batch, train_parser, train_tagger)
from .scramble import MAPPING_PRESETS, OrderLabel, TRANSITIVE_ORDERS

DEFAULT_SEED = 42  # when neither --seed nor SCRAMBLE_SEED is set


def _provenance_comment(argv) -> str:
    return "# generated_by = scrambleparse " + " ".join(argv)


def _stamp(tb: Treebank, argv) -> Treebank:
    if tb.trees:
        tb.trees[0].comments = [_provenance_comment(argv)] + list(tb.trees[0].comments)
    return tb


def _load_config(args) -> TrainConfig:
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    return cfg.merged(seed=args.seed)


def _echo(args, cfg: TrainConfig | None = None) -> None:
    print(f"[scrambleparse] command={args.command} seed={args.seed}")
    if cfg is not None:
        print("[scrambleparse] config " +
              " ".join(f"{k}={v}" for k, v in sorted(cfg.__dict__.items())))


def _union_treebank(paths) -> Treebank:
    trees = []
    for path in paths:
        trees.extend(load_treebank(path).trees)
    return Treebank(trees, source_name="+".join(str(p) for p in paths))


def _note_short_treebank(requested: int, tb: Treebank, flag: str) -> None:
    if requested > len(tb):
        print(f"[scrambleparse] note: {flag} {requested} exceeds the treebank's "
              f"{len(tb)} trees; using all of them")


def cmd_stats(args, argv):
    tb = load_treebank(args.input)
    mapping = MAPPING_PRESETS[args.labels]
    dist = scramble.order_distribution(tb, mapping)
    print("S.No.\tOrder\tPercentage")
    for i, label in enumerate(TRANSITIVE_ORDERS, start=1):
        print(f"{i}\t{' '.join(label.value)}\t{dist[label]:.2f}")
    ratio = projectivity.nonprojective_arc_ratio(tb)
    print(f"sentences\t{len(tb)}")
    print(f"nonprojective_arc_ratio\t{100.0 * ratio:.2f}")
    return 0


def cmd_projectivize(args, argv):
    tb = load_treebank(args.input)
    lifted = 0
    out = []
    for tree in tb:
        proj, records = projectivity.projectivize(tree)
        lifted += len(records)
        out.append(proj)
    result = _stamp(Treebank(out), argv)
    dump_treebank(result, args.output)
    print(f"projectivized {len(tb)} sentences, {lifted} lifted arcs -> {args.output}")
    return 0


def cmd_deproj(args, argv):
    tb = load_treebank(args.input)
    out = Treebank([projectivity.deprojectivize(tree) for tree in tb])
    dump_treebank(_stamp(out, argv), args.output)
    print(f"deprojectivized {len(tb)} sentences -> {args.output}")
    return 0


def cmd_select(args, argv):
    tb = load_treebank(args.input)
    _note_short_treebank(args.n, tb, "--n")
    subset = scramble.select_representative(tb, n=args.n, seed=args.seed)
    dump_treebank(_stamp(subset, argv), args.output)
    print(f"selected {len(subset)} of {len(tb)} sentences -> {args.output}")
    return 0


def cmd_train_lm(args, argv):
    corpus = ngram.read_corpus(args.corpus)
    model = ngram.train_lm(corpus, order=args.order)
    model.save(args.output, meta={"command": " ".join(argv)})
    print(f"trained order-{args.order} model on {len(corpus)} sentences "
          f"({len(model.vocab)} vocabulary items) -> {args.output}")
    return 0


def cmd_permute(args, argv):
    tb = load_treebank(args.input)
    mapping = MAPPING_PRESETS[args.labels]
    model = ngram.NGramModel.load(args.lm)
    if any(not projectivity.is_projective(t) for t in tb):
        print("input contains non-projective trees; projectivizing first")
        tb = Treebank([projectivity.projectivize(t)[0] for t in tb],
                      source_name=tb.source_name)
    _note_short_treebank(args.select, tb, "--select")
    subset = scramble.select_representative(tb, n=args.select, seed=args.seed)
    batches = []
    for tree in subset:
        for projection in scramble.extract_projections(tree, mapping):
            batch = scramble.permute_projection(tree, projection, limit=args.max_variants,
                                                mapping=mapping, seed=args.seed)
            batches.append(ngram.filter_by_perplexity(batch, model, k=args.keep))
    pool_size = sum(len(b.variants) for b in batches)
    augmented = scramble.balance_orders(batches, budget=args.budget)
    dump_treebank(_stamp(augmented, argv), args.output)
    dist = scramble.order_distribution(augmented, mapping)
    dist_str = " ".join(f"{l.value}={dist[l]:.1f}" for l in TRANSITIVE_ORDERS)
    print(f"permuted {len(subset)} sentences: pool {pool_size} filtered variants, "
          f"kept {len(augmented)} (budget {args.budget}) -> {args.output}")
    print(f"augmented order distribution: {dist_str}")
    return 0


def cmd_train(args, argv):
    """``train`` (the parser) and ``train-tagger``."""
    is_parser = args.command == "train"
    cfg = _load_config(args)
    if is_parser and args.pseudo_projective:
        cfg = cfg.merged(pseudo_projective=True)
    _echo(args, cfg)
    train = _union_treebank(args.train)
    dev = load_treebank(args.dev) if args.dev else None
    model = (train_parser if is_parser else train_tagger)(train, dev, cfg)
    model.save(args.output, extra_meta={"command": " ".join(argv)})
    print(f"trained {model.kind} on {len(train)} sentences -> {args.output}")
    return 0


def cmd_parse(args, argv):
    model = ParserModel.load(args.model)
    tb = load_treebank(args.input)
    tags = None
    if args.tagger:
        tags = tag_batch(TaggerModel.load(args.tagger), [tree.forms() for tree in tb])
    trees, fallbacks = parse_batch(model, tb.trees, tags)
    dump_treebank(_stamp(Treebank(trees), argv), args.output)
    mode = "predicted" if args.tagger else "input"
    print(f"parsed {len(tb)} sentences ({mode} tags), {fallbacks} headless tokens "
          f"attached to ROOT -> {args.output}")
    return 0


def cmd_tag(args, argv):
    model = TaggerModel.load(args.model)
    tb = load_treebank(args.input)
    tags = tag_batch(model, [tree.forms() for tree in tb])
    tagged = Treebank([conllu.retag(tree, t) for tree, t in zip(tb, tags)])
    dump_treebank(_stamp(tagged, argv), args.output)
    print(f"tagged {len(tb)} sentences -> {args.output}")
    return 0


def cmd_eval(args, argv):
    gold = load_treebank(args.gold)
    pred = load_treebank(args.pred)
    mapping = MAPPING_PRESETS[args.labels]
    overall = metrics.score(gold, pred, exclude_punct=not args.include_punct)
    by_order = metrics.score_by_order(gold, pred, mapping,
                                      exclude_punct=not args.include_punct)
    pos = metrics.pos_accuracy(gold, [t.upos_tags() for t in pred])
    print(f"LAS\t{overall.las:.2f}")
    print(f"UAS\t{overall.uas:.2f}")
    print(f"POS\t{pos:.2f}")
    print("class\tLAS\tUAS\ttokens")
    for label in list(TRANSITIVE_ORDERS) + [OrderLabel.NONTRANSITIVE]:
        if label in by_order:
            s = by_order[label]
            print(f"{label.value}\t{s.las:.2f}\t{s.uas:.2f}\t{s.tokens_scored}")
    record = overall.as_dict()
    record["pos"] = round(pos, 2)
    record["by_order"] = {l.value: s.as_dict() for l, s in by_order.items()}
    print(json.dumps(record))
    return 0


def cmd_curve(args, argv):
    cfg = _load_config(args)
    _echo(args, cfg)
    train = load_treebank(args.train)
    dev = load_treebank(args.dev)
    sizes = [int(s) for s in args.sizes.split(",")]
    curve = metrics.learning_curve(train, dev, sizes, cfg)
    print(metrics.format_curve(curve))
    return 0


def cmd_gen_synthetic(args, argv):
    weights = synthetic.parse_order_spec(args.orders)
    grammar = synthetic.default_grammar(order_weights=weights)
    tb = synthetic.gen_synthetic(grammar, n=args.n, seed=args.seed)
    dump_treebank(_stamp(tb, argv), args.output)
    print(f"generated {len(tb)} trees -> {args.output}")
    if args.text_out:
        with open(args.text_out, "w", encoding="utf-8") as f:
            for sent in synthetic.text_corpus(tb):
                f.write(" ".join(sent) + "\n")
        print(f"wrote raw text corpus -> {args.text_out}")
    return 0


def _count(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got '{text}'")
    return value


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """Built once per process; ``run`` resolves the ``--seed`` default."""
    p = argparse.ArgumentParser(prog="scrambleparse",
                                description="word-order augmentation and arc-eager parsing")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=fn)
        sp.add_argument("--seed", type=int, default=None)
        return sp

    sp = add("stats", cmd_stats, help="order distribution and projectivity stats")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--labels", choices=sorted(MAPPING_PRESETS), default="ud")

    sp = add("projectivize", cmd_projectivize, help="pseudo-projective encoding")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)

    sp = add("deproj", cmd_deproj, help="inverse pseudo-projective transform")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)

    sp = add("select", cmd_select, help="representative subset selection")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--n", type=_count, default=4000)

    sp = add("train-lm", cmd_train_lm, help="train the n-gram language model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--order", type=_count, default=3)

    sp = add("permute", cmd_permute, help="generate the augmented treebank")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--lm", required=True)
    sp.add_argument("--labels", choices=sorted(MAPPING_PRESETS), default="ud")
    sp.add_argument("--budget", type=_count, default=9000)
    sp.add_argument("--select", type=_count, default=4000)
    sp.add_argument("--keep", type=_count, default=None,
                    help="survivors per projection (default: unit count)")
    sp.add_argument("--max-variants", type=_count, default=120)

    for name in ("train", "train-tagger"):
        sp = add(name, cmd_train, help=f"{name.replace('-', ' ')} on CoNLL-U data")
        sp.add_argument("--train", action="append", required=True,
                        help="training treebank (repeat for union training)")
        sp.add_argument("--dev", default=None)
        sp.add_argument("--out", dest="output", required=True)
        sp.add_argument("--config", default=None)
        if name == "train":
            sp.add_argument("--pseudo-projective", action="store_true")

    sp = add("parse", cmd_parse, help="greedy parsing")
    sp.add_argument("--model", required=True)
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--tagger", default=None,
                    help="tagger checkpoint for the predicted-POS setting")

    sp = add("tag", cmd_tag, help="POS tagging")
    sp.add_argument("--model", required=True)
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)

    sp = add("eval", cmd_eval, help="LAS/UAS, POS accuracy, order-stratified scores")
    sp.add_argument("--gold", required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--labels", choices=sorted(MAPPING_PRESETS), default="ud")
    sp.add_argument("--include-punct", action="store_true")

    sp = add("curve", cmd_curve, help="learning curve over training prefixes")
    sp.add_argument("--train", required=True)
    sp.add_argument("--dev", required=True)
    sp.add_argument("--sizes", default="250,500,1000,2000")
    sp.add_argument("--config", default=None)

    sp = add("gen-synthetic", cmd_gen_synthetic, help="synthetic-grammar treebank")
    sp.add_argument("--n", type=_count, required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--orders", default="sov=1.0",
                    help='"uniform" or comma list like sov=0.8,osv=0.2')
    sp.add_argument("--text-out", default=None)

    return p


def _failing_module(exc) -> tuple[str, bool]:
    """The innermost package module on ``exc``'s traceback, and whether
    ``exc`` was raised there rather than in code the package called."""
    package_dir = os.path.dirname(__file__)
    module, raised_here = "scrambleparse", False
    for frame in traceback.extract_tb(exc.__traceback__):
        raised_here = os.path.dirname(frame.filename) == package_dir
        if raised_here:
            module = "scrambleparse." + os.path.splitext(os.path.basename(frame.filename))[0]
    return module, raised_here


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed is None:
            args.seed = int(os.environ.get("SCRAMBLE_SEED") or DEFAULT_SEED)
        if args.command not in ("train", "train-tagger", "curve"):
            _echo(args)
        return args.handler(args, argv)
    except Exception as exc:
        module, raised_here = _failing_module(exc)
        message = str(exc)
        if not isinstance(exc, (ValueError, OSError, FloatingPointError)):
            if not raised_here:
                raise  # a fault outside the package keeps its traceback
            message = f"{type(exc).__name__}: {exc}"
        print(f"error [{module}]: {message}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    sys.exit(run())


if __name__ == "__main__":
    main()
