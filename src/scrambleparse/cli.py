"""Command-line pipeline: stats, transforms, augmentation, training, evaluation.

Every run echoes the resolved configuration and seed; generated files
carry the producing command line as a provenance comment. Exit status is
0 on success, 1 on pipeline errors (printed with the failing module), 2
on usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import conllu, metrics, ngram, projectivity, scramble, synthetic
from .conllu import Treebank, dump_treebank, load_treebank
from .parser import (ParserModel, TaggerModel, TrainConfig, parse_tree,
                     train_parser, train_tagger, tag as tag_sentence)
from .scramble import MAPPING_PRESETS, OrderLabel, TRANSITIVE_ORDERS

DEFAULT_SEED = 42


def _default_seed() -> int:
    env = os.environ.get("SCRAMBLE_SEED")
    return int(env) if env else DEFAULT_SEED


def _pmap(fn, items, jobs: int):
    """Order-preserving map, optionally across processes."""
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _provenance_comment(argv) -> str:
    return "# generated_by = scrambleparse " + " ".join(argv)


def _stamp(tb: Treebank, argv) -> Treebank:
    if tb.trees:
        tb.trees[0].comments = [_provenance_comment(argv)] + list(tb.trees[0].comments)
    return tb


def _load_config(args) -> TrainConfig:
    cfg = TrainConfig.from_file(args.config) if getattr(args, "config", None) else TrainConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.merged(seed=args.seed)
    return cfg


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


def _permute_one(item):
    tree, mapping, limit, seed, model, keep = item
    batches = []
    for projection in scramble.extract_projections(tree, mapping):
        batch = scramble.permute_projection(tree, projection, limit=limit,
                                            mapping=mapping, seed=seed)
        batches.append(ngram.filter_by_perplexity(batch, model, k=keep))
    return batches


def cmd_permute(args, argv):
    tb = load_treebank(args.input)
    mapping = MAPPING_PRESETS[args.labels]
    model = ngram.NGramModel.load(args.lm)
    if any(not projectivity.is_projective(t) for t in tb):
        print("input contains non-projective trees; projectivizing first")
        tb = Treebank([projectivity.projectivize(t)[0] for t in tb],
                      source_name=tb.source_name)
    subset = scramble.select_representative(tb, n=args.select, seed=args.seed)
    work = [(tree, mapping, args.max_variants, args.seed, model, args.keep)
            for tree in subset]
    batches = [b for per_tree in _pmap(_permute_one, work, args.jobs) for b in per_tree]
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
    cfg = _load_config(args)
    if args.pseudo_projective:
        cfg = cfg.merged(pseudo_projective=True)
    _echo(args, cfg)
    train = _union_treebank(args.train)
    if cfg.pseudo_projective:
        train = Treebank([projectivity.projectivize(t)[0] for t in train],
                         source_name=train.source_name)
    dev = load_treebank(args.dev) if args.dev else None
    model = train_parser(train, dev, cfg)
    model.save(args.output, extra_meta={"command": " ".join(argv)})
    print(f"trained parser on {len(train)} sentences -> {args.output}")
    return 0


def cmd_train_tagger(args, argv):
    cfg = _load_config(args)
    _echo(args, cfg)
    train = _union_treebank(args.train)
    dev = load_treebank(args.dev) if args.dev else None
    model = train_tagger(train, dev, cfg)
    model.save(args.output, extra_meta={"command": " ".join(argv)})
    print(f"trained tagger on {len(train)} sentences -> {args.output}")
    return 0


def cmd_parse(args, argv):
    model = ParserModel.load(args.model)
    tb = load_treebank(args.input)
    tagger = TaggerModel.load(args.tagger) if args.tagger else None
    memo: dict = {}
    trees = []
    for tree in tb:
        tags = tag_sentence(tagger, tree.forms()) if tagger else None
        trees.append(parse_tree(model, tree, tags=tags, memo=memo))
    pred = Treebank(trees)
    dump_treebank(_stamp(pred, argv), args.output)
    mode = "predicted" if tagger else "input"
    print(f"parsed {len(tb)} sentences ({mode} tags) -> {args.output}")
    return 0


def cmd_tag(args, argv):
    model = TaggerModel.load(args.model)
    tb = load_treebank(args.input)
    tagged = Treebank([conllu.retag(tree, tag_sentence(model, tree.forms()))
                       for tree in tb])
    dump_treebank(_stamp(tagged, argv), args.output)
    print(f"tagged {len(tb)} sentences -> {args.output}")
    return 0


def _classify_one(item):
    tree, mapping = item
    return scramble.classify_order(tree, mapping)


def cmd_eval(args, argv):
    gold = load_treebank(args.gold)
    pred = load_treebank(args.pred)
    mapping = MAPPING_PRESETS[args.labels]
    overall = metrics.score(gold, pred, exclude_punct=not args.include_punct)
    labels = _pmap(_classify_one, [(t, mapping) for t in gold], args.jobs)
    by_order = metrics.score_by_order(gold, pred, mapping,
                                      exclude_punct=not args.include_punct,
                                      labels=labels)
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


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scrambleparse",
                                description="word-order augmentation and arc-eager parsing")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=fn)
        sp.add_argument("--seed", type=int, default=_default_seed())
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
    sp.add_argument("--n", type=int, default=4000)

    sp = add("train-lm", cmd_train_lm, help="train the n-gram language model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--order", type=int, default=3)

    sp = add("permute", cmd_permute, help="generate the augmented treebank")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--lm", required=True)
    sp.add_argument("--labels", choices=sorted(MAPPING_PRESETS), default="ud")
    sp.add_argument("--budget", type=int, default=9000)
    sp.add_argument("--select", type=int, default=4000)
    sp.add_argument("--keep", type=int, default=None,
                    help="survivors per projection (default: unit count)")
    sp.add_argument("--max-variants", type=int, default=120)
    sp.add_argument("--jobs", type=int, default=1)

    for name, fn in (("train", cmd_train), ("train-tagger", cmd_train_tagger)):
        sp = add(name, fn, help=f"{name.replace('-', ' ')} on CoNLL-U data")
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
    sp.add_argument("--jobs", type=int, default=1)

    sp = add("curve", cmd_curve, help="learning curve over training prefixes")
    sp.add_argument("--train", required=True)
    sp.add_argument("--dev", required=True)
    sp.add_argument("--sizes", default="250,500,1000,2000")
    sp.add_argument("--config", default=None)

    sp = add("gen-synthetic", cmd_gen_synthetic, help="synthetic-grammar treebank")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--orders", default="sov=1.0",
                    help='"uniform" or comma list like sov=0.8,osv=0.2')
    sp.add_argument("--text-out", default=None)

    return p


def _failing_module(exc) -> str:
    package_dir = os.path.dirname(__file__)
    module = "scrambleparse"
    for frame in traceback.extract_tb(exc.__traceback__):
        if os.path.dirname(frame.filename) == package_dir:
            module = "scrambleparse." + os.path.splitext(os.path.basename(frame.filename))[0]
    return module


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command not in ("train", "train-tagger", "curve"):
        _echo(args)
    try:
        return args.handler(args, argv)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error [{_failing_module(exc)}]: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    sys.exit(run())


if __name__ == "__main__":
    main()
