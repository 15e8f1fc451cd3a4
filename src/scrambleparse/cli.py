"""Command-line pipeline: stats, transforms, augmentation, training, evaluation.

Every run echoes the resolved configuration and seed; generated files
carry the producing command line as a provenance comment. Exit status is
0 on success, 1 on pipeline errors (printed with the failing module), 2
on usage errors. Any other exception raised in a package module also
exits 1, its type named in the error line. A reader that closes stdout
early (``scrambleparse eval ... | head -1``) ends the run with status 141,
the status a shell gives a command killed by SIGPIPE, and no error line;
files the run had already written stay written.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import traceback
from dataclasses import replace

from . import conllu, metrics, ngram, projectivity, scramble, synthetic
from .conllu import Treebank, dump_treebank, load_treebank
# parse_tree is not called here but stays importable from this module:
# perfbench/tracing.py patches every binding of it.
from .parser import (ParserModel, TaggerModel, TrainConfig, parse_batch, parse_tree,  # noqa: F401
                     tag_batch, train_parser, train_tagger)
from .scramble import MAPPING_PRESETS, OrderLabel, TRANSITIVE_ORDERS

DEFAULT_SEED = 42  # when neither --seed nor SCRAMBLE_SEED is set

log = logging.getLogger("scrambleparse.cli")  # not __name__, which -m makes __main__


def _provenance_comment(argv) -> str:
    return "# generated_by = scrambleparse " + " ".join(argv)


def _stamp(tb: Treebank, argv) -> Treebank:
    if tb.trees:
        tb.trees[0].comments = [_provenance_comment(argv)] + list(tb.trees[0].comments)
    return tb


def _load_config(args) -> TrainConfig:
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    return replace(cfg, seed=args.seed)


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
        log.info("note: %s %d exceeds the treebank's %d trees; using all of them",
                 flag, requested, len(tb))


def _na(value, spec: str = ".2f") -> str:
    """``value`` formatted; n/a for None, a ratio or percentage with no base."""
    return "n/a" if value is None else format(value, spec)


def cmd_stats(args, argv):
    tb = load_treebank(args.input)
    mapping = MAPPING_PRESETS[args.labels]
    labels = [scramble.classify_order(tree, mapping) for tree in tb]
    dist = scramble.order_distribution(labels)
    ratio = projectivity.nonprojective_arc_ratio(tb)
    print("S.No.\tOrder\tPercentage")
    for i, label in enumerate(TRANSITIVE_ORDERS, start=1):
        print(f"{i}\t{' '.join(label.value)}\t{_na(dist.get(label))}")
    print(f"sentences\t{len(tb)}")
    print(f"transitive_sentences\t{len(labels) - labels.count(OrderLabel.NONTRANSITIVE)}")
    print(f"nonprojective_arc_ratio\t{_na(None if ratio is None else 100.0 * ratio)}")
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


def _filter(batches, model, keep):
    """Each batch's survivors, all the batches' rows scored in one pass."""
    ngram.score_batches(batches, model)
    return [ngram.filter_by_perplexity(batch, k=keep) for batch in batches]


def cmd_permute(args, argv):
    tb = load_treebank(args.input)
    mapping = MAPPING_PRESETS[args.labels]
    model = ngram.NGramModel.load(args.lm)
    if any(not projectivity.is_projective(t) for t in tb):
        lifts = [projectivity.projectivize(t) for t in tb]
        log.info("note: projectivized the input first: %d non-projective of %d trees, "
                 "%d lifted arcs", sum(bool(records) for _, records in lifts), len(tb),
                 sum(len(records) for _, records in lifts))
        tb = Treebank([proj for proj, _ in lifts], source_name=tb.source_name)
    _note_short_treebank(args.select, tb, "--select")
    subset = scramble.select_representative(tb, n=args.select, seed=args.seed)
    batches, pending, rows = [], [], 0
    for tree in subset:
        for projection in scramble.extract_projections(tree, mapping):
            pending.append(scramble.permute_projection(tree, projection, limit=args.max_variants,
                                                       mapping=mapping, seed=args.seed))
            rows += len(pending[-1].perms)
            if rows >= ngram.PASS_ROWS:
                batches += _filter(pending, model, args.keep)
                pending, rows = [], 0
    batches += _filter(pending, model, args.keep)
    pool_size = sum(len(b.variants) for b in batches)
    kept = scramble.balance_orders(batches, budget=args.budget)
    dump_treebank(_stamp(Treebank([v.tree for v in kept]), argv), args.output)
    dist = scramble.order_distribution(v.order for v in kept)
    dist_str = " ".join(f"{l.value}={_na(dist.get(l), '.1f')}" for l in TRANSITIVE_ORDERS)
    print(f"permuted {len(subset)} sentences: pool {pool_size} filtered variants, "
          f"kept {len(kept)} (budget {args.budget}) -> {args.output}")
    print(f"augmented order distribution: {dist_str}")
    return 0


def cmd_train(args, argv):
    """``train`` (the parser) and ``train-tagger``."""
    is_parser = args.command == "train"
    cfg = _load_config(args)
    if is_parser and args.pseudo_projective:
        cfg = replace(cfg, pseudo_projective=True)
    _echo(args, cfg)
    train = _union_treebank(args.train)
    dev = load_treebank(args.dev) if args.dev else None
    model = (train_parser if is_parser else train_tagger)(train, dev, cfg)
    model.save(args.output, extra_meta={"command": " ".join(argv)})
    used = sum(len(tree) > 0 for tree in train)  # a block of no token gives no example
    print(f"trained {model.kind} on {used} sentences -> {args.output}")
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
    # No tag to score in an empty file, or one of comment blocks only
    pos = (metrics.pos_accuracy(gold, [t.upos_tags() for t in pred])
           if any(len(t) for t in gold) else None)
    record = overall.as_dict()
    print(f"LAS\t{_na(record['las'])}")
    print(f"UAS\t{_na(record['uas'])}")
    print(f"POS\t{_na(pos)}")
    print("class\tLAS\tUAS\ttokens")
    for label in list(TRANSITIVE_ORDERS) + [OrderLabel.NONTRANSITIVE]:
        if label in by_order:
            s = by_order[label].as_dict()
            print(f"{label.value}\t{_na(s['las'])}\t{_na(s['uas'])}\t{s['n_tokens']}")
    record["pos"] = None if pos is None else round(pos, 2)
    record["by_order"] = {l.value: s.as_dict() for l, s in by_order.items()}
    print(json.dumps(record))
    return 0


def cmd_curve(args, argv):
    cfg = _load_config(args)
    _echo(args, cfg)
    train = load_treebank(args.train)
    dev = load_treebank(args.dev)
    if args.sizes[-1] > len(train):
        raise ValueError(f"largest size {args.sizes[-1]} exceeds the training treebank's "
                         f"{len(train)} trees")
    print("size\tLAS\tUAS")
    for size in args.sizes:
        model = train_parser(Treebank(train.trees[:size]), None, cfg)
        s = metrics.score(dev, Treebank(parse_batch(model, dev.trees)[0])).as_dict()
        print(f"{size}\t{_na(s['las'])}\t{_na(s['uas'])}")
    return 0


def cmd_gen_synthetic(args, argv):
    weights = synthetic.parse_order_spec(args.orders)
    grammar = synthetic.default_grammar(order_weights=weights, shared_nouns=args.shared_nouns)
    tb = synthetic.gen_synthetic(grammar, n=args.n, seed=args.seed, drop_case=args.drop_case)
    dump_treebank(_stamp(tb, argv), args.output)
    print(f"generated {len(tb)} trees -> {args.output}")
    if args.text_out:
        with open(args.text_out, "w", encoding="utf-8") as f:
            for sent in synthetic.text_corpus(tb):
                f.write(" ".join(sent) + "\n")
        print(f"wrote raw text corpus -> {args.text_out}")
    return 0


def _probability(text: str) -> float:
    """argparse type of a probability: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got '{text}'")
    return value


# permute --max-variants: every order of a clause of up to 8 units, and a
# bound on the memory of a longer clause's sampled ones.
MAX_VARIANTS = math.factorial(8)


def _count(text: str, most: float = math.inf) -> int:
    """argparse type of a count: an integer of at least 1, at most ``most``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got '{text}'")
    if value > most:
        raise argparse.ArgumentTypeError(f"expected an integer <= {most}, got '{text}'")
    return value


def _sizes(text: str) -> list[int]:
    """argparse type of ``curve --sizes``: counts separated by commas,
    strictly increasing."""
    try:
        sizes = [_count(s) for s in text.split(",")]
    except argparse.ArgumentTypeError:
        sizes = []
    if not sizes or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError("expected strictly increasing integers >= 1 "
                                         f"separated by commas, got '{text}'")
    return sizes


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
    sp.add_argument("--max-variants", type=functools.partial(_count, most=MAX_VARIANTS),
                    default=120)

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
    sp.add_argument("--sizes", type=_sizes, default="250,500,1000,2000")
    sp.add_argument("--config", default=None)

    sp = add("gen-synthetic", cmd_gen_synthetic, help="synthetic-grammar treebank")
    sp.add_argument("--n", type=_count, required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--orders", default="sov=1.0",
                    help='"uniform" or comma list like sov=0.8,osv=0.2')
    sp.add_argument("--text-out", default=None)
    sp.add_argument("--shared-nouns", action="store_true",
                    help="objects draw from the subjects' nouns")
    sp.add_argument("--drop-case", type=_probability, default=0.0, metavar="P",
                    help="drop each subject's case marker with probability P")

    return p


def _failing_module(exc) -> tuple[str, bool]:
    """The innermost package module on ``exc``'s traceback, and whether
    ``exc`` was raised there rather than in code the package called.
    ``conllu.read_lines`` reads every text input, so a package frame that
    calls it is named in its place: the reader that asked for the file."""
    package_dir = os.path.dirname(__file__)
    module, raised_here = "scrambleparse", False
    for frame in traceback.extract_tb(exc.__traceback__):
        called_from_package = raised_here
        raised_here = os.path.dirname(frame.filename) == package_dir
        name = "scrambleparse." + os.path.splitext(os.path.basename(frame.filename))[0]
        shared_reader = (name, frame.name) == ("scrambleparse.conllu", "read_lines")
        if raised_here and not (shared_reader and called_from_package):
            module = name
    return module, raised_here


EXIT_CLOSED_STDOUT = 128 + 13  # 128 + SIGPIPE


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
        status = args.handler(args, argv)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # Whatever is still buffered goes to the null device, so the
        # interpreter's last flush finds no broken pipe either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
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
    logging.basicConfig(level=logging.INFO, format="[scrambleparse] %(message)s")
    sys.exit(run())


if __name__ == "__main__":
    main()
