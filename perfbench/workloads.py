"""Workload definitions, seeded input generation and the stage chain.

Every workload runs the same chain of CLI stages, the paper's experiment
(permute -> train baseline -> train augmented -> parse -> eval). The
workloads differ in the inputs the chain is fed, so that each stresses
different layers; README.md in this directory says why each one exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from scrambleparse import conllu, scramble, synthetic
from scrambleparse.conllu import DepTree, Token, Treebank

# The README walkthrough train.cfg; only the epoch count varies.
TRAIN_CFG = """word_dim = 32
enc_hidden = 64
char_hidden = 32
epochs = {epochs}
lr = 0.1
momentum = 0.9
lr_decay = 0.05
mlp_dropout = 0.0
"""
# Epochs of the timed chain: one, so that every train call is short.
EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    clauses: int        # clauses joined per sentence: 1 = short, 3 = long
    n_source: int       # SOV source trees fed to permute
    n_train: int        # the first n_train source trees train both parsers
    budget: int         # augmented trees kept by permute
    n_test: int         # sentences in each of the two test sets
    n_lm: int           # sentences in the uniform-order LM corpus
    accuracy_epochs: int = 0  # > 0: LAS from an untimed run with this many epochs


WORKLOADS = {
    w.name: w for w in (
        Workload("augment", clauses=1, n_source=240, n_train=8, budget=8,
                 n_test=10, n_lm=1000),
        Workload("pipeline", clauses=1, n_source=100, n_train=40, budget=40,
                 n_test=30, n_lm=1000, accuracy_epochs=3),
        Workload("long", clauses=3, n_source=12, n_train=12, budget=12,
                 n_test=10, n_lm=1000),
    )
}

# Tiny version of the chain, run during set-up so that lazy initialisation
# is paid before anything is timed.
WARMUP = Workload("warmup", clauses=1, n_source=4, n_train=4, budget=4,
                  n_test=2, n_lm=20)

# Stream offsets keep the generated sets of one seed independent.
_SOURCE, _SCRAMBLED, _CANONICAL, _LM = range(4)

# Shares of clauses with an indirect object and/or an adverb: the default
# grammar's p_iobj = p_adjunct = 0.3, drawn independently. Generated sets
# hold these shares exactly, so a clause's length and unit count (hence
# permute's n! work) have the same mix for every seed.
ROLE_MIX = {(False, False): 0.49, (True, False): 0.21, (False, True): 0.21, (True, True): 0.09}


def sub_seed(seed: int, stream: int) -> int:
    return seed * 10 + stream


def role_quotas(n: int) -> dict:
    """ROLE_MIX shares of n clauses, rounded by largest remainder."""
    raw = {k: p * n for k, p in ROLE_MIX.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[:n - sum(counts.values())]:
        counts[k] += 1
    return counts


def gen_clauses(n: int, orders: str, seed: int) -> list[DepTree]:
    """n synthetic clauses with the ROLE_MIX shares, in generation order."""
    grammar = synthetic.default_grammar(order_weights=synthetic.parse_order_spec(orders))
    need = role_quotas(n)
    out = []
    for tree in synthetic.gen_synthetic(grammar, n=4 * n + 40, seed=seed):
        deprels = {t.deprel for t in tree.tokens}
        key = ("iobj" in deprels, "advmod" in deprels)
        if need[key]:
            need[key] -= 1
            out.append(tree)
    if len(out) != n:
        raise ValueError(f"could not fill the role quotas of {n} clauses (seed {seed})")
    return out


def join_clauses(clauses: list[DepTree], sent_id: str) -> DepTree:
    """One sentence from k synthetic clauses.

    Each clause loses its final punctuation; the verb of every later clause
    attaches to the first clause's verb as ``ccomp``; one ``punct`` closes
    the sentence. The result is projective because every clause is a
    contiguous subtree of its verb.
    """
    tokens: list[Token] = []
    main_verb = None
    for clause in clauses:
        offset = len(tokens)
        for t in clause.tokens:
            if t.deprel == "punct":
                continue
            if t.head != 0:
                head, deprel = offset + t.head, t.deprel
            elif main_verb is None:
                main_verb = offset + t.index
                head, deprel = 0, "root"
            else:
                head, deprel = main_verb, "ccomp"
            tokens.append(replace(t, index=offset + t.index, head=head, deprel=deprel))
    tokens.append(Token(index=len(tokens) + 1, form=".", upos="PUNCT",
                        head=main_verb, deprel="punct"))
    text = " ".join(t.form for t in tokens)
    return DepTree(tokens=tokens, sentence_id=sent_id,
                   comments=[f"# sent_id = {sent_id}", f"# text = {text}"])


def gen_trees(clauses: int, n: int, orders: str, seed: int) -> Treebank:
    """n trees of ``clauses`` synthetic clauses each, validated and projective."""
    flat = gen_clauses(n * clauses, orders, seed)
    if clauses == 1:
        return Treebank(flat, source_name="synthetic")
    trees = []
    for i in range(n):
        tree = join_clauses(flat[i * clauses:(i + 1) * clauses], f"long-{seed}-{i}")
        problems = conllu.validate_tree(tree, single_root=True)
        if problems or not is_projective_tree(tree):
            raise ValueError(f"long generator built a bad tree {tree.label()}: {problems}")
        trees.append(tree)
    return Treebank(trees, source_name="long")


def is_projective_tree(tree: DepTree) -> bool:
    """Projectivity test independent of the package's: every token strictly
    between a head and its dependent must descend from the head."""
    heads = {t.index: t.head for t in tree.tokens}

    def descends(node: int, ancestor: int) -> bool:
        for _ in range(len(heads)):  # bounded, so a cycle cannot hang the check
            node = heads[node]
            if node == ancestor:
                return True
            if node == 0:
                return False
        return False

    return all(descends(k, h) for d, h in heads.items()
               for k in range(min(h, d) + 1, max(h, d)))


@dataclass(frozen=True)
class Stage:
    """One CLI invocation of the chain and the CoNLL-U files it processes."""
    name: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...] = ()


class Files:
    """Paths, relative to the checkout root, of one workload's inputs and outputs.

    With ``inputs``, the treebanks, LM and augmented trees are that Files'
    ones and only the config, models and predictions live under ``root``.
    """

    def __init__(self, root: Path, inputs: "Files | None" = None):
        self.root = root
        base = inputs.root if inputs is not None else root
        self.source = str(base / "source.conllu")
        self.train = str(base / "train.conllu")
        self.test_scrambled = str(base / "test-scrambled.conllu")
        self.test_canonical = str(base / "test-canonical.conllu")
        self.lm_trees = str(base / "lm-trees.conllu")
        self.lm_corpus = str(base / "lm-corpus.txt")
        self.lm = str(base / "lm.nglm")
        self.augmented = str(base / "augmented.conllu")
        self.cfg = str(root / "train.cfg")
        self.baseline_model = str(root / "baseline.spnn")
        self.augmented_model = str(root / "augmented.spnn")
        # LAS metric name -> (model, gold, prediction)
        self.evals = {
            "las_scrambled_base": (self.baseline_model, self.test_scrambled,
                                   str(root / "pred-base-scrambled.conllu")),
            "las_scrambled_aug": (self.augmented_model, self.test_scrambled,
                                  str(root / "pred-aug-scrambled.conllu")),
            "las_canonical_aug": (self.augmented_model, self.test_canonical,
                                  str(root / "pred-aug-canonical.conllu")),
        }

    def outputs(self) -> list[str]:
        """Files the chain writes, in a fixed order."""
        return ([self.augmented, self.baseline_model, self.augmented_model]
                + [pred for _, _, pred in self.evals.values()])


def _train_path(w: Workload, f: Files) -> str:
    return f.source if w.n_train == w.n_source else f.train


def chain(w: Workload, f: Files, seed: int) -> list[Stage]:
    """The timed stages of one iteration, in order: the README walkthrough.

    Every stage runs with ``--jobs 1`` (the default), because
    ``parse --jobs N`` with N > 1 cannot pickle its worker function.
    """
    train = _train_path(w, f)
    stages = [
        Stage("gen-synthetic", ("gen-synthetic", "--n", str(w.n_lm), "--out", f.lm_trees,
                                "--orders", "uniform", "--seed", str(sub_seed(seed, _LM)),
                                "--text-out", f.lm_corpus)),
        Stage("train-lm", ("train-lm", "--corpus", f.lm_corpus, "--order", "3", "--out", f.lm)),
        Stage("permute", ("permute", "--in", f.source, "--lm", f.lm, "--select", str(w.n_source),
                          "--budget", str(w.budget), "--out", f.augmented, "--seed", str(seed)),
              (f.source,)),
        Stage("train", ("train", "--train", train, "--out", f.baseline_model,
                        "--config", f.cfg, "--seed", str(seed)),
              (train,)),
        Stage("train", ("train", "--train", train, "--train", f.augmented,
                        "--out", f.augmented_model, "--config", f.cfg, "--seed", str(seed)),
              (train, f.augmented)),
    ]
    for model, gold, pred in f.evals.values():
        stages.append(Stage("parse", ("parse", "--model", model, "--in", gold, "--out", pred),
                            (gold,)))
    for _, gold, pred in f.evals.values():
        stages.append(Stage("eval", ("eval", "--gold", gold, "--pred", pred), (gold,)))
    return stages


def accuracy_chain(w: Workload, f: Files, seed: int) -> tuple[Files, list[Stage]]:
    """The chain's train, parse and eval stages once more, on the same
    inputs and augmented trees, with ``w.accuracy_epochs`` epochs.

    One epoch on a few dozen trees leaves both parsers near chance, so the
    timed chain's LAS says nothing about augmentation; this run gives the
    LAS triple of such a workload, outside the timed part.
    """
    acc = Files(f.root / "accuracy", inputs=f)
    acc.root.mkdir(parents=True, exist_ok=True)
    Path(acc.cfg).write_text(TRAIN_CFG.format(epochs=w.accuracy_epochs), encoding="utf-8")
    return acc, [s for s in chain(w, acc, seed) if s.name in ("train", "parse", "eval")]


def write_inputs(w: Workload, f: Files, seed: int) -> None:
    """The treebanks and config the chain reads; the chain itself
    generates the LM corpus with ``gen-synthetic``."""
    f.root.mkdir(parents=True, exist_ok=True)
    Path(f.cfg).write_text(TRAIN_CFG.format(epochs=EPOCHS), encoding="utf-8")
    source = gen_trees(w.clauses, w.n_source, "sov=1.0", sub_seed(seed, _SOURCE))
    conllu.dump_treebank(source, f.source)
    if w.n_train != w.n_source:
        conllu.dump_treebank(Treebank(source.trees[:w.n_train]), f.train)
    for path, orders, stream in ((f.test_scrambled, "uniform", _SCRAMBLED),
                                 (f.test_canonical, "sov=1.0", _CANONICAL)):
        conllu.dump_treebank(gen_trees(w.clauses, w.n_test, orders, sub_seed(seed, stream)), path)


def input_files(w: Workload, f: Files) -> list[str]:
    """Inputs whose bytes must depend on the seed alone."""
    paths = [f.cfg, f.source, f.test_scrambled, f.test_canonical]
    return paths + ([f.train] if w.n_train != w.n_source else [])


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def input_stats(path) -> dict:
    """Mean sentence length, non-projective trees and the projection
    unit-count histogram of a treebank."""
    tb = conllu.load_treebank(path)
    hist: dict[int, int] = {}
    for tree in tb:
        for p in scramble.extract_projections(tree, scramble.UD_MAPPING):
            hist[p.unit_count] = hist.get(p.unit_count, 0) + 1
    return {"sentences": len(tb),
            "mean_tokens": float(np.mean([len(t) for t in tb])),
            "nonprojective": sum(not is_projective_tree(t) for t in tb),
            "units_hist": {str(k): v for k, v in sorted(hist.items())}}


def variant_pool(w: Workload, f: Files, seed: int) -> dict:
    """Variants built per order class for permute's selection of the source,
    with the CLI defaults (UD labels, at most 120 variants per projection)."""
    built: dict[str, int] = {}
    source = conllu.load_treebank(f.source)
    for tree in scramble.select_representative(source, n=w.n_source, seed=seed):
        for p in scramble.extract_projections(tree, scramble.UD_MAPPING):
            batch = scramble.permute_projection(tree, p, limit=120,
                                                mapping=scramble.UD_MAPPING, seed=seed)
            for v in batch.variants:
                built[v.order.value] = built.get(v.order.value, 0) + 1
    return dict(sorted(built.items()))


def kept_by_class(augmented_path) -> dict:
    """Augmented trees per order class, read from their scramble_order comments."""
    kept: dict[str, int] = {}
    for tree in conllu.load_treebank(augmented_path):
        for c in tree.comments:
            if c.startswith("# scramble_order="):
                label = c.split("=", 1)[1].split()[0]
                kept[label] = kept.get(label, 0) + 1
    return dict(sorted(kept.items()))
