"""Neural arc-eager parser and POS tagger.

Tokens are encoded as word embedding + character BiLSTM final states
(+ tag embedding for the parser), fed through two stacked bidirectional
layers. The parser scores labeled transitions from 11 positional
features of the configuration with a one-hidden-layer rectifier
classifier; the tagger classifies each token from its own context
vector. Training uses the static oracle, summed cross-entropy per
sentence, and momentum SGD with L2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import arceager, nn
from .arceager import LEFT_ARC, REDUCE, RIGHT_ARC, SHIFT, Transition
from .conllu import DepTree, Token, Treebank
from .projectivity import deprojectivize, is_projective

log = logging.getLogger(__name__)

UNK = "<unk>"
ROOT = "<root>"
PAD = "<pad>"


class Vocab:
    """Dense string-to-id mapping with reserved entries at the front."""

    def __init__(self, items, specials=()):
        self.itos = list(specials) + sorted(set(items) - set(specials))
        self.stoi = {s: i for i, s in enumerate(self.itos)}

    def __len__(self):
        return len(self.itos)

    def id(self, item: str) -> int:
        return self.stoi.get(item, 0)  # reserved slot 0 is <unk> where present

    def __contains__(self, item):
        return item in self.stoi

    @classmethod
    def from_itos(cls, itos) -> "Vocab":
        v = cls.__new__(cls)
        v.itos = list(itos)
        v.stoi = {s: i for i, s in enumerate(v.itos)}
        return v


@dataclass
class VocabSet:
    words: Vocab
    tags: Vocab
    chars: Vocab
    labels: Vocab


def build_vocabs(tb: Treebank) -> VocabSet:
    words, tags, chars, labels = set(), set(), set(), set()
    for tree in tb:
        for tok in tree.tokens:
            words.add(tok.form)
            tags.add(tok.upos)
            chars.update(tok.form)
            labels.add(tok.deprel)
    return VocabSet(words=Vocab(words, specials=(UNK, ROOT, PAD)),
                    tags=Vocab(tags, specials=(UNK, ROOT, PAD)),
                    chars=Vocab(chars, specials=(UNK, PAD)),
                    labels=Vocab(labels))


@dataclass
class TrainConfig:
    word_dim: int = 64
    tag_dim: int = 32
    char_dim: int = 32
    char_hidden: int = 64
    enc_hidden: int = 128
    enc_layers: int = 2
    mlp_hidden: int = 128
    mlp_dropout: float = 0.5
    word_dropout: float = 0.1
    lr: float = 0.01
    lr_decay: float = 0.0  # per-epoch decay: lr / (1 + epoch * lr_decay)
    momentum: float = 0.9
    l2: float = 1e-6
    clip_norm: float = 5.0
    epochs: int = 20
    seed: int = 42
    max_word_chars: int = 32
    embeddings_path: str | None = None
    pseudo_projective: bool = False

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """Plain key=value file; '#' starts a comment."""
        values = {}
        casts = {f.name: f.type for f in fields(cls)}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or key not in casts:
                    raise ValueError(f"{path}:{line_no}: bad config line '{line}'")
                values[key] = _cast_config_value(key, value.strip())
        return cls(**values)

    def merged(self, **overrides) -> "TrainConfig":
        return replace(self, **overrides)


def _cast_config_value(key: str, value: str):
    defaults = TrainConfig()
    current = getattr(defaults, key)
    if key == "embeddings_path":
        return value or None
    if isinstance(current, bool):
        return value.lower() in ("1", "true", "yes")
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    return value


def build_transitions(label_vocab: Vocab) -> list[Transition]:
    """Output classes: shift, reduce, then one left/right arc per label."""
    out = [Transition(SHIFT), Transition(REDUCE)]
    for label in label_vocab.itos:
        out.append(Transition(LEFT_ARC, label))
    for label in label_vocab.itos:
        out.append(Transition(RIGHT_ARC, label))
    return out


class SentenceEncoder:
    """Word + char (+ tag) representations through stacked BiLSTM layers."""

    def __init__(self, cfg: TrainConfig, vocabs: VocabSet, rng, use_tags: bool = True):
        self.cfg = cfg
        self.vocabs = vocabs
        self.use_tags = use_tags
        self.word_emb = nn.Param(rng.uniform(-0.25, 0.25, (len(vocabs.words), cfg.word_dim)),
                                 "word_emb")
        self.char_emb = nn.Param(rng.uniform(-0.25, 0.25, (len(vocabs.chars), cfg.char_dim)),
                                 "char_emb")
        self.tag_emb = None
        in_dim = cfg.word_dim + 2 * cfg.char_hidden
        if use_tags:
            self.tag_emb = nn.Param(rng.uniform(-0.25, 0.25, (len(vocabs.tags), cfg.tag_dim)),
                                    "tag_emb")
            in_dim += cfg.tag_dim
        self.char_rnn = nn.BiLSTM(cfg.char_dim, cfg.char_hidden, rng, "char_rnn")
        self.stack = nn.BiLSTMStack(in_dim, cfg.enc_hidden, cfg.enc_layers, rng, "enc")
        self.out_dim = 2 * cfg.enc_hidden

    def params(self):
        out = [self.word_emb, self.char_emb]
        if self.tag_emb is not None:
            out.append(self.tag_emb)
        return out + self.char_rnn.params() + self.stack.params()

    def load_pretrained_words(self, path) -> int:
        """Initialize word rows from a "word v1 ... vD" text file."""
        loaded = 0
        dim = self.cfg.word_dim
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) != dim + 1:
                    continue
                word = parts[0]
                if word in self.vocabs.words:
                    self.word_emb.value[self.vocabs.words.id(word)] = [float(x) for x in parts[1:]]
                    loaded += 1
        return loaded

    def encode(self, words: list[str], tags: list[str] | None,
               training: bool = False, rng=None, word_dropout: float | None = None,
               memo: dict | None = None):
        """Context vectors for ROOT plus every token: shape (n+1, out_dim).

        ``memo`` maps a truncated form to its char-BiLSTM vector and is
        filled as words are met, so a caller parsing many sentences with
        the same parameters runs the char-BiLSTM once per form. It is for
        inference only: the cache returned with it is None.
        """
        if not words:
            raise ValueError("cannot encode an empty sentence")
        if memo is not None and training:
            raise ValueError("a char-vector memo cannot be used while training")
        if self.use_tags:
            if tags is None or len(tags) != len(words):
                raise ValueError("tag sequence must align with the sentence")
        p_drop = self.cfg.word_dropout if word_dropout is None else word_dropout
        drop = np.zeros(len(words), dtype=bool)
        if training and p_drop > 0.0:
            drop = rng.random(len(words)) < p_drop

        cfg = self.cfg
        word_ids = [1] + [self.vocabs.words.id(w) for w in words]  # slot 1 = <root>
        rows = []
        char_caches = []
        for pos, wid in enumerate(word_ids):
            if pos == 0:
                char_vec = np.zeros(2 * cfg.char_hidden)
                char_caches.append(None)
                word_vec = self.word_emb.value[wid]
            else:
                chars = words[pos - 1][:cfg.max_word_chars]
                if memo is not None and chars in memo:
                    char_vec = memo[chars]
                elif chars:
                    char_ids = [self.vocabs.chars.id(c) for c in chars]
                    C = self.char_emb.value[char_ids]
                    Hs, cache = self.char_rnn.forward(C)
                    char_vec = self.char_rnn.final_states(Hs)
                    char_caches.append((char_ids, Hs.shape[0], cache))
                    if memo is not None:
                        memo[chars] = char_vec
                else:
                    char_vec = np.zeros(2 * cfg.char_hidden)
                    char_caches.append(None)
                word_vec = np.zeros(cfg.word_dim) if drop[pos - 1] else self.word_emb.value[wid]
            parts = [word_vec, char_vec]
            if self.use_tags:
                tag_id = 1 if pos == 0 else self.vocabs.tags.id(tags[pos - 1])
                parts.append(self.tag_emb.value[tag_id])
            rows.append(np.concatenate(parts))
        X = np.asarray(rows)
        ctx, stack_caches = self.stack.forward(X)
        if memo is not None:
            return ctx, None
        cache = (word_ids, drop, char_caches, stack_caches,
                 None if not self.use_tags else ([1] + [self.vocabs.tags.id(t) for t in tags]))
        return ctx, cache

    def backward(self, dctx, cache):
        word_ids, drop, char_caches, stack_caches, tag_ids = cache
        cfg = self.cfg
        dX = self.stack.backward(dctx, stack_caches)
        wd = cfg.word_dim
        cd = 2 * cfg.char_hidden
        for pos, wid in enumerate(word_ids):
            dword = dX[pos, :wd]
            dchar = dX[pos, wd:wd + cd]
            if pos == 0 or not drop[pos - 1]:
                self.word_emb.grad[wid] += dword
            if char_caches[pos] is not None:
                char_ids, T, rnn_cache = char_caches[pos]
                dHs = np.zeros((T, cd))
                h = cfg.char_hidden
                dHs[-1, :h] = dchar[:h]
                dHs[0, h:] += dchar[h:]
                dC = self.char_rnn.backward(dHs, rnn_cache)
                for row, cid in enumerate(char_ids):
                    self.char_emb.grad[cid] += dC[row]
            if self.use_tags:
                self.tag_emb.grad[tag_ids[pos]] += dX[pos, wd + cd:]


# The 11 positional feature selectors: stack top three, buffer front,
# left/rightmost children of the stack's top three, leftmost child of
# the buffer front.
FEATURE_SELECTORS = ("s0", "s1", "s2", "b0",
                     "lc(s0)", "rc(s0)", "lc(s1)", "rc(s1)", "lc(s2)", "rc(s2)",
                     "lc(b0)")


@dataclass(frozen=True)
class FeatureTemplate:
    selectors: tuple[str, ...] = FEATURE_SELECTORS

    def __post_init__(self):
        if len(self.selectors) != 11:
            raise ValueError("feature template must have exactly 11 selectors")


def feature_indices(c: arceager.Configuration) -> list[int | None]:
    """Token index picked by each selector, None where the node is absent."""
    children: dict[int, list[int]] = {}
    for d, (h, _) in c.heads.items():
        children.setdefault(h, []).append(d)

    def leftmost(i):
        kids = children.get(i)
        return min(kids) if kids else None

    def rightmost(i):
        kids = children.get(i)
        return max(kids) if kids else None

    s = list(c.stack)
    s0 = s[-1] if len(s) >= 1 else None
    s1 = s[-2] if len(s) >= 2 else None
    s2 = s[-3] if len(s) >= 3 else None
    b0 = c.buffer_front
    out = [s0, s1, s2, b0]
    for node in (s0, s1, s2):
        out.append(leftmost(node) if node is not None else None)
        out.append(rightmost(node) if node is not None else None)
    out.append(leftmost(b0) if b0 is not None else None)
    return out


def featurize(c: arceager.Configuration, ctx: np.ndarray,
              template: FeatureTemplate = FeatureTemplate()) -> np.ndarray:
    """Concatenate the 11 context vectors; absent nodes contribute zeros."""
    dim = ctx.shape[1]
    row = np.zeros(len(template.selectors) * dim)
    for slot, idx in enumerate(feature_indices(c)):
        if idx is not None:
            row[slot * dim:(slot + 1) * dim] = ctx[idx]
    return row


def _gather_features(ctx, idx_rows):
    dim = ctx.shape[1]
    F = np.zeros((len(idx_rows), 11 * dim))
    for r, idxs in enumerate(idx_rows):
        for slot, idx in enumerate(idxs):
            if idx is not None:
                F[r, slot * dim:(slot + 1) * dim] = ctx[idx]
    return F


def _scatter_features(dF, idx_rows, ctx_shape):
    dim = ctx_shape[1]
    dctx = np.zeros(ctx_shape)
    for r, idxs in enumerate(idx_rows):
        for slot, idx in enumerate(idxs):
            if idx is not None:
                dctx[idx] += dF[r, slot * dim:(slot + 1) * dim]
    return dctx


def oracle_rollout(tree: DepTree):
    """Static-oracle path: per step the 11 feature indices and the gold move."""
    seq = arceager.static_oracle(tree)
    c = arceager.initial_config(len(tree.tokens))
    idx_rows = []
    for t in seq:
        idx_rows.append(feature_indices(c))
        c = arceager.apply(c, t)
    return idx_rows, seq


@dataclass
class ParserModel:
    cfg: TrainConfig
    vocabs: VocabSet
    encoder: SentenceEncoder = field(repr=False)
    mlp: nn.MLP = field(repr=False)
    transitions: list[Transition] = field(repr=False)
    pseudo_projective: bool = False

    def params(self):
        return self.encoder.params() + self.mlp.params()

    def transition_id(self, t: Transition) -> int:
        return self._tmap[t.mnemonic()]

    def __post_init__(self):
        self._tmap = {t.mnemonic(): i for i, t in enumerate(self.transitions)}
        # Per kind, the class columns it occupies (for legality masking).
        self._kind_cols = {}
        for i, t in enumerate(self.transitions):
            self._kind_cols.setdefault(t.kind, []).append(i)

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": "parser",
            "cfg": self.cfg.__dict__,
            "vocab_items": {"words": self.vocabs.words.itos,
                            "tags": self.vocabs.tags.itos,
                            "chars": self.vocabs.chars.itos,
                            "labels": self.vocabs.labels.itos},
            "pseudo_projective": self.pseudo_projective,
        }
        meta.update(extra_meta or {})
        nn.save_checkpoint(path, self.params(), meta)

    @classmethod
    def load(cls, path) -> "ParserModel":
        payload = nn.load_checkpoint(path)
        meta = payload["meta"]
        if meta.get("kind") != "parser":
            raise ValueError(f"{path} is not a parser checkpoint")
        cfg = TrainConfig(**meta["cfg"])
        model = _init_parser(cfg, _vocabs_from_items(meta["vocab_items"]),
                             pseudo_projective=meta["pseudo_projective"])
        nn.restore_params(model.params(), payload["arrays"])
        return model


def _vocabs_from_items(items: dict) -> VocabSet:
    return VocabSet(words=Vocab.from_itos(items["words"]),
                    tags=Vocab.from_itos(items["tags"]),
                    chars=Vocab.from_itos(items["chars"]),
                    labels=Vocab.from_itos(items["labels"]))


def _init_parser(cfg: TrainConfig, vocabs: VocabSet, pseudo_projective: bool) -> ParserModel:
    rng = np.random.default_rng(cfg.seed)
    encoder = SentenceEncoder(cfg, vocabs, rng, use_tags=True)
    transitions = build_transitions(vocabs.labels)
    mlp = nn.MLP(11 * encoder.out_dim, cfg.mlp_hidden, len(transitions), rng,
                 "classifier", dropout=cfg.mlp_dropout)
    return ParserModel(cfg=cfg, vocabs=vocabs, encoder=encoder, mlp=mlp,
                       transitions=transitions, pseudo_projective=pseudo_projective)


def sentence_loss(model: ParserModel, words, tags, idx_rows, gold_ids,
                  training=False, rng=None, word_dropout=None):
    """Mean transition cross-entropy; returns loss and a backprop closure.

    Normalizing by the number of transitions keeps update magnitudes
    comparable across sentence lengths, which momentum SGD needs to stay
    stable with per-sentence updates.
    """
    ctx, enc_cache = model.encoder.encode(words, tags, training=training, rng=rng,
                                          word_dropout=word_dropout)
    F = _gather_features(ctx, idx_rows)
    logits, mlp_cache = model.mlp.forward(F, training=training, rng=rng)
    loss, dlogits = nn.nll_loss(logits, gold_ids)
    scale = 1.0 / len(gold_ids)

    def backprop():
        dF = model.mlp.backward(dlogits * scale, mlp_cache)
        dctx = _scatter_features(dF, idx_rows, ctx.shape)
        model.encoder.backward(dctx, enc_cache)

    return loss * scale, backprop


def train_parser(train: Treebank, dev: Treebank | None, cfg: TrainConfig) -> ParserModel:
    """Static-oracle training with per-sentence momentum SGD updates.

    When a dev treebank is given, the parameters from the best dev-LAS
    epoch are restored at the end.
    """
    if len(train) == 0:
        raise ValueError("training treebank is empty")
    for tree in train:
        if not is_projective(tree):
            raise ValueError(f"training sentence {tree.label()} is non-projective; "
                             "projectivize first (the flag is recorded in the model)")
    vocabs = build_vocabs(train)
    model = _init_parser(cfg, vocabs, pseudo_projective=cfg.pseudo_projective)
    if cfg.embeddings_path:
        loaded = model.encoder.load_pretrained_words(cfg.embeddings_path)
        log.info("loaded %d pre-trained word vectors", loaded)

    examples = []
    for tree in train:
        idx_rows, seq = oracle_rollout(tree)
        gold_ids = [model.transition_id(t) for t in seq]
        examples.append((tree.forms(), tree.upos_tags(), idx_rows, gold_ids))

    rng = np.random.default_rng(cfg.seed)
    opt = nn.MomentumSGD(model.params(), lr=cfg.lr, momentum=cfg.momentum, l2=cfg.l2,
                         clip_norm=cfg.clip_norm)
    best_las = -1.0
    best_values = None
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr / (1.0 + epoch * cfg.lr_decay)
        order = rng.permutation(len(examples))
        total = 0.0
        n_steps = 0
        for i in order:
            words, tags, idx_rows, gold_ids = examples[i]
            loss, backprop = sentence_loss(model, words, tags, idx_rows, gold_ids,
                                           training=True, rng=rng)
            backprop()
            opt.step()
            opt.zero_grad()
            total += loss * len(gold_ids)
            n_steps += len(gold_ids)
        msg = f"epoch {epoch + 1}/{cfg.epochs}: loss/transition {total / n_steps:.4f}"
        if dev is not None and len(dev) > 0:
            from .metrics import score

            memo: dict = {}  # fresh per pass: the parameters changed since the last
            pred = Treebank([parse_tree(model, tree, memo=memo) for tree in dev])
            las = score(dev, pred).las
            msg += f", dev LAS {las:.2f}"
            if las > best_las:
                best_las = las
                best_values = [p.value.copy() for p in model.params()]
        log.info(msg)
    if best_values is not None:
        for p, v in zip(model.params(), best_values):
            p.value[...] = v
    return model


def parse(model: ParserModel, words: list[str], tags: list[str],
          memo: dict | None = None) -> DepTree:
    """Greedy decode; always returns a valid tree.

    ``memo`` is the char-vector memo of ``SentenceEncoder.encode``; share
    one across the sentences of a treebank parsed with this model.
    """
    if not words:
        raise ValueError("cannot parse an empty sentence")
    ctx, _ = model.encoder.encode(words, tags, training=False, memo=memo)
    c = arceager.initial_config(len(words))
    max_steps = 3 * len(words)
    for _ in range(max_steps):
        if arceager.is_terminal(c):
            break
        F = featurize(c, ctx)
        logits, _ = model.mlp.forward(F[None, :], training=False)
        scores = logits[0]
        legal = arceager.legal_transitions(c)
        mask = np.full(len(scores), -np.inf)
        for kind in legal:
            mask[model._kind_cols[kind]] = 0.0
        best = int(np.argmax(scores + mask))
        c = arceager.apply(c, model.transitions[best])
    tokens = [Token(index=i + 1, form=w, upos=t)
              for i, (w, t) in enumerate(zip(words, tags))]
    tree = arceager.tree_from_config(c, tokens)
    if model.pseudo_projective:
        tree = deprojectivize(tree)
    return tree


def parse_tree(model: ParserModel, tree: DepTree, tags: list[str] | None = None,
               memo: dict | None = None) -> DepTree:
    """Re-parse a sentence, keeping its surface columns."""
    tags = tags if tags is not None else tree.upos_tags()
    pred = parse(model, tree.forms(), tags, memo=memo)
    tokens = [replace(t, head=p.head, deprel=p.deprel, upos=tag)
              for t, p, tag in zip(tree.tokens, pred.tokens, tags)]
    return tree.with_tokens(tokens)


@dataclass
class TaggerModel:
    cfg: TrainConfig
    vocabs: VocabSet
    encoder: SentenceEncoder = field(repr=False)
    mlp: nn.MLP = field(repr=False)

    def params(self):
        return self.encoder.params() + self.mlp.params()

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": "tagger",
            "cfg": self.cfg.__dict__,
            "vocab_items": {"words": self.vocabs.words.itos,
                            "tags": self.vocabs.tags.itos,
                            "chars": self.vocabs.chars.itos,
                            "labels": self.vocabs.labels.itos},
        }
        meta.update(extra_meta or {})
        nn.save_checkpoint(path, self.params(), meta)

    @classmethod
    def load(cls, path) -> "TaggerModel":
        payload = nn.load_checkpoint(path)
        meta = payload["meta"]
        if meta.get("kind") != "tagger":
            raise ValueError(f"{path} is not a tagger checkpoint")
        cfg = TrainConfig(**meta["cfg"])
        model = _init_tagger(cfg, _vocabs_from_items(meta["vocab_items"]))
        nn.restore_params(model.params(), payload["arrays"])
        return model


def _init_tagger(cfg: TrainConfig, vocabs: VocabSet) -> TaggerModel:
    rng = np.random.default_rng(cfg.seed)
    encoder = SentenceEncoder(cfg, vocabs, rng, use_tags=False)
    mlp = nn.MLP(encoder.out_dim, cfg.mlp_hidden, len(vocabs.tags), rng,
                 "tag_classifier", dropout=cfg.mlp_dropout)
    return TaggerModel(cfg=cfg, vocabs=vocabs, encoder=encoder, mlp=mlp)


def train_tagger(train: Treebank, dev: Treebank | None, cfg: TrainConfig) -> TaggerModel:
    """Per-token softmax over the tag inventory from word+char context only."""
    if len(train) == 0:
        raise ValueError("training treebank is empty")
    vocabs = build_vocabs(train)
    if len(vocabs.tags) <= 3:  # only the reserved entries
        raise ValueError("training data carries no POS tags")
    model = _init_tagger(cfg, vocabs)
    examples = [(tree.forms(), [vocabs.tags.id(t) for t in tree.upos_tags()])
                for tree in train]
    rng = np.random.default_rng(cfg.seed)
    opt = nn.MomentumSGD(model.params(), lr=cfg.lr, momentum=cfg.momentum, l2=cfg.l2,
                         clip_norm=cfg.clip_norm)
    best_acc = -1.0
    best_values = None
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr / (1.0 + epoch * cfg.lr_decay)
        order = rng.permutation(len(examples))
        total = 0.0
        n_tok = 0
        for i in order:
            words, gold_ids = examples[i]
            ctx, enc_cache = model.encoder.encode(words, None, training=True, rng=rng)
            logits, mlp_cache = model.mlp.forward(ctx[1:], training=True, rng=rng)
            loss, dlogits = nn.nll_loss(logits, gold_ids)
            dctx = np.zeros_like(ctx)
            dctx[1:] = model.mlp.backward(dlogits / len(words), mlp_cache)
            model.encoder.backward(dctx, enc_cache)
            opt.step()
            opt.zero_grad()
            total += loss
            n_tok += len(words)
        msg = f"tagger epoch {epoch + 1}/{cfg.epochs}: loss/token {total / n_tok:.4f}"
        if dev is not None and len(dev) > 0:
            correct = sum(sum(p == g.upos for p, g in zip(tag(model, t.forms()), t.tokens))
                          for t in dev)
            n_dev = sum(len(t) for t in dev)
            acc = 100.0 * correct / n_dev
            msg += f", dev acc {acc:.2f}"
            if acc > best_acc:
                best_acc = acc
                best_values = [p.value.copy() for p in model.params()]
        log.info(msg)
    if best_values is not None:
        for p, v in zip(model.params(), best_values):
            p.value[...] = v
    return model


def tag(model: TaggerModel, words: list[str]) -> list[str]:
    """Per-token argmax tags; output length always matches the input."""
    if not words:
        raise ValueError("cannot tag an empty sentence")
    ctx, _ = model.encoder.encode(words, None, training=False)
    logits, _ = model.mlp.forward(ctx[1:], training=False)
    ids = logits.argmax(axis=1)
    return [model.vocabs.tags.itos[i] for i in ids]
