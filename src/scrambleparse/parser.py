"""Neural arc-eager parser and POS tagger.

Tokens are encoded as word embedding + character BiLSTM final states
(+ tag embedding for the parser), fed through two stacked bidirectional
layers. The parser scores labeled transitions from 11 positional
features of the configuration with a one-hidden-layer rectifier
classifier; the tagger classifies each token from its own context
vector. Training uses the static oracle, summed cross-entropy per
sentence, and momentum SGD with L2. Inference runs on length-sorted
chunks of sentences at once (``parse_batch``, ``tag_batch``). Both use
one encoder pass: the character BiLSTM runs once over the distinct
truncated forms, the stack over a length-masked padded batch (one
sentence when training).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from . import arceager, metrics, nn
from .arceager import LEFT_ARC, REDUCE, RIGHT_ARC, SHIFT, Transition
from .conllu import DepTree, Token, Treebank
from .projectivity import deprojectivize, projectivize

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


_SIZES = ("word_dim", "tag_dim", "char_dim", "char_hidden", "enc_hidden", "enc_layers",
          "mlp_hidden", "epochs", "max_word_chars")
_NON_NEGATIVE = ("lr", "lr_decay", "momentum", "l2", "clip_norm", "seed")
# The accepted values [low, high) of TrainConfig's numeric fields.
_CONFIG_RANGES = {**dict.fromkeys(_SIZES, (1, math.inf)),
                  **dict.fromkeys(_NON_NEGATIVE, (0, math.inf)),
                  "mlp_dropout": (0, 1), "word_dropout": (0, 1)}


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

    def __post_init__(self):
        """Reject a value of another type than its field's, or one that would
        train a useless or broken model, however the config was made: in
        code, from a file, by ``merged`` or from a checkpoint's meta."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not _FIELD_TYPES[f.type][0](value):
                raise ValueError(f"{f.name} must be {f.type.replace(' | ', ' or ')}, got {value!r}")
        for name, (low, high) in _CONFIG_RANGES.items():
            value = getattr(self, name)
            if not low <= value < high:  # also false for NaN
                bound = f"in [{low}, {high})" if high < math.inf else f"finite and at least {low}"
                raise ValueError(f"{name} must be {bound}, got {value}")

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """Plain key=value file; '#' starts a comment."""
        values = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or key not in cls.__dataclass_fields__:
                    raise ValueError(f"{path}:{line_no}: bad config line '{line}'")
                try:
                    values[key] = _cast_config_value(key, value.strip())
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
        return cls(**values)

    def merged(self, **overrides) -> "TrainConfig":
        return replace(self, **overrides)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# Per annotation of a TrainConfig field: whether a value has that type (an
# int field takes no bool, a float field also takes an int), and how a
# config file's text becomes one.
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, int),
    "float": (lambda v: type(v) in (int, float), float),
    "bool": (lambda v: type(v) is bool, lambda text: _BOOLS[text.lower()]),
    "str | None": (lambda v: v is None or isinstance(v, str), lambda text: text or None),
}


def _cast_config_value(key: str, value: str):
    kind = TrainConfig.__dataclass_fields__[key].type
    try:
        return _FIELD_TYPES[kind][1](value)
    except (KeyError, ValueError):
        expected = "one of 1/0/true/false/yes/no" if kind == "bool" else kind
        raise ValueError(f"{key} must be {expected}, got '{value}'") from None


def _config_from_meta(values) -> TrainConfig:
    """A checkpoint's saved config; ``TrainConfig`` checks each value."""
    if not isinstance(values, dict):
        raise ValueError("cfg is not a mapping")
    for key in values:
        if key not in TrainConfig.__dataclass_fields__:
            raise ValueError(f"cfg has unknown field {key!r}")
    return TrainConfig(**values)


def build_transitions(label_vocab: Vocab) -> list[Transition]:
    """Output classes: shift, reduce, then one left/right arc per label."""
    out = [Transition(SHIFT), Transition(REDUCE)]
    for label in label_vocab.itos:
        out.append(Transition(LEFT_ARC, label))
    for label in label_vocab.itos:
        out.append(Transition(RIGHT_ARC, label))
    return out


def _embedding(rng, shape):
    return rng.uniform(-0.25, 0.25, shape)


class SentenceEncoder:
    """Word + char (+ tag) representations through stacked BiLSTM layers.

    ``rng`` draws the initial parameters, or is a checkpoint's arrays
    (``nn.param``).
    """

    def __init__(self, cfg: TrainConfig, vocabs: VocabSet, rng, use_tags: bool = True):
        self.cfg = cfg
        self.vocabs = vocabs
        self.use_tags = use_tags
        self.word_emb = nn.param(rng, "word_emb", (len(vocabs.words), cfg.word_dim), _embedding)
        self.char_emb = nn.param(rng, "char_emb", (len(vocabs.chars), cfg.char_dim), _embedding)
        self.tag_emb = None
        in_dim = cfg.word_dim + 2 * cfg.char_hidden
        if use_tags:
            self.tag_emb = nn.param(rng, "tag_emb", (len(vocabs.tags), cfg.tag_dim), _embedding)
            in_dim += cfg.tag_dim
        self.char_rnn = nn.BiLSTM(cfg.char_dim, cfg.char_hidden, rng, "char_rnn")
        self.stack = nn.BiLSTMStack(in_dim, cfg.enc_hidden, cfg.enc_layers, rng, "enc")
        self.out_dim = 2 * cfg.enc_hidden

    def params(self):
        out = [self.word_emb, self.char_emb]
        if self.tag_emb is not None:
            out.append(self.tag_emb)
        return out + self.char_rnn.params() + self.stack.params()

    def load_pretrained_words(self, path) -> None:
        """Set vocabulary words' rows from a "word v1 ... vD" text file. Lines
        of another width, such as a word2vec header, are skipped; a row
        holding a value that is not a finite number raises ``ValueError``."""
        loaded = skipped = 0
        dim = self.cfg.word_dim
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if len(parts) != dim + 1:
                    skipped += 1
                elif parts[0] in self.vocabs.words:
                    try:
                        row = [float(x) for x in parts[1:]]
                    except ValueError:
                        row = [math.nan]
                    if not all(map(math.isfinite, row)):
                        raise ValueError(f"{path}:{line_no}: the vector of '{parts[0]}' holds "
                                         "a value that is not a finite number")
                    self.word_emb.value[self.vocabs.words.id(parts[0])] = row
                    loaded += 1
        log.info("loaded %d pre-trained word vectors, skipped %d lines of another width",
                 loaded, skipped)

    def encode(self, words: list[str], tags: list[str] | None, training: bool = False, rng=None):
        """Context vectors for ROOT plus every token, shape (n+1, out_dim),
        and the cache for ``backward``."""
        ctx, _, cache = self._encode([words], None if tags is None else [tags], training, rng)
        return ctx, cache

    def encode_batch(self, sentences: list[list[str]], tags: list[list[str]] | None = None):
        """Inference-only context vectors of many sentences at once.

        Returns ``(rows, lengths)``: what ``encode`` returns for each
        sentence (ROOT first), stacked one sentence after another, and
        ``lengths[b] = len(sentences[b]) + 1``.
        """
        rows, lengths, _ = self._encode(sentences, tags, cache=False)
        return rows, lengths

    def _encode(self, sentences, tags, training=False, rng=None, cache=True):
        """``encode_batch``'s rows and lengths, and with ``cache`` what
        ``backward`` needs. The char-BiLSTM runs once over the distinct
        truncated forms and the stack once over the padded (1 + longest, B)
        batch. Word dropout draws one number per token, sentence by sentence.
        """
        if any(not words for words in sentences):
            raise ValueError("cannot encode an empty sentence")
        if self.use_tags and (tags is None or len(tags) != len(sentences)
                              or any(len(t) != len(w) for t, w in zip(tags, sentences))):
            raise ValueError("tag sequence must align with the sentence")
        cfg = self.cfg
        drop = np.zeros(sum(map(len, sentences)), dtype=bool)
        if training and cfg.word_dropout > 0.0:
            drop = np.concatenate([rng.random(len(words)) < cfg.word_dropout
                                   for words in sentences])
        lengths = np.array([len(words) + 1 for words in sentences])
        T, B = int(lengths.max()), len(sentences)
        present = np.arange(T)[:, None] < lengths  # (T, B)
        forms = list(dict.fromkeys(w[:cfg.max_word_chars] for words in sentences for w in words))
        # One row per distinct form, plus a zero row for ROOT, padding and "".
        char_vecs = np.zeros((len(forms) + 1, 2 * cfg.char_hidden))
        spelled = [i for i, f in enumerate(forms) if f]
        char_batch = None
        if spelled:
            char_lens = np.array([len(forms[i]) for i in spelled])
            char_ids = np.zeros((int(char_lens.max()), len(spelled)), dtype=np.intp)
            for col, i in enumerate(spelled):
                char_ids[:char_lens[col], col] = [self.vocabs.chars.id(ch) for ch in forms[i]]
            Hs, rnn_cache = self.char_rnn.forward(self.char_emb.value[char_ids], char_lens,
                                                  cache=cache)
            char_vecs[spelled] = self.char_rnn.final_states(Hs, char_lens)
            char_batch = (char_ids, char_lens, spelled, rnn_cache)
        form_row = {f: i for i, f in enumerate(forms)}
        word_ids = np.full((T, B), self.vocabs.words.id(PAD))
        word_ids[0] = 1  # <root>
        char_rows = np.full((T, B), len(forms))
        for b, words in enumerate(sentences):
            word_ids[1:len(words) + 1, b] = [self.vocabs.words.id(w) for w in words]
            char_rows[1:len(words) + 1, b] = [form_row[w[:cfg.max_word_chars]] for w in words]
        # The positions whose word embedding is used: not padding, not dropped.
        word_kept = present.copy()
        word_kept[1:].T[present[1:].T] = ~drop
        word_vecs = self.word_emb.value[word_ids]
        word_vecs[~word_kept] = 0.0
        parts = [word_vecs, char_vecs[char_rows]]
        tag_ids = None
        if self.use_tags:
            tag_ids = np.full((T, B), self.vocabs.tags.id(PAD))
            tag_ids[0] = 1  # <root>
            for b, seq in enumerate(tags):
                tag_ids[1:len(seq) + 1, b] = [self.vocabs.tags.id(t) for t in seq]
            parts.append(self.tag_emb.value[tag_ids])
        ctx, stack_caches = self.stack.forward(np.concatenate(parts, axis=2), lengths,
                                                cache=cache)
        rows = ctx.transpose(1, 0, 2)[present.T]
        if not cache:
            return rows, lengths, None
        return rows, lengths, (word_ids, drop, word_kept, tag_ids, char_rows, char_batch,
                               stack_caches, present)

    def backward(self, dctx, cache):
        """Accumulate the parameter gradients of ``encode`` given d(context vectors)."""
        word_ids, drop, word_kept, tag_ids, char_rows, char_batch, stack_caches, present = cache
        cfg = self.cfg
        wd = cfg.word_dim
        cd = 2 * cfg.char_hidden
        dY = np.zeros(present.shape + (dctx.shape[1],))
        dY.transpose(1, 0, 2)[present.T] = dctx
        dX = self.stack.backward(dY, stack_caches)
        np.add.at(self.word_emb.grad, word_ids[word_kept], dX[word_kept, :wd])
        if self.use_tags:
            np.add.at(self.tag_emb.grad, tag_ids[present], dX[present, wd + cd:])
        if char_batch is not None:
            char_ids, char_lens, spelled, rnn_cache = char_batch
            dforms = np.zeros((char_rows.max() + 1, cd))  # as char_vecs: forms, then zero row
            np.add.at(dforms, char_rows[present], dX[present, wd:wd + cd])
            h = cfg.char_hidden
            dHs = np.zeros(char_ids.shape + (cd,))
            dHs[char_lens - 1, np.arange(len(spelled)), :h] = dforms[spelled, :h]
            dHs[0, :, h:] = dforms[spelled, h:]
            dC = self.char_rnn.backward(dHs, rnn_cache)
            spelt = np.arange(len(char_ids))[:, None] < char_lens
            np.add.at(self.char_emb.grad, char_ids[spelt], dC[spelt])


# The 11 positional feature selectors: stack top three, buffer front,
# left/rightmost children of the stack's top three, leftmost child of
# the buffer front.
FEATURE_SELECTORS = ("s0", "s1", "s2", "b0",
                     "lc(s0)", "rc(s0)", "lc(s1)", "rc(s1)", "lc(s2)", "rc(s2)",
                     "lc(b0)")


def feature_indices(c: arceager.Configuration) -> list[int | None]:
    """Token index picked by each selector, None where the node is absent."""
    stack, lc, rc = c.stack, c.lc, c.rc
    s0 = stack[-1]  # ROOT is never popped
    s1 = stack[-2] if len(stack) >= 2 else None
    s2 = stack[-3] if len(stack) >= 3 else None
    b0 = c.buffer_start if c.buffer_start <= c.n else None
    return [s0, s1, s2, b0,
            lc.get(s0), rc.get(s0), lc.get(s1), rc.get(s1), lc.get(s2), rc.get(s2), lc.get(b0)]


def _gather_features(ctx, idx_rows):
    """Each step's 11 context vectors side by side; index -1 picks the
    zero row of an absent node."""
    padded = np.concatenate([ctx, np.zeros((1, ctx.shape[1]))])
    return padded[idx_rows].reshape(len(idx_rows), -1)


def _scatter_features(dF, idx_rows, ctx_shape):
    """The gradient of ``_gather_features`` with respect to ``ctx``."""
    dctx = np.zeros((ctx_shape[0] + 1, ctx_shape[1]))
    np.add.at(dctx, idx_rows, dF.reshape(idx_rows.shape + (-1,)))
    return dctx[:-1]


def oracle_rollout(tree: DepTree):
    """Static-oracle path: a (steps, 11) array of feature indices, -1 where
    the node is absent, and the gold moves."""
    seq = arceager.static_oracle(tree)
    c = arceager.initial_config(len(tree.tokens))
    idx_rows = []
    for t in seq:
        idx_rows.append([-1 if i is None else i for i in feature_indices(c)])
        c = arceager.apply(c, t)
    return np.array(idx_rows, dtype=np.intp), seq


@dataclass
class _Model:
    """A sentence encoder and a classifier; the checkpoint meta records ``kind``."""
    cfg: TrainConfig
    vocabs: VocabSet
    encoder: SentenceEncoder = field(repr=False)
    mlp: nn.MLP = field(repr=False)

    kind: ClassVar[str]

    def params(self):
        return self.encoder.params() + self.mlp.params()

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": self.kind,
            "cfg": self.cfg.__dict__,
            "vocab_items": {f.name: getattr(self.vocabs, f.name).itos for f in fields(VocabSet)},
        }
        if self.kind == "parser":  # a copy of cfg's flag; load reads the cfg
            meta["pseudo_projective"] = self.cfg.pseudo_projective
        meta.update(extra_meta or {})
        nn.save_checkpoint(path, self.params(), meta)

    @classmethod
    def load(cls, path):
        """The saved model, its parameters views of the one buffer the file
        is read into; a file that does not hold one raises ``ValueError``."""
        return nn.load_checkpoint(path, build=cls._from_checkpoint)

    @classmethod
    def _from_checkpoint(cls, meta: dict, arrays: dict):
        if meta.get("kind") != cls.kind:
            raise ValueError(f"not a {cls.kind} checkpoint")
        items = meta.get("vocab_items")
        names = [f.name for f in fields(VocabSet)]
        if (not isinstance(items, dict) or sorted(items) != sorted(names)
                or not all(isinstance(itos, list) and all(isinstance(s, str) for s in itos)
                           for itos in items.values())):
            raise ValueError(f"vocab_items is not one list of strings each for {names}")
        vocabs = VocabSet(**{name: Vocab.from_itos(items[name]) for name in names})
        return _init_model(cls.kind, _config_from_meta(meta.get("cfg")), vocabs, rng=arrays)


@dataclass
class ParserModel(_Model):
    transitions: list[Transition] = field(repr=False)

    kind: ClassVar[str] = "parser"

    def transition_id(self, t: Transition) -> int:
        return self._tmap[t.mnemonic()]

    def __post_init__(self):
        self._tmap = {t.mnemonic(): i for i, t in enumerate(self.transitions)}
        # One read-only mask per set of legal kinds: 0 on its classes, -inf elsewhere.
        masks = np.array([[0.0 if t.kind in legal else -np.inf for t in self.transitions]
                          for legal in arceager.LEGAL_SETS])
        masks.flags.writeable = False
        self._masks = dict(zip(arceager.LEGAL_SETS, masks))

    def legal_mask(self, c: arceager.Configuration) -> np.ndarray:
        """0 on the classes legal in ``c``, -inf on the others (read-only)."""
        return self._masks[arceager.legal_transitions(c)]


@dataclass
class TaggerModel(_Model):
    kind: ClassVar[str] = "tagger"


def _init_model(kind: str, cfg: TrainConfig, vocabs: VocabSet,
                rng=None) -> ParserModel | TaggerModel:
    """A new parser or tagger; ``rng`` (default: seeded with ``cfg.seed``)
    draws the weights, or is a checkpoint's arrays (``nn.param``)."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    encoder = SentenceEncoder(cfg, vocabs, rng, use_tags=kind == "parser")
    if kind == "tagger":
        mlp = nn.MLP(encoder.out_dim, cfg.mlp_hidden, len(vocabs.tags), rng,
                     "tag_classifier", dropout=cfg.mlp_dropout)
        return TaggerModel(cfg=cfg, vocabs=vocabs, encoder=encoder, mlp=mlp)
    transitions = build_transitions(vocabs.labels)
    mlp = nn.MLP(11 * encoder.out_dim, cfg.mlp_hidden, len(transitions), rng,
                 "classifier", dropout=cfg.mlp_dropout)
    return ParserModel(cfg=cfg, vocabs=vocabs, encoder=encoder, mlp=mlp, transitions=transitions)


# Per model kind: the epoch log's prefix, loss unit and dev metric.
_EPOCH_LOG = {"parser": ("epoch", "transition", "dev LAS"),
              "tagger": ("tagger epoch", "token", "dev acc")}


def _fit(model: ParserModel | TaggerModel, examples: list[tuple], loss_fn, dev_score=None):
    """Per-example momentum SGD (Kiperwasser & Goldberg 2016), a fresh
    permutation and learning rate ``lr / (1 + epoch * lr_decay)`` per epoch.

    ``loss_fn(example, rng)`` returns the loss summed over the example's
    gold ids (its last item) and a closure that backpropagates the mean.
    The parameters of the best ``dev_score()`` epoch, if given, are kept.
    """
    cfg = model.cfg
    prefix, unit, dev_name = _EPOCH_LOG[model.kind]
    rng = np.random.default_rng(cfg.seed)
    opt = nn.MomentumSGD(model.params(), lr=cfg.lr, momentum=cfg.momentum, l2=cfg.l2,
                         clip_norm=cfg.clip_norm)
    best_score = -1.0
    best_values = None
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr / (1.0 + epoch * cfg.lr_decay)
        total = 0.0
        n_gold = 0
        for i in rng.permutation(len(examples)):
            loss, backprop = loss_fn(examples[i], rng)
            backprop()
            opt.step()
            opt.zero_grad()
            total += loss
            n_gold += len(examples[i][-1])
        msg = f"{prefix} {epoch + 1}/{cfg.epochs}: loss/{unit} {total / n_gold:.4f}"
        if dev_score is not None:
            score = dev_score()
            msg += f", {dev_name} {score:.2f}"
            if score > best_score:
                best_score = score
                best_values = opt.values.copy()
        log.info(msg)
    if best_values is not None:
        opt.values[...] = best_values
    return model


def sentence_loss(model: ParserModel, words, tags, idx_rows, gold_ids,
                  training=False, rng=None):
    """Mean transition cross-entropy; returns loss and a backprop closure.

    Normalizing by the number of transitions keeps update magnitudes
    comparable across sentence lengths, which momentum SGD needs to stay
    stable with per-sentence updates.
    """
    ctx, enc_cache = model.encoder.encode(words, tags, training=training, rng=rng)
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
    """Static-oracle training of the parser (``_fit``). With
    ``cfg.pseudo_projective`` the training trees are projectivized here and
    the model's parses deprojectivized; otherwise a non-projective tree
    raises ``ValueError`` (``arceager.static_oracle``). With a dev treebank,
    the parameters of the best dev-LAS epoch are restored at the end."""
    if len(train) == 0:
        raise ValueError("training treebank is empty")
    if cfg.pseudo_projective:
        train = Treebank([projectivize(tree)[0] for tree in train])
    vocabs = build_vocabs(train)
    model = _init_model("parser", cfg, vocabs)
    if cfg.embeddings_path:
        model.encoder.load_pretrained_words(cfg.embeddings_path)

    examples = []
    for tree in train:
        idx_rows, seq = oracle_rollout(tree)
        gold_ids = [model.transition_id(t) for t in seq]
        examples.append((tree.forms(), tree.upos_tags(), idx_rows, gold_ids))

    def loss_fn(example, rng):
        # The module global, so a wrapper installed on it sees every call.
        loss, backprop = sentence_loss(model, *example, training=True, rng=rng)
        return loss * len(example[-1]), backprop

    def dev_las():
        return metrics.score(dev, Treebank(parse_batch(model, dev.trees)[0])).las

    return _fit(model, examples, loss_fn, dev_las if dev else None)


# Padded positions (sentences x (1 + longest sentence)) per inference
# chunk, which bounds the memory of one chunk whatever the input size.
CHUNK_TOKENS = 1024


def _chunks(lengths: list[int]):
    """Indices by sentence length, cut into runs of at most CHUNK_TOKENS
    padded positions (a longer sentence gets a run of its own)."""
    chunk: list[int] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and (len(chunk) + 1) * (lengths[i] + 1) > CHUNK_TOKENS:
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def _slot_table(W1: np.ndarray, rows: np.ndarray):
    """The classifier's first layer split by feature slot (Chen & Manning 2014).

    Returns ``(table, offsets, absent)``: row ``offsets[k] + r`` of the
    table is ``rows[r]`` times the k-th slot's block of ``W1``, and row
    ``offsets[k] + absent`` is zero, for a feature whose node is absent.
    Summing one row per slot gives the concatenated features times ``W1``.
    """
    N, D = rows.shape
    K = len(FEATURE_SELECTORS)
    blocks = W1.reshape(K, D, -1)
    table = np.zeros((K, N + 1, blocks.shape[2]))
    for k in range(K):
        np.matmul(rows, blocks[k], out=table[k, :N])
    return table.reshape(K * (N + 1), -1), np.arange(K) * (N + 1), N


def _decode(model: ParserModel, rows: np.ndarray, lengths) -> list[arceager.Configuration]:
    """Greedy decode of a chunk, all sentences in lockstep.

    ``rows`` and ``lengths`` are what ``SentenceEncoder.encode_batch``
    returns. The first layer is applied to every row once
    (``_slot_table``); each step then sums 11 table rows per unfinished
    sentence and runs the second layer once on all of them. Returns the
    terminal configurations in sentence order.
    """
    lin1, lin2 = model.mlp.lin1, model.mlp.lin2
    table, offsets, absent = _slot_table(lin1.W.value, rows)
    starts = (np.cumsum(lengths) - lengths).tolist()  # row of each sentence's ROOT
    configs = [arceager.initial_config(int(n) - 1) for n in lengths]
    active = list(range(len(configs)))
    while active:
        feats = np.array([[absent if i is None else starts[b] + i
                           for i in feature_indices(configs[b])] for b in active])
        hidden = table[feats + offsets].sum(axis=1)
        hidden += lin1.b.value
        np.maximum(hidden, 0.0, out=hidden)
        logits, _ = lin2.forward(hidden)
        logits += np.array([model.legal_mask(configs[b]) for b in active])
        for b, best in zip(active, logits.argmax(axis=1)):
            configs[b] = arceager.apply(configs[b], model.transitions[best])
        active = [b for b in active if not arceager.is_terminal(configs[b])]
    return configs


def parse_batch(model: ParserModel, trees: list[DepTree],
                tags: list[list[str]] | None = None) -> tuple[list[DepTree], int]:
    """Greedy decode of many sentences, in length-sorted chunks.

    Returns the predicted trees, which keep each input's surface columns
    and take ``tags`` (default: the input's own) as upos, and the number
    of tokens decoding left headless. Those are attached to ROOT with the
    fallback label, so every output is a valid tree.
    """
    trees = list(trees)
    tags = [t.upos_tags() for t in trees] if tags is None else list(tags)
    if len(tags) != len(trees):
        raise ValueError(f"{len(tags)} tag sequences for {len(trees)} sentences")
    out: list[DepTree] = [None] * len(trees)
    fallbacks = 0
    for chunk in _chunks([len(t) for t in trees]):
        rows, lengths = model.encoder.encode_batch([trees[i].forms() for i in chunk],
                                                   [tags[i] for i in chunk])
        for i, c in zip(chunk, _decode(model, rows, lengths)):
            fallbacks += c.n - len(c.heads)
            tokens = arceager.tree_from_config(c, trees[i].tokens, upos=tags[i]).tokens
            pred = trees[i].with_tokens(tokens)
            out[i] = deprojectivize(pred) if model.cfg.pseudo_projective else pred
    return out, fallbacks


def parse(model: ParserModel, words: list[str], tags: list[str]) -> DepTree:
    """Greedy decode of one sentence; always returns a valid tree."""
    if len(tags) != len(words):
        raise ValueError("tag sequence must align with the sentence")
    tokens = [Token(index=i + 1, form=w, upos=t) for i, (w, t) in enumerate(zip(words, tags))]
    return parse_batch(model, [DepTree(tokens=tokens)])[0][0]


def parse_tree(model: ParserModel, tree: DepTree, tags: list[str] | None = None) -> DepTree:
    """Re-parse a sentence, keeping its surface columns."""
    return parse_batch(model, [tree], None if tags is None else [tags])[0][0]


def train_tagger(train: Treebank, dev: Treebank | None, cfg: TrainConfig) -> TaggerModel:
    """Per-token softmax over the tag inventory from word+char context only
    (``_fit``); with a dev treebank, the best dev-accuracy epoch is kept."""
    if len(train) == 0:
        raise ValueError("training treebank is empty")
    vocabs = build_vocabs(train)
    if len(vocabs.tags) <= 3:  # only the reserved entries
        raise ValueError("training data carries no POS tags")
    model = _init_model("tagger", cfg, vocabs)
    examples = [(tree.forms(), [vocabs.tags.id(t) for t in tree.upos_tags()])
                for tree in train]

    def loss_fn(example, rng):
        words, gold_ids = example
        ctx, enc_cache = model.encoder.encode(words, None, training=True, rng=rng)
        logits, mlp_cache = model.mlp.forward(ctx[1:], training=True, rng=rng)
        loss, dlogits = nn.nll_loss(logits, gold_ids)

        def backprop():
            dctx = np.zeros_like(ctx)
            dctx[1:] = model.mlp.backward(dlogits / len(words), mlp_cache)
            model.encoder.backward(dctx, enc_cache)

        return loss, backprop

    def dev_acc():
        return metrics.pos_accuracy(dev, tag_batch(model, [t.forms() for t in dev]))

    return _fit(model, examples, loss_fn, dev_acc if dev else None)


def tag_batch(model: TaggerModel, sentences: list[list[str]]) -> list[list[str]]:
    """Per-token argmax tags of many sentences, in length-sorted chunks."""
    sentences = [list(words) for words in sentences]
    out: list[list[str]] = [None] * len(sentences)
    itos = model.vocabs.tags.itos
    for chunk in _chunks([len(words) for words in sentences]):
        rows, lengths = model.encoder.encode_batch([sentences[i] for i in chunk])
        tokens = np.ones(len(rows), dtype=bool)
        tokens[np.cumsum(lengths) - lengths] = False  # drop the ROOT rows
        logits, _ = model.mlp.forward(rows[tokens])
        ids = logits.argmax(axis=1)
        start = 0
        for i, n in zip(chunk, lengths - 1):
            out[i] = [itos[j] for j in ids[start:start + n]]
            start += n
    return out


def tag(model: TaggerModel, words: list[str]) -> list[str]:
    """Per-token argmax tags; output length always matches the input."""
    return tag_batch(model, [words])[0]
