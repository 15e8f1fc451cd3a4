"""Neural arc-eager parser and POS tagger.

Tokens are encoded as word embedding + character BiLSTM final states
(+ tag embedding for the parser), fed through two stacked bidirectional
layers. The parser scores labeled transitions from 11 positional
features of the configuration with a one-hidden-layer rectifier
classifier; the tagger classifies each token from its own context
vector. Both train through one loss (``sentence_loss``) on rows of
context vectors, the parser's from the static oracle, and momentum SGD
with L2, one step per mini-batch of ``batch_sentences`` sentences: the
batch loss is the mean over its sentences of each one's mean
cross-entropy. Inference runs on length-sorted chunks of sentences at
once (``parse_batch``, ``tag_batch``; ``parse`` and ``parse_tree`` are
one-sentence calls). Both use one encoder method,
``SentenceEncoder.encode_batch``: the character BiLSTM runs once over
the distinct truncated forms, the stack over a length-masked padded
batch (a training batch through ``encode``, an inference chunk).
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import arceager, metrics, nn
from .arceager import LEFT_ARC, REDUCE, RIGHT_ARC, SHIFT, Transition
from .conllu import DepTree, Token, Treebank, read_lines
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


def build_vocabs(trees) -> VocabSet:
    """The vocabularies of an iterable of trees."""
    words, tags, chars, labels = set(), set(), set(), set()
    for tree in trees:
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
          "mlp_hidden", "epochs", "batch_sentences", "max_word_chars")
# Per numeric TrainConfig field: whether a value is in range (false for
# NaN), and the range in words.
_CONFIG_RANGES = {
    **dict.fromkeys(_SIZES, (lambda v: 1 <= v < math.inf, "finite and at least 1")),
    **dict.fromkeys(("lr", "clip_norm"), (lambda v: 0 < v < math.inf, "finite and above 0")),
    **dict.fromkeys(("lr_decay", "momentum", "l2", "seed"),
                    (lambda v: 0 <= v < math.inf, "finite and at least 0")),
    **dict.fromkeys(("mlp_dropout", "word_dropout"), (lambda v: 0 <= v < 1, "in [0, 1)")),
}


# A config file's comment: '#' at the start of a line or after whitespace.
_COMMENT = re.compile(r"(?<!\S)#")


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
    # Sentences per optimizer step; the step's learning rate is lr * sqrt(B).
    batch_sentences: int = 4
    seed: int = 42
    max_word_chars: int = 32
    embeddings_path: str | None = None
    pseudo_projective: bool = False

    def __post_init__(self):
        """Reject a value of another type than its field's, or one that would
        train a useless or broken model, however the config was made: in
        code, from a file, by ``dataclasses.replace`` or from a checkpoint's
        meta."""
        for f in fields(self):
            _check_config_value(f.name, getattr(self, f.name))

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """Plain key=value file; '#' starts a comment at the start of a line
        or after whitespace, so a value such as a path can hold one. The
        seed is not read from a file: ``--seed`` or ``SCRAMBLE_SEED`` sets
        it for the run."""
        values = {}
        for line_no, line in enumerate(read_lines(path), start=1):
            line = _COMMENT.split(line, maxsplit=1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in cls.__dataclass_fields__:
                raise ValueError(f"{path}:{line_no}: bad config line '{line}'")
            if key == "seed":
                raise ValueError(f"{path}:{line_no}: seed is not a config file field; "
                                 "set it with --seed or SCRAMBLE_SEED")
            try:
                values[key] = _cast_config_value(key, value.strip())
                _check_config_value(key, values[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
        return cls(**values)


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


def _check_config_value(key: str, value) -> None:
    """Raise ``ValueError`` for a value of another type than field ``key``'s
    or outside its range."""
    kind = TrainConfig.__dataclass_fields__[key].type
    if not _FIELD_TYPES[kind][0](value):
        raise ValueError(f"{key} must be {kind.replace(' | ', ' or ')}, got {value!r}")
    if key in _CONFIG_RANGES and not _CONFIG_RANGES[key][0](value):
        raise ValueError(f"{key} must be {_CONFIG_RANGES[key][1]}, got {value}")


def _config_to_meta(cfg: TrainConfig) -> dict:
    """The config a checkpoint saves: every field, but ``batch_sentences``
    only when it is not 1, so a per-sentence model's file is the one
    written before the field existed."""
    return {k: v for k, v in cfg.__dict__.items() if (k, v) != ("batch_sentences", 1)}


def _config_from_meta(values) -> TrainConfig:
    """A checkpoint's saved config; ``TrainConfig`` checks each value. A
    missing ``batch_sentences`` is 1 (``_config_to_meta``)."""
    if not isinstance(values, dict):
        raise ValueError("cfg is not a mapping")
    for key in values:
        if key not in TrainConfig.__dataclass_fields__:
            raise ValueError(f"cfg has unknown field {key!r}")
    return TrainConfig(**{"batch_sentences": 1, **values})


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
        for line_no, line in enumerate(read_lines(path), start=1):
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

    def encode(self, sentences: list[list[str]], tags: list[list[str]] | None,
               training: bool = False, rng=None):
        """``encode_batch`` with the cache for ``backward``: the context
        vectors of each sentence (ROOT first), one sentence after another,
        and that cache. Training encodes each batch through here."""
        rows, _, cache = self.encode_batch(sentences, tags, training=training, rng=rng,
                                           cache=True)
        return rows, cache

    def encode_batch(self, sentences: list[list[str]], tags: list[list[str]] | None = None, *,
                     training: bool = False, rng=None, cache: bool = False):
        """Context vectors of many sentences at once.

        Returns ``(rows, lengths, cache)``: each sentence's context vectors
        (ROOT first), stacked one sentence after another;
        ``lengths[b] = len(sentences[b]) + 1``; and with ``cache`` what
        ``backward`` needs, else None. The char-BiLSTM runs once over the
        distinct truncated forms and the stack once over the padded
        (1 + longest, B) batch. Word dropout draws one number per token,
        sentence by sentence.
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
        """Write the parameter gradients of ``encode`` given d(context
        vectors), each once (``nn``): the embedding gradients are
        ``nn.segment_sum`` results assigned to them. When the sentence
        spells no form, the character BiLSTM and ``char_emb`` are not
        reached, and their gradients are set to zero."""
        word_ids, drop, word_kept, tag_ids, char_rows, char_batch, stack_caches, present = cache
        cfg = self.cfg
        wd = cfg.word_dim
        cd = 2 * cfg.char_hidden
        dY = np.zeros(present.shape + (dctx.shape[1],))
        dY.transpose(1, 0, 2)[present.T] = dctx
        dX = self.stack.backward(dY, stack_caches)
        self.word_emb.grad[...] = nn.segment_sum(word_ids[word_kept], dX[word_kept, :wd],
                                                 len(self.word_emb.value))
        if self.use_tags:
            self.tag_emb.grad[...] = nn.segment_sum(tag_ids[present], dX[present, wd + cd:],
                                                    len(self.tag_emb.value))
        if char_batch is None:
            for p in [self.char_emb] + self.char_rnn.params():
                p.grad.fill(0.0)
            return
        char_ids, char_lens, spelled, rnn_cache = char_batch
        # As char_vecs: the forms, then the zero row.
        dforms = nn.segment_sum(char_rows[present], dX[present, wd:wd + cd], char_rows.max() + 1)
        h = cfg.char_hidden
        dHs = np.zeros(char_ids.shape + (cd,))
        dHs[char_lens - 1, np.arange(len(spelled)), :h] = dforms[spelled, :h]
        dHs[0, :, h:] = dforms[spelled, h:]
        dC = self.char_rnn.backward(dHs, rnn_cache)
        spelt = np.arange(len(char_ids))[:, None] < char_lens
        self.char_emb.grad[...] = nn.segment_sum(char_ids[spelt], dC[spelt],
                                                 len(self.char_emb.value))


# The 11 positional feature selectors: stack top three, buffer front,
# left/rightmost children of the stack's top three, leftmost child of
# the buffer front.
FEATURE_SELECTORS = ("s0", "s1", "s2", "b0",
                     "lc(s0)", "rc(s0)", "lc(s1)", "rc(s1)", "lc(s2)", "rc(s2)",
                     "lc(b0)")


def feature_indices(c: arceager.Configuration) -> list[int]:
    """Token index picked by each selector, -1 where the node is absent."""
    stack, lc, rc = c.stack, c.lc, c.rc
    s0 = stack[-1]  # ROOT is never popped
    s1 = stack[-2] if len(stack) >= 2 else -1
    s2 = stack[-3] if len(stack) >= 3 else -1
    b0 = c.buffer_start if c.buffer_start <= c.n else -1
    return [s0, s1, s2, b0, lc.get(s0, -1), rc.get(s0, -1), lc.get(s1, -1), rc.get(s1, -1),
            lc.get(s2, -1), rc.get(s2, -1), lc.get(b0, -1)]


def _gather_features(ctx, idx_rows):
    """Each row's context vectors side by side (a parser step's 11, a
    tagger token's one); index -1 picks the zero row of an absent node."""
    padded = np.concatenate([ctx, np.zeros((1, ctx.shape[1]))])
    return padded[idx_rows].reshape(len(idx_rows), -1)


def _scatter_features(dF, idx_rows, ctx_shape):
    """The gradient of ``_gather_features`` with respect to ``ctx``."""
    n, dim = ctx_shape
    # Index -1 sums into the pad row after the n context rows, then dropped.
    rows = np.where(idx_rows < 0, n, idx_rows)
    return nn.segment_sum(rows, dF.reshape(idx_rows.shape + (dim,)), n + 1)[:-1]


def oracle_rollout(tree: DepTree):
    """Static-oracle path: a (steps, 11) array of feature indices, -1 where
    the node is absent, and the gold moves."""
    seq = arceager.static_oracle(tree)
    c = arceager.Configuration(len(tree.tokens))
    idx_rows = []
    for t in seq:
        idx_rows.append(feature_indices(c))
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
            "cfg": _config_to_meta(self.cfg),
            "vocab_items": {f.name: getattr(self.vocabs, f.name).itos for f in fields(VocabSet)},
        }
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


def _fit(model: ParserModel | TaggerModel, examples: list[tuple], dev_score=None):
    """Mini-batch momentum SGD, a fresh permutation and learning rate
    ``lr * sqrt(B) / (1 + epoch * lr_decay)`` per epoch.

    Each example is ``(words, tags, idx_rows, gold_ids)`` (``sentence_loss``).
    The permutation is cut into batches of ``B = cfg.batch_sentences``
    examples, the last one possibly shorter, and each batch takes one
    optimizer step. The rate grows with the square root of B (Hoffer,
    Hubara & Soudry 2017); B = 1 is Kiperwasser & Goldberg's (2016)
    per-sentence training, bit for bit. The rows of
    ``cfg.embeddings_path``, if set, are loaded first. An epoch whose loss
    is not finite, or in which no hidden unit of the classifier fired, is
    logged as a warning. The parameters of the best ``dev_score()`` epoch,
    if given, are kept.
    """
    cfg = model.cfg
    prefix, unit, dev_name = _EPOCH_LOG[model.kind]
    if cfg.embeddings_path:
        model.encoder.load_pretrained_words(cfg.embeddings_path)
    rng = np.random.default_rng(cfg.seed)
    opt = nn.MomentumSGD(model.params(), lr=cfg.lr, momentum=cfg.momentum, l2=cfg.l2,
                         clip_norm=cfg.clip_norm)
    size = cfg.batch_sentences
    best_score = -1.0
    best_values = None
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr * math.sqrt(size) / (1.0 + epoch * cfg.lr_decay)
        total = 0.0
        n_gold = 0
        fired = False
        order = rng.permutation(len(examples))
        for lo in range(0, len(order), size):
            batch = [examples[i] for i in order[lo:lo + size]]
            # The module global, so a wrapper installed on it sees every call.
            losses, backprop = sentence_loss(model, batch, training=True, rng=rng)
            fired |= backprop()
            del backprop  # and with it the batch's activations, before the next batch
            opt.step()
            for loss, example in zip(losses, batch):
                total += loss * len(example[-1])
                n_gold += len(example[-1])
        loss = total / n_gold
        where = f"{prefix} {epoch + 1}/{cfg.epochs}"
        msg = f"{where}: loss/{unit} {loss:.4f}"
        if dev_score is not None:
            score = dev_score()
            msg += f", {dev_name} {score:.2f}"
            if score > best_score:
                best_score = score
                best_values = opt.values.copy()
        log.info(msg)
        if not math.isfinite(loss):
            log.warning("warning: %s: the loss is %s; training diverged (lower lr)", where, loss)
        elif not fired:
            log.warning("warning: %s: no hidden unit of the classifier fired; the model "
                        "predicts from its output bias alone (lower lr)", where)
    if best_values is not None:
        opt.values[...] = best_values
    return model


def sentence_loss(model: ParserModel | TaggerModel, batch: list[tuple],
                  training=False, rng=None):
    """The cross-entropy of a batch of examples; returns each example's mean
    over its gold ids and a backprop closure.

    An example is ``(words, tags, idx_rows, gold_ids)``: row r of
    ``idx_rows`` picks the sentence's context vectors (-1: a zero row)
    that classify ``gold_ids[r]``, a parser step's 11 feature nodes or the
    tagger's one token. The batch is encoded in one padded pass and
    classified in one pass over all its rows. ``backprop()`` writes the
    gradient of the batch loss, the mean over the examples of their means,
    so each row's gradient is divided by its sentence's gold-id count and
    then by the batch size: update magnitudes stay comparable across
    sentence lengths, as momentum SGD needs to stay stable. It returns
    whether any hidden unit of the classifier fired on the batch.
    """
    words, tags, idx_rows, gold_ids = zip(*batch)
    ctx, enc_cache = model.encoder.encode(list(words), None if tags[0] is None else list(tags),
                                          training=training, rng=rng)
    # Each sentence's rows start at its ROOT row; an absent node stays -1.
    lengths = np.array([len(w) + 1 for w in words])
    idx_rows = np.concatenate([np.where(rows < 0, -1, rows + at)
                               for rows, at in zip(idx_rows, np.cumsum(lengths) - lengths)])
    F = _gather_features(ctx, idx_rows)
    logits, mlp_cache = model.mlp.forward(F, training=training, rng=rng)
    row_losses, dlogits = nn.nll_loss(logits, np.concatenate(gold_ids))
    steps = np.array([len(gold) for gold in gold_ids])
    ends = np.cumsum(steps)
    losses = np.array([row_losses[end - n:end].sum() for end, n in zip(ends, steps)]) / steps

    def backprop():
        nonlocal mlp_cache
        dlogits_scaled = dlogits / np.repeat(steps, steps)[:, None]
        dlogits_scaled /= len(batch)
        dF = model.mlp.backward(dlogits_scaled, mlp_cache)
        fired = bool((mlp_cache[1] > 0.0).any())
        # The classifier's input and its gradient are a batch's largest
        # arrays: both are freed before the encoder's backward pass.
        mlp_cache = None
        dctx = _scatter_features(dF, idx_rows, ctx.shape)
        del dF
        model.encoder.backward(dctx, enc_cache)
        return fired

    return losses, backprop


def _trees_with_tokens(train: Treebank) -> list[DepTree]:
    """The training trees of at least one token: a block of no token
    (comments only) gives no example."""
    trees = [tree for tree in train if len(tree)]
    if not trees:
        raise ValueError("the training treebank has no token")
    return trees


def train_parser(train: Treebank, dev: Treebank | None, cfg: TrainConfig) -> ParserModel:
    """Static-oracle training of the parser (``_fit``) on the trees of at
    least one token. With ``cfg.pseudo_projective`` the training trees are
    projectivized here and the model's parses deprojectivized; otherwise a
    non-projective tree raises ``ValueError`` (``arceager.static_oracle``).
    With a dev treebank, the parameters of the best dev-LAS epoch are
    restored at the end."""
    trees = _trees_with_tokens(train)
    if dev is not None and all(metrics.is_punct(t) for tree in dev for t in tree.tokens):
        raise ValueError("the dev treebank has no token to score")
    if cfg.pseudo_projective:
        trees = [projectivize(tree)[0] for tree in trees]
    model = _init_model("parser", cfg, build_vocabs(trees))
    examples = []
    for tree in trees:
        idx_rows, seq = oracle_rollout(tree)
        gold_ids = [model.transition_id(t) for t in seq]
        examples.append((tree.forms(), tree.upos_tags(), idx_rows, gold_ids))

    def dev_las():
        return metrics.score(dev, Treebank(parse_batch(model, dev.trees)[0])).las

    return _fit(model, examples, dev_las if dev else None)


# Padded positions (sentences x (1 + longest sentence)) per inference
# chunk, which bounds the memory of one chunk whatever the input size.
CHUNK_TOKENS = 1024


def _chunks(lengths: list[int]):
    """Indices of the sentences of at least one token, by length, cut into
    runs of at most CHUNK_TOKENS padded positions (a longer sentence gets
    a run of its own)."""
    chunk: list[int] = []
    for i in sorted((i for i, n in enumerate(lengths) if n), key=lengths.__getitem__):
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

    ``rows`` and ``lengths`` are the first two values that
    ``SentenceEncoder.encode_batch`` returns. The first layer is applied
    to every row once (``_slot_table``); each step then sums 11 table rows
    per unfinished sentence and runs the second layer once on all of them.
    Returns the terminal configurations in sentence order.
    """
    lin1, lin2 = model.mlp.lin1, model.mlp.lin2
    table, offsets, absent = _slot_table(lin1.W.value, rows)
    starts = np.cumsum(lengths) - lengths  # row of each sentence's ROOT
    configs = [arceager.Configuration(int(n) - 1) for n in lengths]
    active = list(range(len(configs)))
    while active:
        idx = np.array([feature_indices(configs[b]) for b in active])
        feats = np.where(idx < 0, absent, idx + starts[active, None])
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
    fallback label, so every output is a valid tree. A sentence of no
    token comes back as it is, comments and all, without being encoded.
    """
    trees = list(trees)
    tags = [t.upos_tags() for t in trees] if tags is None else list(tags)
    if len(tags) != len(trees):
        raise ValueError(f"{len(tags)} tag sequences for {len(trees)} sentences")
    out: list[DepTree] = [None if len(t) else t.with_tokens([]) for t in trees]
    fallbacks = 0
    for chunk in _chunks([len(t) for t in trees]):
        rows, lengths, _ = model.encoder.encode_batch([trees[i].forms() for i in chunk],
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
    (``_fit``), on the trees of at least one token; with a dev treebank,
    the best dev-accuracy epoch is kept."""
    trees = _trees_with_tokens(train)
    if dev is not None and not any(len(tree) for tree in dev):
        raise ValueError("the dev treebank has no token to score")
    vocabs = build_vocabs(trees)
    if len(vocabs.tags) <= 3:  # only the reserved entries
        raise ValueError("training data carries no POS tags")
    model = _init_model("tagger", cfg, vocabs)
    # One classifier row per token: its own context vector.
    examples = [(tree.forms(), None, np.arange(1, len(tree) + 1)[:, None],
                 [vocabs.tags.id(t) for t in tree.upos_tags()]) for tree in trees]

    def dev_acc():
        return metrics.pos_accuracy(dev, tag_batch(model, [t.forms() for t in dev]))

    return _fit(model, examples, dev_acc if dev else None)


def tag_batch(model: TaggerModel, sentences: list[list[str]]) -> list[list[str]]:
    """Per-token argmax tags of many sentences, in length-sorted chunks;
    a sentence of no word gets no tag, without being encoded."""
    sentences = [list(words) for words in sentences]
    out: list[list[str]] = [[] for _ in sentences]
    itos = model.vocabs.tags.itos
    for chunk in _chunks([len(words) for words in sentences]):
        rows, lengths, _ = model.encoder.encode_batch([sentences[i] for i in chunk])
        tokens = np.ones(len(rows), dtype=bool)
        tokens[np.cumsum(lengths) - lengths] = False  # drop the ROOT rows
        logits, _ = model.mlp.forward(rows[tokens])
        ids = logits.argmax(axis=1)
        start = 0
        for i, n in zip(chunk, lengths - 1):
            out[i] = [itos[j] for j in ids[start:start + n]]
            start += n
    return out
