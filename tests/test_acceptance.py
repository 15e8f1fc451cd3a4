"""The paper's headline claim as a gated test: on scrambled input, the
parser trained on canonical plus transformed trees beats the one trained
on canonical trees alone, and it loses next to nothing on canonical input.

The task is the README walkthrough, driven in-process through ``cli.run``
at a size that does not saturate: 400 SOV training trees of a grammar
whose objects draw from the subjects' nouns and whose subjects lose
their case marker half the time (``gen-synthetic --shared-nouns
--drop-case 0.5``), so a bare noun's role shows only in the word order.
The training, test and LM data are generated likewise. The LM corpus
and the scrambled test set are uniform over the six S/O/V orders; the
canonical test set is SOV. Each data seed s generates its four sets
from seeds 10s+1 ... 10s+4, and the gate holds three medians over five
seeds to margins set from more seeds (CHANGES.md):

- the augmented parser's scrambled-set LAS less the baseline's;
- the augmented parser's scrambled-set LAS;
- the baseline's canonical-set LAS less the augmented parser's.

A broken augmentation (permute emitting its source trees, an LM filter
keeping the highest perplexity, a balancer keeping only identity
orders) fails the first two. The gate is marked ``slow``: the tier-1 run
leaves it out (``pyproject.toml``), and ``pytest -m slow`` runs it.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from pathlib import Path

import pytest

from scrambleparse import cli

pytestmark = pytest.mark.slow

# The README walkthrough's train.cfg.
TRAIN_CFG = """word_dim = 32
enc_hidden = 64
char_hidden = 32
epochs = 3
lr = 0.1
momentum = 0.9
lr_decay = 0.05
mlp_dropout = 0.0
"""
GRAMMAR = ("--shared-nouns", "--drop-case", "0.5")
N_TRAIN, N_TEST, N_LM = 400, 300, 3000
SEEDS = (1, 2, 3, 4, 5)

MIN_GAP = 50.0        # median augmented - baseline LAS on the scrambled set
MIN_AUGMENTED = 84.0  # median augmented LAS on the scrambled set
MAX_DROP = 1.0        # median baseline - augmented LAS on the canonical set


def _run(argv) -> str:
    """Standard output of a CLI call, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run([str(a) for a in argv])
    assert status == 0, (argv, out.getvalue())
    return out.getvalue()


def walkthrough(root: Path, seed: int, train_cfg: str = TRAIN_CFG) -> dict[str, float]:
    """LAS of the baseline and the augmented parser on both test sets, for
    one data seed; ``root`` holds the files."""
    root.mkdir(parents=True, exist_ok=True)
    f = {name: root / name for name in (
        "train.conllu", "test-scrambled.conllu", "test-canonical.conllu", "lm-trees.conllu",
        "lm-corpus.txt", "lm.nglm", "augmented.conllu", "train.cfg", "pred.conllu")}
    for out, n, orders, stream in ((f["train.conllu"], N_TRAIN, "sov=1.0", 1),
                                   (f["test-scrambled.conllu"], N_TEST, "uniform", 2),
                                   (f["test-canonical.conllu"], N_TEST, "sov=1.0", 3),
                                   (f["lm-trees.conllu"], N_LM, "uniform", 4)):
        extra = ("--text-out", f["lm-corpus.txt"]) if stream == 4 else ()
        _run(["gen-synthetic", "--n", n, "--out", out, "--orders", orders,
              "--seed", 10 * seed + stream, *GRAMMAR, *extra])
    _run(["train-lm", "--corpus", f["lm-corpus.txt"], "--order", 3, "--out", f["lm.nglm"]])
    _run(["permute", "--in", f["train.conllu"], "--lm", f["lm.nglm"], "--budget", N_TRAIN,
          "--out", f["augmented.conllu"], "--seed", seed])
    f["train.cfg"].write_text(train_cfg, encoding="utf-8")
    las = {}
    for name, sources in (("base", [f["train.conllu"]]),
                          ("aug", [f["train.conllu"], f["augmented.conllu"]])):
        model = root / f"{name}.spnn"
        _run(["train", *(a for path in sources for a in ("--train", path)), "--out", model,
              "--config", f["train.cfg"], "--seed", seed])
        for test in ("scrambled", "canonical"):
            gold = f[f"test-{test}.conllu"]
            _run(["parse", "--model", model, "--in", gold, "--out", f["pred.conllu"]])
            record = _run(["eval", "--gold", gold, "--pred", f["pred.conllu"]])
            las[f"{name}_{test}"] = json.loads(record.strip().splitlines()[-1])["las"]
    return las


def gate_medians(runs: list[dict[str, float]]) -> dict[str, float]:
    """The three gated figures, each a median over the runs."""
    return {
        "gap": statistics.median(r["aug_scrambled"] - r["base_scrambled"] for r in runs),
        "augmented": statistics.median(r["aug_scrambled"] for r in runs),
        "canonical_drop": statistics.median(r["base_canonical"] - r["aug_canonical"]
                                            for r in runs),
    }


def test_augmentation_beats_baseline_on_scrambled_input(tmp_path):
    runs = [walkthrough(tmp_path / str(seed), seed) for seed in SEEDS]
    medians = gate_medians(runs)
    detail = f"medians {medians}, runs {runs}"
    assert medians["gap"] >= MIN_GAP, detail
    assert medians["augmented"] >= MIN_AUGMENTED, detail
    assert medians["canonical_drop"] <= MAX_DROP, detail
