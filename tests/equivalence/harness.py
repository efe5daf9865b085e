"""Golden corpus + model builders for the mixed-precision equivalence suite.

The tolerance logic itself lives in :mod:`repro.testing.equivalence` (so
benchmarks and CI share it); this module pins the *corpus* and the *golden
float64 predictions* the suite judges against:

* a synthetic part — ``build_ithemal_like_dataset`` blocks from a fixed
  seed, labels included;
* a BHive-format part — a checked-in CSV in the paper's BHive-style format
  (``golden/bhive_corpus.csv``), read through the real
  :mod:`repro.data.bhive_format` path, so format parsing is part of what
  the equivalence suite exercises;
* golden files — per-model float64 predictions over the combined corpus
  (``golden/<model>.json``), produced by models built from
  :data:`MODEL_SEED`;
* a training golden — the per-step losses of a short same-seed training
  run per model family (``golden/training_losses.json``), which pins the
  training tape (fused forwards and backwards, Adam) against drift.

Regenerate the goldens (and the BHive CSV) after an *intentional* change to
the float64 inference path or the training tape::

    python tests/equivalence/harness.py --regenerate
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Tuple

import numpy as np

if __name__ == "__main__":  # script mode: make `repro` importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "..", "src")
    )

from repro.data.bhive_format import read_dataset_csv, write_dataset_csv
from repro.data.datasets import build_bhive_like_dataset, build_ithemal_like_dataset
from repro.isa.basic_block import BasicBlock
from repro.models import create_model
from repro.models.base import ThroughputModel
from repro.models.config import TrainingConfig
from repro.training.trainer import Trainer
from repro.testing.equivalence import load_golden, save_golden

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Weight-initialisation seed of every golden model.
MODEL_SEED = 1234

#: Model families covered by the suite (granite exercises the GN stack and
#: LayerNorm-heavy residual MLPs, ithemal+ the LSTM stack).
MODEL_NAMES = ("granite", "ithemal+")

SYNTHETIC_SEED = 2024
NUM_SYNTHETIC_BLOCKS = 24
BHIVE_SEED = 2025
NUM_BHIVE_BLOCKS = 12

#: Model families, seeds and sizes of the training-loss golden.
TRAINING_MODEL_NAMES = ("granite", "ithemal+", "ithemal")
TRAINING_MODEL_SEED = 13
TRAINING_DATASET_SIZE = 60
TRAINING_DATASET_SEED = 7
TRAINING_STEPS = 4
TRAINING_CONFIG = TrainingConfig(batch_size=12, num_steps=TRAINING_STEPS, seed=3)


def bhive_corpus_path() -> str:
    return os.path.join(GOLDEN_DIR, "bhive_corpus.csv")


def golden_path(model_name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{model_name.replace('+', '_plus')}.json")


def training_losses_path() -> str:
    return os.path.join(GOLDEN_DIR, "training_losses.json")


def training_split():
    """The training split the loss golden trains on."""
    dataset = build_ithemal_like_dataset(TRAINING_DATASET_SIZE, seed=TRAINING_DATASET_SEED)
    return dataset.paper_splits(seed=0).train


def training_losses(model_name: str, train_split) -> np.ndarray:
    """Per-step losses of a fresh same-seed model trained on ``train_split``."""
    model = create_model(model_name, small=True, seed=TRAINING_MODEL_SEED)
    return Trainer(model, TRAINING_CONFIG).train(train_split).loss_curve()


def load_golden_training_losses() -> Dict[str, np.ndarray]:
    losses, _ = load_golden(training_losses_path())
    return losses


def build_corpus() -> Tuple[List[BasicBlock], Dict[str, np.ndarray]]:
    """The fixed corpus: synthetic blocks + the checked-in BHive-format CSV.

    Returns ``(blocks, labels)`` with per-task label vectors aligned to the
    block order (synthetic first, BHive second).
    """
    synthetic = build_ithemal_like_dataset(NUM_SYNTHETIC_BLOCKS, seed=SYNTHETIC_SEED)
    bhive = read_dataset_csv(bhive_corpus_path())
    blocks = synthetic.blocks() + bhive.blocks()
    labels = {
        task: np.concatenate([synthetic.throughputs(task), bhive.throughputs(task)])
        for task in synthetic.microarchitectures
    }
    return blocks, labels


def build_model(model_name: str, inference_dtype: str) -> ThroughputModel:
    """One golden model: small config, fixed seed, explicit dtype.

    Weight initialisation depends only on the seed, so the float64 and
    float32 builds of the same family hold bit-identical master weights.
    """
    return create_model(
        model_name, small=True, seed=MODEL_SEED, inference_dtype=inference_dtype
    )


def create_model_with_other_weights() -> ThroughputModel:
    """A float32 model whose weights deliberately differ from the goldens.

    Used by the suite's self-checks to prove the harness actually fails on
    non-equivalent predictions.
    """
    return create_model(
        "granite", small=True, seed=MODEL_SEED + 1, inference_dtype="float32"
    )


def load_golden_predictions(model_name: str) -> Dict[str, np.ndarray]:
    predictions, metadata = load_golden(golden_path(model_name))
    expected = NUM_SYNTHETIC_BLOCKS + NUM_BHIVE_BLOCKS
    recorded = int(metadata.get("num_blocks", expected))
    if recorded != expected:
        raise ValueError(
            f"golden file for {model_name!r} covers {recorded} blocks, "
            f"expected {expected}; regenerate it"
        )
    return predictions


def regenerate() -> None:
    """Rewrites the BHive-format corpus CSV and every golden prediction file."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    bhive = build_bhive_like_dataset(NUM_BHIVE_BLOCKS, seed=BHIVE_SEED)
    write_dataset_csv(bhive, bhive_corpus_path())
    blocks, _ = build_corpus()
    for model_name in MODEL_NAMES:
        model = build_model(model_name, "float64")
        predictions = model.predict(blocks)
        save_golden(
            golden_path(model_name),
            predictions,
            metadata={
                "model": model_name,
                "model_seed": MODEL_SEED,
                "inference_dtype": "float64",
                "num_blocks": len(blocks),
                "synthetic_seed": SYNTHETIC_SEED,
                "bhive_seed": BHIVE_SEED,
            },
        )
        print(f"wrote {golden_path(model_name)} ({len(blocks)} blocks)")
    train_split = training_split()
    save_golden(
        training_losses_path(),
        {name: training_losses(name, train_split) for name in TRAINING_MODEL_NAMES},
        metadata={
            "model_seed": TRAINING_MODEL_SEED,
            "dataset_size": TRAINING_DATASET_SIZE,
            "dataset_seed": TRAINING_DATASET_SEED,
            "batch_size": TRAINING_CONFIG.batch_size,
            "steps": TRAINING_STEPS,
            "trainer_seed": TRAINING_CONFIG.seed,
        },
    )
    print(f"wrote {training_losses_path()} ({TRAINING_STEPS} steps per model)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv[1:]:
        regenerate()
    else:
        print(__doc__)
