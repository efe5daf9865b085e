"""Start-up guard: a serving process never imports scipy.

Serving needs numpy only; ``scipy.stats`` (the evaluation correlations) and
``scipy.sparse`` (the tape's row scatter-adds) are imported where training
and evaluation first call them.  Each check runs in a fresh interpreter, so
the modules the suite itself imported do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import repro
from repro.training.metrics import compute_metrics

#: Prints the reply of one HTTP predict and ``/stats`` from an in-process
#: small-GRANITE registry, and every scipy module loaded by then.
_SERVE_SCRIPT = """
import json, sys, urllib.request
from repro.serve import (
    HttpServerConfig, ModelRegistry, ModelVariant, PredictionHttpServer, ServiceConfig,
)

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

after_import = scipy_modules()
registry = ModelRegistry((ModelVariant("granite", ServiceConfig(tasks=("haswell",))),))
registry.load("granite")
with PredictionHttpServer(registry, HttpServerConfig(port=0), own_registry=True) as server:
    base = f"http://127.0.0.1:{server.port}/v1/models/granite"
    request = urllib.request.Request(
        base + "/predict",
        data=json.dumps({"block": "add rax, rbx\\nmov rcx, rax"}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as reply:
        predict = json.loads(reply.read())
    with urllib.request.urlopen(base + "/stats", timeout=60) as reply:
        served = json.loads(reply.read())
print(json.dumps({
    "after_import": after_import,
    "after_serving": scipy_modules(),
    "predict": predict,
    "served_requests": served["snapshot"]["model"]["requests"],
}))
"""

_METRICS_SCRIPT = """
import json, sys
import repro
from repro.training.metrics import compute_metrics

before = "scipy.stats" in sys.modules
metrics = compute_metrics([1.0, 2.5, 2.0, 4.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0])
print(json.dumps({
    "before": before,
    "after": "scipy.stats" in sys.modules,
    "metrics": [metrics.mape, metrics.spearman, metrics.pearson, metrics.num_samples],
}))
"""

_TRAIN_STEP_SCRIPT = """
import json, sys
from repro.data.datasets import build_ithemal_like_dataset
from repro.models import TrainingConfig, create_model
from repro.training.trainer import Trainer

dataset = build_ithemal_like_dataset(8, seed=0)
trainer = Trainer(create_model("granite", small=True, seed=0), TrainingConfig(batch_size=8))
before = "scipy.sparse" in sys.modules
trainer.train_step(dataset, 0)
print(json.dumps({"before": before, "after": "scipy.sparse" in sys.modules}))
"""


def _run_fresh(script: str) -> dict:
    """Runs ``script`` in a new interpreter importing this checkout's
    ``repro`` and returns the JSON object it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [entry for entry in [env.get("PYTHONPATH")] if entry]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_serving_an_http_predict_loads_no_scipy():
    report = _run_fresh(_SERVE_SCRIPT)
    assert report["after_import"] == []
    assert report["after_serving"] == []
    assert report["served_requests"] == 1
    (value,) = report["predict"]["predictions"]["haswell"]
    assert np.isfinite(value)


def test_importing_repro_defers_scipy_stats_to_the_first_correlation():
    report = _run_fresh(_METRICS_SCRIPT)
    assert not report["before"]
    assert report["after"]
    predicted = [1.0, 2.5, 2.0, 4.0, 3.0]
    actual = [1.0, 2.0, 3.0, 4.0, 5.0]
    metrics = compute_metrics(predicted, actual)
    assert report["metrics"] == [metrics.mape, metrics.spearman, metrics.pearson, 5]
    assert metrics.spearman == pytest.approx(0.8)
    assert metrics.spearman == stats.spearmanr(actual, predicted)[0]
    assert metrics.pearson == stats.pearsonr(actual, predicted)[0]


def test_the_first_train_step_loads_scipy_sparse():
    report = _run_fresh(_TRAIN_STEP_SCRIPT)
    assert not report["before"]
    assert report["after"]
