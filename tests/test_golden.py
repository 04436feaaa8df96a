"""Golden sha256 hashes of simulate and boxplot-data outputs.

The hashes pin the exact bytes of ``dataset.csv`` for three tree designs
(noisy and crossed, deterministic, nested configs) and for the benchmark's
60,000-row design, and of the boxplot reports for a paper-sized table.
``simulate`` streams must stay bit-identical, because every statistical
criterion depends on the datasets they produce; a change that reorders,
adds or drops a draw fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from expvar.cli import main

DESIGNS = {
    # criterion 10's pipeline design
    "noisy": ({"combos": [["m-net", "adam", 0.5], ["protonet", "sgd", 0.65]],
               "n_seeds": 4, "n_configs": 4, "n_reruns": 2,
               "sigma_seed": 0.01, "sigma_hparam": 0.04, "sigma_eps": 0.02,
               "rerun_mode": "noisy", "generator_seed": 424242},
              "c631e09eb1f468d6e7c00998a1c89b835893d3cce110fad7da1c44c435fa60de"),
    "deterministic": ({"combos": [["m-net", "adam", 0.45], ["protonet", "sgd", 0.62],
                                  ["tadam", "adam", 0.70]],
                       "n_seeds": 4, "n_configs": 5, "n_reruns": 3,
                       "sigma_seed": 0.005559, "sigma_hparam": 0.042334,
                       "sigma_eps": 0.020828, "rerun_mode": "deterministic",
                       "generator_seed": 7},
                      "d9c1d38d2f301e4cd505193aac6a63b557e858122f38b6e082826d1e358a7520"),
    "nested_configs": ({"combos": [["m", "adam", 0.5], ["p", "sgd", 0.6]],
                        "n_seeds": 3, "n_configs": 4, "n_reruns": 2,
                        "sigma_seed": 0.01, "sigma_hparam": 0.03, "sigma_eps": 0.02,
                        "rerun_mode": "noisy", "generator_seed": 5,
                        "nested_configs": True},
                       "1a9d67cd450ebf0f3de238ebfa00d3965f4452ccc77349268b196196670c535c"),
}

#: The paper-sized design: 3 combos x 4 seeds x 5 configs x 3 reruns.
PAPER_DESIGN = {"combos": [["m-net", "adam", 0.45], ["protonet", "sgd", 0.62],
                           ["tadam", "adam", 0.70]],
                "n_seeds": 4, "n_configs": 5, "n_reruns": 3,
                "sigma_seed": 0.005559, "sigma_hparam": 0.042334,
                "sigma_eps": 0.020828, "rerun_mode": "noisy", "generator_seed": 4}
#: The benchmark's large design, read from its file; its stream at seed 0.
LARGE_DESIGN = Path(__file__).resolve().parent.parent / "perfbench" / "cli_large_design.json"
LARGE_SEED0_HASH = "4f50f15541515cfff7d2db511a14f2f8893951e8aff70e90c18011feec49af6a"
BOXPLOT_HASHES = {
    "boxplot_data.csv": "68bf3ca8616f4d0da844da5e0654fa8ac8d991f5d09f2f240fe2c2e18e7fcc8b",
    "boxplot_data.json": "962d9d1f283c264401412a0df0b7ef85031c9919b73e77c078b976e38f8e3e4e",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(tmp_path: Path, design: dict) -> Path:
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design))
    out = tmp_path / "sim"
    assert main(["simulate", "--design", str(design_path), "--output-dir", str(out)]) == 0
    return out / "dataset.csv"


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_simulate_dataset_golden(tmp_path, name):
    design, digest = DESIGNS[name]
    assert _sha256(_simulate(tmp_path, design)) == digest


def test_large_benchmark_dataset_golden(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--design", str(LARGE_DESIGN), "--seed", "0",
                 "--output-dir", str(out)]) == 0
    data = out / "dataset.csv"
    assert data.read_bytes().count(b"\n") == 60001
    assert _sha256(data) == LARGE_SEED0_HASH


def test_boxplot_reports_golden(tmp_path):
    data = _simulate(tmp_path, PAPER_DESIGN)
    out = tmp_path / "box"
    assert main(["boxplot-data", "--input", str(data), "--output-dir", str(out)]) == 0
    for name, digest in BOXPLOT_HASHES.items():
        assert _sha256(out / name) == digest, name
