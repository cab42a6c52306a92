"""Golden outputs: exit code and output-tree sha256 of fixed CLI runs.

The other tests compare a run with itself (a rerun, more threads), so a
changed random stream, score tie-break or float rounding would pass them.
These pins catch that.  The cases iterate: 3-D, 4-D and 5-D weak-transfer
runs (the 4-D and 5-D ones hit the iteration cap, curating against a growing
support), two- and three-stage expansion in both evaluation modes (a reduced
stage read from a reduced stage's world, and the blacklist), three 10x10
stages whose last one reads a small part of a 10**6-cell world, compare and
check-comp.
The tree hash covers each file's relative path, size and bytes, in path
order, the same way the benchmark hashes its output trees.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from facil.cli import main


@pytest.fixture(autouse=True)
def isolated_out(monkeypatch):
    monkeypatch.delenv("FACIL_OUT", raising=False)


def grid(prefix: str, sizes: list[int]) -> list:
    return [[f"{prefix}{m}", [f"l{j}" for j in range(size)]] for m, size in enumerate(sizes)]


WEAK = {"oracle": {"beta": 1.0}, "flywheel": {"tau": 0.9}}
STAGED = [grid("a", [4, 4]), grid("b", [3, 3])]
# Weak enough transfer that every case reaches stage OAE and curates there.
THREE_STAGES = {"stages": STAGED + [grid("c", [2, 3])], "oracle": {"beta": 3.0}}
# A 10**6-cell world whose last stage searches at most 10**4 of its cells.
WIDE = [grid("a", [10, 10]), grid("b", [10, 10]), grid("c", [10, 10])]

CASES = {
    "run_6x6x6": ("run", {"space": grid("d", [6, 6, 6]), **WEAK}),
    "run_4x4x4x4": ("run", {"space": grid("d", [4, 4, 4, 4]), **WEAK}),
    "run_3x3x3x3x3": ("run", {"space": grid("d", [3, 3, 3, 3, 3]), **WEAK}),
    "expand_exact": (
        "expand",
        {
            "stages": STAGED,
            "oracle": {"beta": 10.0},
            "flywheel": {"tau": 0.9, "evaluation_mode": "exact"},
        },
    ),
    "expand_ratio": (
        "expand",
        {
            "stages": STAGED,
            "oracle": {"beta": 10.0},
            "flywheel": {"tau": 0.9, "evaluation_mode": "ratio_guided"},
        },
    ),
    "expand_three_exact": (
        "expand",
        {**THREE_STAGES, "flywheel": {"tau": 0.8, "evaluation_mode": "exact"}},
    ),
    "expand_three_ratio": (
        "expand",
        {**THREE_STAGES, "flywheel": {"tau": 0.8, "evaluation_mode": "ratio_guided"}},
    ),
    "expand_wide_exact": (
        "expand",
        {
            "stages": WIDE,
            "oracle": {"beta": 10.0},
            "flywheel": {"tau": 0.95, "evaluation_mode": "exact"},
        },
    ),
    "expand_wide_ratio": (
        "expand",
        {
            "stages": WIDE,
            "oracle": {"beta": 30.0},
            "flywheel": {"tau": 0.9, "evaluation_mode": "ratio_guided"},
        },
    ),
    "compare_pnp": ("compare", {"space": "pnp_object"}),
    "check_comp_pnp": (
        "check-comp",
        {"space": "pnp_object", "check": {"train": [[0, 0], [1, 2], [3, 1], [2, 3]]}},
    ),
}

# (case, seed) -> (exit code, output-tree sha256)
GOLDEN = {
    ("run_6x6x6", 7): (0, "3ee1a3834d38845348a70b5fa8dbb49e13530cbafa49dc53210cf3cdc01862d0"),
    ("run_6x6x6", 2**64 - 1): (0, "d2005bb112b8fb97a8c4dc7270cf8705e84070ddc4737578fcc226d8524582b4"),
    ("run_4x4x4x4", 7): (1, "aca7875c5dc212ae52298ee6534d1a2299c96b9f5ddd105523931d157f291093"),
    ("run_4x4x4x4", 2**64 - 1): (1, "a0fd839b0aa5ab6a68645617c493c5ef0f7ef46660f0878e4ea6ca5a96b76e69"),
    ("run_3x3x3x3x3", 7): (1, "46c826d9cce4a7d5946b0a7b0527095eb0499a96f1f5e5fb315f7fb9d5d6b934"),
    ("run_3x3x3x3x3", 2**64 - 1): (1, "bda0fdf987af8c5df3c2ed6b8d229bea6b70290c5ffe48c1fd7830b6a95c69fb"),
    ("expand_exact", 7): (1, "730e3c8054e0af8d5ef319aed188b121dc2071b94eab75723ba9c7a1c8b5eca2"),
    ("expand_exact", 2**64 - 1): (1, "7cabc34b358677c507ffdcf6532df6b4f865ff0b7a6b6cb17d5425bdff2ec9bd"),
    ("expand_ratio", 7): (1, "74223565b51d8cbc5df4812d924300a96f069556d0f63f472ae5ead18eba243a"),
    ("expand_ratio", 2**64 - 1): (1, "93e01085bc6b61380c377367bc7f880d92617106390f09ccce32ea29c52b220e"),
    ("expand_three_exact", 7): (0, "a019759a4c97b14fb125c496a1298e1047386a6c897eda76706dee3c6bf5d15e"),
    ("expand_three_exact", 2**64 - 1): (1, "7113f08493f4b2c8704e343fdb10edd3493cb3fcc15bd8389f5a260cd663efbb"),
    ("expand_three_ratio", 7): (0, "4ea05e411858b976d3e72e3eb51c8b712e37a4c4f8fdf20bb016247eec615b56"),
    ("expand_three_ratio", 2**64 - 1): (1, "bdd79e52cf93c20f199de284e17ef7a4ea547c970007ebc9f22b35bc0949b1e8"),
    ("expand_wide_exact", 7): (0, "bf27520a2a272f33e23192d1ce446852afcd1a3dba861409216f95de6ae67f1b"),
    ("expand_wide_exact", 2**64 - 1): (1, "02f8d02ab3dba4a7672db2ed6fde37e32712e059456b8558133bfa9840e5b222"),
    ("expand_wide_ratio", 7): (1, "113d47a5616d659e7bc3f844c273529c7441cf1c2a64c1c08311c5caa677941b"),
    ("expand_wide_ratio", 2**64 - 1): (1, "a79414580aec226950edeb9f5e8ff9c4e843fc9b67242829a31125bee5a4a906"),
    ("compare_pnp", 7): (0, "2c0a76cc6d549c30f72153086b12202e07c43eef926bda0221b1c4c006400d9e"),
    ("compare_pnp", 2**64 - 1): (0, "a0af0b0de7dc89856547e260151490929b2dd44ffc3e41728bbfc0ee01025bfa"),
    ("check_comp_pnp", 7): (0, "0414f1a0958a136baf9bcb951c726aa5a40db6927a6b11fe1d84993bfe778eb8"),
    ("check_comp_pnp", 2**64 - 1): (0, "0414f1a0958a136baf9bcb951c726aa5a40db6927a6b11fe1d84993bfe778eb8"),
}


def tree_sha256(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@pytest.mark.parametrize("case, seed", sorted(GOLDEN))
def test_golden_output_tree(tmp_path, case, seed):
    command, doc = CASES[case]
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, "seed": seed, "out": str(out)}), encoding="utf-8")
    code = main([command, "--config", str(config)])
    assert (code, tree_sha256(out)) == GOLDEN[(case, seed)]
