"""Pinned result digests of the 11 engine x approach pairs the paper compares.

Each pair runs once at a small protocol (100 cases at 1:9, pop 20,
6 generations, GP seed 0), and two SHA-256 digests are compared with
pinned values. PINNED covers what its result files hold: the final front
(program, objectives, nodes) and every generation's statistics
(hypervolume, unique_count, mean_nodes, front_size). FILE_PINNED covers
the bytes of the JSON and CSV files that save_run writes, so it also
guards the file layout. A change meant to keep every result byte, such
as a speed-up or a refactor, keeps every pin. A change meant to move
results updates the pins in one step:

    PYTHONPATH=src python tests/test_pinned_runs.py

prints the current digests as PINNED and FILE_PINNED literals to paste
below, and names the pairs whose digest moved.

The pins were recorded with numpy 2.4 and Python 3.11 on x86-64 Linux.
Another numpy may round a vector loop's NaN or reduction differently, and
another Python may draw another random stream, so on another platform a
pin can move while the program is unchanged.
"""

import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semogp.gp_core import GPParams
from semogp.results import save_run
from semogp.semantic_emo import SemanticConfig, run_variant

from conftest import PAIRS, blob_dataset

PINNED = {
    "nsga2/canonical": "c76badfb205b26d5fa4115ab87f3e8b6198ec7563334da7e5162e2bac244c411",
    "nsga2/ssc": "a758fd6dfee56ffac8be277b8d094746a4bac73983d52849dc704e6fe6e4deb6",
    "nsga2/scd": "86abeec3002cf87471ef8b423089dd0d49d79305a7e792233d9a423a1d13b770",
    "nsga2/sdo": "c5930125504e26d0fa447932d6d3ed26cf55116f59c86c93aa3804708e7069f8",
    "spea2/canonical": "b565191736b3e5d429a5c0795d497a23ccae3ed25fa56d82ba963264031ce014",
    "spea2/ssc": "3f4d9bc5636e8b87cc26fbbde4d54c12f35bb7da7e7d0265fb287320e6e25f58",
    "spea2/scd": "40271a0f81f3d76d1674c1048414720cc978efe8400ee81ed9a2b60d098c291b",
    "spea2/sdo": "6a6cfba8385590f9cbc10169abaab50c50085e560144ce0332ab0d07bc1f791c",
    "moead/canonical": "80531df86370f79be9a67f5bcd6835bbacf3ac41f7ddd417db2c5c6f420167b4",
    "moead/ssc": "34a390035097283ac2cc5a7e6897e1dc57f9390631a6adc0636c1d9cabd4d44e",
    "moead/sdo": "82a76b8aba9c88058c6574fb48023c1744b27ea29b600056f1ecb5dfdfe7a6ed",
}

FILE_PINNED = {
    "nsga2/canonical": "e376a38d992e257cc71b1b4036986343558bc35137ea0057441af934622278f8",
    "nsga2/ssc": "909314ba91697db8c97389fc2e73b44abefc99af8874fb30a31d7d0539c15bb3",
    "nsga2/scd": "1101b01e6e7cb64ebedcdb98a2afd47ba0187117a76d0229ca03a4effee5e79d",
    "nsga2/sdo": "06f8e808989aa8fc7571b4cf6805472232e6cbdb251baf3706bae4f027d1723a",
    "spea2/canonical": "2e6c524e0db33f85f0e966a7465c26372ba03c6289eff3dce256d1e5b481de2a",
    "spea2/ssc": "0a6b58a9c6be5bd0f2f3b374d79bcd8c547fe6b86ce9da40b046354bb937b360",
    "spea2/scd": "5aed72b0dbe66fac5296673ce6f0a42d2d427c47092053affd1c06dca3c53389",
    "spea2/sdo": "e7a24808c8e57610a0757e59c1b9c0011c153956937eff4f619b83470a4f2779",
    "moead/canonical": "b50c8c3599ee750bbed999add2451c51c98d495bb4fcb2971b35ac8b051d22c8",
    "moead/ssc": "384ccf40c204c66b8404cf55b869a15992e7f1f3f1ecc5982a450dfe7dabfea8",
    "moead/sdo": "9aac38881c9fb633359f523bfddff01d34b31f38718d4a880cad168744298949",
}


@functools.cache
def pinned_run(engine: str, approach: str):
    """One pair's run at the pinned protocol; both pin sets read the same run."""
    dataset = blob_dataset(n_cases=100, imbalance=9, seed=0)
    gp = GPParams(pop_size=20, generations=6)
    return run_variant(engine, SemanticConfig(approach=approach), dataset, gp, seed=0)


def run_digest(engine: str, approach: str) -> str:
    """SHA-256 of one pair's front and generation statistics at the pinned protocol."""
    result = pinned_run(engine, approach)
    record = {
        "front": [[m.program, list(m.objectives), m.nodes] for m in result.front],
        "generations": [
            [row.hypervolume, row.unique_count, row.mean_nodes, row.front_size]
            for row in result.generations
        ],
    }
    # json writes floats by repr, which round-trips every double.
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def file_digest(engine: str, approach: str) -> str:
    """SHA-256 of the JSON bytes then the CSV bytes that save_run writes for one pair."""
    with tempfile.TemporaryDirectory() as directory:
        paths = save_run(pinned_run(engine, approach), directory)
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_every_paper_pair_is_pinned():
    assert sorted(PINNED) == sorted(FILE_PINNED) == sorted(f"{e}/{a}" for e, a in PAIRS)
    assert len(PAIRS) == 11


@pytest.mark.parametrize("engine,approach", PAIRS, ids=[f"{e}/{a}" for e, a in PAIRS])
def test_run_matches_pin(engine, approach):
    assert run_digest(engine, approach) == PINNED[f"{engine}/{approach}"]


@pytest.mark.parametrize("engine,approach", PAIRS, ids=[f"{e}/{a}" for e, a in PAIRS])
def test_files_match_pin(engine, approach):
    assert file_digest(engine, approach) == FILE_PINNED[f"{engine}/{approach}"]


def main():
    for name, pins, digest_of in (("PINNED", PINNED, run_digest), ("FILE_PINNED", FILE_PINNED, file_digest)):
        current = {f"{e}/{a}": digest_of(e, a) for e, a in PAIRS}
        print(f"{name} = {{")
        for key, digest in current.items():
            print(f'    "{key}": "{digest}",')
        print("}")
        moved = [key for key, digest in current.items() if pins.get(key) != digest]
        print(f"moved: {', '.join(moved) if moved else 'none'}")


if __name__ == "__main__":
    main()
