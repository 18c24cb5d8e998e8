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
from semogp.semantic_emo import APPROACHES, ENGINES, SemanticConfig, run_variant

from conftest import blob_dataset

# moead/scd is not one of the paper's pairs (check_engine rejects it).
PAIRS = [(e, a) for e in ENGINES for a in APPROACHES if (e, a) != ("moead", "scd")]

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
    "nsga2/canonical": "c16d14023c8808b90d8860963e36ca4b69dea9bd368026c9951c4ff4ea6fe062",
    "nsga2/ssc": "b5fa8021aefed0b6fa612051ee8594334f23382ba5fde614434850f4055a03dd",
    "nsga2/scd": "49f17a903a62069a0b6dab5c655dbb281f85016b900af3d407f5c8e1d3ea6611",
    "nsga2/sdo": "39ea6182f21dd05505292b2596646a9ba2e5b761d8fce64869b226dcc7ce0304",
    "spea2/canonical": "14ea2fda8dba629cf733d8faa8cf32ef5cf98158cc503e50234b4cb4c9623a10",
    "spea2/ssc": "9e1795c4ed654768c1ff2dd078ec5e8dcc14f3fcf76b6799f0f38a190845b1be",
    "spea2/scd": "84adb77102628c17d6069e7a909c909d8812c7e85f7aad621b88eb3bdc5014a1",
    "spea2/sdo": "665d237b61eb6e9077c06481cd876df2a07d54621d62d1980c011bf565873b94",
    "moead/canonical": "d7fe3dbfb9720fd13a73f990de739fcf9e515b1511edb38d7c35fb77554ae6d1",
    "moead/ssc": "de20cfc0a105216fdd89c52130e522a0089e57b3999a1e901ee78e456a5b5cd5",
    "moead/sdo": "f96c1d9db59262cdd9ecb4a9139c5a2f45c9892623332a4c79dcb9ea3285f0e1",
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
