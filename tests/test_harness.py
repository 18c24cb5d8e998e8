"""Configuration, experiment driver, persistence, summaries, and the CLI."""

import importlib
import json
import math
import pickle
import pkgutil
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semogp
import semogp.emo
import semogp.harness
from semogp.cli import main
from semogp.dataset import Dataset, DatasetError, load_csv, minmax_apply, minmax_fit, stratified_split, synthetic_blobs
from semogp.gp_core import GPParams, parse_prefix
from semogp.harness import (
    ExperimentConfig,
    _seed_split,
    expand_grid,
    format_summary,
    load_results,
    run_experiment,
    summarize,
)
from semogp.metrics import GenerationStats
from semogp.objectives import CLASSIFICATION_THRESHOLD, ClassificationEvaluator
from semogp.results import FrontMember, RunResult, load_run, run_file_stem, save_run
from semogp.semantic_emo import ENGINES, run_variant
from semogp.semantics import APPROACHES, SemanticConfig

from conftest import REUSE_CACHES, blob_dataset, clear_reuse_caches, file_bytes, grid_cell_hypervolume
from test_dataset import reference_split


def make_result(
    engine="nsga2",
    approach="canonical",
    seed=0,
    unique=3,
    hv=0.5,
    lbss=0.01,
    ubss=0.5,
    rule="band",
    wall=None,
):
    rows = [
        GenerationStats(
            generation=g,
            hypervolume=hv,
            unique_count=unique,
            mean_nodes=5.0,
            front_size=unique,
        )
        for g in range(2)
    ]
    front = [
        FrontMember(program="x0", objectives=(0.25, 0.5), nodes=1),
        FrontMember(
            program="(+ x0 0.5)",
            objectives=(0.0, 0.75),
            nodes=3,
            test_objectives=(0.1, 0.8),
        ),
    ]
    config = {"lbss": lbss, "ubss": ubss, "distance_rule": rule}
    return RunResult(
        engine=engine,
        approach=approach,
        seed=seed,
        config=config,
        front=front,
        generations=rows,
        wall_time_s=wall,
    )


# Doubles a result file must carry exactly: signed zeros, subnormals, extremes.
edge_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 1e-300, 1e300, -1e300]),
    st.floats(allow_nan=False),
)
float_pairs = st.tuples(edge_floats, edge_floats)
words = st.text("abcdefghijklmnopqrstuvwxyz_", max_size=8)


@st.composite
def generation_rows(draw, generation):
    front_size = draw(st.integers(0, 10**6))
    return GenerationStats(
        generation=generation,
        hypervolume=draw(edge_floats),
        unique_count=draw(st.integers(0, front_size)),
        mean_nodes=draw(edge_floats),
        front_size=front_size,
    )


@st.composite
def run_results(draw):
    member = st.builds(
        FrontMember,
        program=st.text(),
        objectives=float_pairs,
        nodes=st.integers(1, 10**9),
        test_objectives=st.none() | float_pairs,
    )
    n_generations = draw(st.integers(1, 4))
    return RunResult(
        engine=draw(st.sampled_from(ENGINES)),
        approach=draw(st.sampled_from(APPROACHES)),
        seed=draw(st.integers(0, 2**63)),
        config=draw(st.dictionaries(words, st.none() | st.integers() | edge_floats | words, max_size=4)),
        front=draw(st.lists(member, min_size=1, max_size=4)),
        generations=[draw(generation_rows(g)) for g in range(n_generations)],
        wall_time_s=draw(st.none() | edge_floats),
    )


def as_numpy_floats(result: RunResult) -> RunResult:
    """The same record with every front and generation float an np.float64."""
    def pair(values):
        return None if values is None else tuple(np.float64(x) for x in values)

    return replace(
        result,
        front=[
            replace(m, objectives=pair(m.objectives), test_objectives=pair(m.test_objectives))
            for m in result.front
        ],
        generations=[
            replace(row, hypervolume=np.float64(row.hypervolume), mean_nodes=np.float64(row.mean_nodes))
            for row in result.generations
        ],
    )


def saved_bytes(result: RunResult, directory) -> tuple[bytes, bytes]:
    json_path, csv_path = save_run(result, directory)
    return json_path.read_bytes(), csv_path.read_bytes()


class TestRunResult:
    def test_validate_passes_on_sane_result(self):
        make_result().validate()

    def test_validate_rejects_empty_front(self):
        result = make_result()
        result.front = []
        with pytest.raises(ValueError, match="front member"):
            result.validate()

    def test_validate_rejects_empty_generations(self):
        result = make_result()
        result.generations = []
        with pytest.raises(ValueError, match="generation row"):
            result.validate()

    def test_validate_rejects_unique_above_front_size(self):
        result = make_result()
        result.generations = [
            GenerationStats(
                generation=0, hypervolume=0.1, unique_count=5, mean_nodes=3.0, front_size=2
            )
        ]
        with pytest.raises(ValueError, match="unique_count"):
            result.validate()

    def test_wall_time_is_not_part_of_equality(self):
        assert make_result(wall=1.0) == make_result(wall=99.0)


class TestPersistence:
    def test_file_stem(self):
        result = make_result(engine="spea2", approach="ssc", seed=7)
        assert run_file_stem(result) == "spea2_ssc_lb0.01_ub0.5_band_seed7"

    def test_round_trip(self, tmp_path):
        result = make_result(wall=0.5)
        json_path, csv_path = save_run(result, tmp_path)
        assert json_path.exists() and csv_path.exists()
        loaded = load_run(json_path)
        assert loaded == result
        assert loaded.wall_time_s is None

    def test_json_is_stable_text(self, tmp_path):
        json_path, _ = save_run(make_result(), tmp_path)
        text = json_path.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert "wall_time_s" not in text

    def test_test_objectives_survive_round_trip(self, tmp_path):
        json_path, _ = save_run(make_result(), tmp_path)
        loaded = load_run(json_path)
        assert loaded.front[0].test_objectives is None
        assert loaded.front[1].test_objectives == (0.1, 0.8)

    def test_overwrite_same_path(self, tmp_path):
        save_run(make_result(), tmp_path)
        json_path, _ = save_run(make_result(), tmp_path)
        assert load_run(json_path) == make_result()

    def test_file_of_another_configuration_is_not_overwritten(self, tmp_path):
        json_path, _ = save_run(make_result(), tmp_path)
        before = json_path.read_bytes()
        other = make_result()
        other.config["dataset"] = "b.csv"
        with pytest.raises(ValueError, match=f"{json_path.name} holds a run of another configuration"):
            save_run(other, tmp_path)
        assert json_path.read_bytes() == before

    @pytest.mark.parametrize(
        "body", [b"not json {", b"\xff\xfe", b"[1, 2]", b'{"front": []}'], ids=["not-json", "not-text", "list", "no-config"]
    )
    def test_file_that_holds_no_run_is_not_overwritten(self, tmp_path, body):
        json_path, _ = save_run(make_result(), tmp_path)
        json_path.write_bytes(body)
        message = f"{json_path} holds no run result; use another output directory"
        with pytest.raises(ValueError, match=re.escape(message)):
            save_run(make_result(), tmp_path)
        assert json_path.read_bytes() == body

    @settings(max_examples=200, deadline=None)
    @given(run_results())
    def test_any_result_round_trips_to_the_same_bytes(self, result):
        with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
            json_path, csv_path = save_run(result, first)
            loaded = load_run(json_path)
            assert loaded == result
            assert saved_bytes(loaded, second) == (json_path.read_bytes(), csv_path.read_bytes())

    @settings(max_examples=100, deadline=None)
    @given(run_results())
    def test_numpy_floats_write_the_same_bytes(self, result):
        with tempfile.TemporaryDirectory() as plain, tempfile.TemporaryDirectory() as numpy:
            assert saved_bytes(as_numpy_floats(result), numpy) == saved_bytes(result, plain)

    def test_json_that_is_not_a_run_is_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=r"list.json is not a run result: missing keys \['approach'"):
            load_run(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda front: front[0].update(extra=1),
                "front entry 0 is not a front member: missing keys [], unknown keys ['extra']",
            ),
            (
                lambda front: front[1].pop("nodes"),
                "front entry 1 is not a front member: missing keys ['nodes'], unknown keys []",
            ),
            (
                lambda front: front.__setitem__(1, ["x0", [0.25, 0.5], 1]),
                "front entry 1 is not a front member: missing keys ['nodes', 'objectives', 'program'],"
                " unknown keys []",
            ),
            (
                lambda front: front[0].update(test_objectives="ab"),
                "front entry 0 is not a front member: key test_objectives must be of type"
                " tuple[float, float] | None, got 'ab'",
            ),
            (
                lambda front: front[1].update(objectives=[0.25, 0.5, 0.75]),
                "front entry 1 is not a front member: key objectives must be of type"
                " tuple[float, float], got [0.25, 0.5, 0.75]",
            ),
            (
                lambda front: front[0].update(nodes=True),
                "front entry 0 is not a front member: key nodes must be of type int, got True",
            ),
            (
                lambda front: front[0].update(program=None),
                "front entry 0 is not a front member: key program must be of type str, got None",
            ),
        ],
        ids=[
            "unknown-key",
            "missing-key",
            "entry-not-an-object",
            "string-pair",
            "three-objectives",
            "bool-nodes",
            "null-program",
        ],
    )
    def test_malformed_front_entry_is_rejected(self, tmp_path, edit, message):
        json_path, _ = save_run(make_result(), tmp_path)
        payload = json.loads(json_path.read_text())
        edit(payload["front"])
        json_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{json_path} is not a run result: {message}")):
            load_run(json_path)

    def test_front_that_is_not_a_list_is_rejected(self, tmp_path):
        json_path, _ = save_run(make_result(), tmp_path)
        payload = json.loads(json_path.read_text())
        payload["front"] = payload["front"][0]
        json_path.write_text(json.dumps(payload))
        message = f"{json_path} is not a run result: key front must be of type list, got {{'nodes': 1,"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_run(json_path)

    @pytest.mark.parametrize(
        "key,value,kind",
        [
            ("engine", 1, "str"),
            ("approach", None, "str"),
            ("seed", "0", "int"),
            ("seed", False, "int"),
            ("config", [], "dict"),
        ],
    )
    def test_wrongly_typed_run_value_is_rejected(self, tmp_path, key, value, kind):
        json_path, _ = save_run(make_result(), tmp_path)
        payload = json.loads(json_path.read_text())
        payload[key] = value
        json_path.write_text(json.dumps(payload))
        message = f"{json_path} is not a run result: key {key} must be of type {kind}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_run(json_path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda lines: [line + (",foo" if i == 0 else ",1") for i, line in enumerate(lines)],
                r"is not a generations file: missing columns \[\], unknown or repeated columns \['foo'\]",
            ),
            (
                lambda lines: [line.rsplit(",", 1)[0] for line in lines],
                r"is not a generations file: missing columns \['front_size'\], unknown or repeated columns \[\]",
            ),
            (
                lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], lines[2]],
                r"line 2: 4 cells, expected 5",
            ),
            (
                lambda lines: [lines[0], lines[1], lines[2].replace("0.5", "abc")],
                r"line 3, column hypervolume: 'abc' is not of type float",
            ),
        ],
        ids=["unknown-column", "missing-column", "short-row", "non-numeric-cell"],
    )
    def test_malformed_csv_is_rejected(self, tmp_path, edit, message):
        json_path, csv_path = save_run(make_result(), tmp_path)
        csv_path.write_text("\n".join(edit(csv_path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(csv_path)) + " " + message):
            load_run(json_path)

    def test_load_results_requires_files(self, tmp_path):
        with pytest.raises(ValueError, match="no result files"):
            load_results(tmp_path)

    def test_load_results_sorted_by_name(self, tmp_path):
        save_run(make_result(seed=2), tmp_path)
        save_run(make_result(seed=10), tmp_path)
        save_run(make_result(seed=1), tmp_path)
        seeds = [r.seed for r in load_results(tmp_path)]
        assert seeds == sorted(seeds, key=str)


class TestExperimentConfig:
    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d.csv", "engine": "spea2", "seeds": [1, 2]}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.engine == "spea2"
        assert cfg.seeds == [1, 2]
        assert cfg.pop_size == 100

    def test_from_json_unknown_key(self, tmp_path):
        # The retired ssc, engine, moead/scd and threshold keys fail loudly instead of being silently ignored.
        path = tmp_path / "cfg.json"
        for key in (
            "population",
            "ssc_subset_fraction",
            "ssc_parent_distance",
            "ssc_max_trials",
            "allow_scd_moead",
            "archive_size",
            "moead_neighbors",
            "moead_delta",
            "moead_max_replacements",
            "threshold",
        ):
            path.write_text(json.dumps({"dataset": "d.csv", key: 1}))
            with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
                ExperimentConfig.from_json(path)

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        start = readme.index("Config keys and defaults")
        paragraph = readme[start : readme.index("\n\n", start)]
        documented = set(re.findall(r"`(\w+)`\s*\(", paragraph))
        assert documented == {f.name for f in fields(ExperimentConfig)}

    def test_from_json_checks_types(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d.csv", "lbss": [0.01, "0.1"], "ubss": "inf"}))
        assert ExperimentConfig.from_json(path).ubss == "inf"
        path.write_text(json.dumps({"dataset": "d.csv", "scale_features": "yes"}))
        with pytest.raises(ValueError, match="scale_features must be of type bool"):
            ExperimentConfig.from_json(path)

    def test_from_json_requires_dataset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"engine": "nsga2"}))
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("body", ['[{"dataset": "d.csv"}]', "3", '"x"'])
    def test_from_json_requires_an_object(self, tmp_path, body):
        path = tmp_path / "cfg.json"
        path.write_text(body)
        with pytest.raises(ValueError, match=re.escape(f"{path} must hold a JSON object")):
            ExperimentConfig.from_json(path)

    def test_validate(self):
        ExperimentConfig(dataset="d.csv").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="d.csv", engine="annealing").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="d.csv", approach="psychic").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="d.csv", distance_rule="nearest").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="d.csv", seeds=[]).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="d.csv", seeds=[1, 1]).validate()
        # Rejected at the config boundary, before the (missing) CSV is read,
        # each with the message of the class that owns the setting.
        for settings, message in (
            ({"n_workers": 0}, "n_workers"),
            ({"pop_size": 1}, "pop_size"),
            ({"lbss": 0.6, "ubss": 0.5}, "lbss <= ubss"),
            ({"engine": "moead", "approach": "scd"}, "scd replaces a crowding mechanism moead does not have"),
            ({"train_fraction": 1.5}, "train_fraction must lie strictly between 0 and 1"),
            ({"pop_size": "10"}, "pop_size must be of type int"),
            ({"seeds": 3}, "seeds must be of type list"),
            ({"crossover_rate": None}, "crossover_rate must be of type float"),
            ({"ubss": "abc"}, "ubss must be a number"),
            ({"lbss": "abc"}, "lbss must be a number"),
            ({"ubss": True}, "ubss must be of type"),
        ):
            with pytest.raises(ValueError, match=message):
                run_experiment(ExperimentConfig(dataset="missing.csv", **settings))

    def test_grid_expansion(self):
        cfg = ExperimentConfig(
            dataset="d.csv",
            lbss=[0.001, 0.01, 0.1, 0.2],
            ubss=[0.25, 0.5, 0.75, 1.0],
        )
        singles = expand_grid(cfg)
        assert len(singles) == 16
        pairs = {(s.lbss, s.ubss) for s in singles}
        assert len(pairs) == 16
        assert all(isinstance(s.lbss, float) and isinstance(s.ubss, float) for s in singles)
        assert (0.001, 0.25) in pairs and (0.2, 1.0) in pairs

    def test_bad_grid_entry_names_its_key(self):
        for name in ("lbss", "ubss"):
            cfg = ExperimentConfig(dataset="d.csv", **{name: [0.01, "abc"]})
            cfg._check_types()
            with pytest.raises(ValueError, match=f"{name} must be a number.*'abc'"):
                expand_grid(cfg)
            with pytest.raises(ValueError, match=f"^{name} must be a non-empty list$"):
                expand_grid(ExperimentConfig(dataset="d.csv", **{name: []}))

    def test_a_repeated_grid_value_names_its_key(self):
        # Equal after parsing counts: 0.1 and "1e-1", inf and "inf".
        for name, value in (("lbss", [0.1, 0.1]), ("lbss", [0.1, "1e-1"]), ("ubss", [0.5, math.inf, "inf"])):
            with pytest.raises(ValueError, match=f"^{name} must not repeat a value"):
                expand_grid(ExperimentConfig(dataset="d.csv", **{name: value}))

    def test_single_values_are_not_a_grid(self):
        cfg = ExperimentConfig(dataset="d.csv")
        assert expand_grid(cfg) == [cfg]

    def test_string_bounds_parse(self):
        cfg = ExperimentConfig(dataset="d.csv", lbss=0.0, ubss="inf")
        assert math.isinf(cfg.semantic_config().ubss)

    def test_echo_excludes_operational_knobs(self):
        cfg = ExperimentConfig(dataset="d.csv", seeds=[3, 4], output_dir="/tmp/x", n_workers=8)
        echo = cfg.echo(4)
        assert "output_dir" not in echo
        assert "n_workers" not in echo
        assert echo["seeds"] == [4]
        assert echo["dataset"] == "d.csv"

    def test_param_object_mapping(self):
        defaults = ExperimentConfig(dataset="d.csv")
        assert defaults.gp_params() == GPParams()
        assert defaults.semantic_config() == SemanticConfig()
        # The threshold is not a setting, but each run file still states it.
        assert defaults.echo(0)["threshold"] == CLASSIFICATION_THRESHOLD == 0.0
        cfg = ExperimentConfig(
            dataset="d.csv",
            approach="ssc",
            pop_size=30,
            generations=5,
        )
        assert cfg.gp_params().pop_size == 30
        assert cfg.gp_params().generations == 5
        assert cfg.semantic_config().approach == "ssc"


@pytest.fixture
def tiny_config(blob_csv, tmp_path):
    return ExperimentConfig(
        dataset=str(blob_csv),
        pop_size=10,
        generations=3,
        init_min_depth=1,
        init_max_depth=3,
        seeds=[0, 1],
        output_dir=str(tmp_path / "results"),
    )


class TestRunExperiment:
    def test_writes_files_and_attaches_test_metrics(self, tiny_config):
        results = run_experiment(tiny_config)
        assert [r.seed for r in results] == [0, 1]
        out = load_results(tiny_config.output_dir)
        assert len(out) == 2
        for result in results:
            for member in result.front:
                assert member.test_objectives is not None
                assert len(member.test_objectives) == 2
                assert all(0.0 <= x <= 1.0 for x in member.test_objectives)

    def test_rerun_is_byte_identical(self, tiny_config):
        run_experiment(tiny_config)
        out = list(sorted((p.name, p.read_bytes()) for p in _result_files(tiny_config)))
        rerun_cfg = replace(tiny_config, n_workers=4)
        run_experiment(rerun_cfg)
        again = list(sorted((p.name, p.read_bytes()) for p in _result_files(tiny_config)))
        assert out == again

    def test_grid_reads_the_dataset_once(self, tiny_config, monkeypatch):
        calls = []

        def load_csv_counted(*args, **kwargs):
            calls.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(semogp.harness, "load_csv", load_csv_counted)
        results = run_experiment(replace(tiny_config, lbss=[0.01, 0.1, 0.2], ubss=[0.4, 0.5]))
        assert len(calls) == 1
        assert len(results) == 12

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_grid_matches_points_run_one_by_one(self, tiny_config, tmp_path, n_workers):
        grid = replace(tiny_config, lbss=[0.01, 0.1], ubss=[0.4, 0.5], n_workers=n_workers)
        results = run_experiment(grid)
        # Grid point by grid point, seed by seed.
        order = [(r.config["lbss"], r.config["ubss"], r.seed) for r in results]
        assert order == [(lb, ub, s) for lb in (0.01, 0.1) for ub in (0.4, 0.5) for s in (0, 1)]
        for index, point in enumerate(expand_grid(grid)):
            run_experiment(replace(point, n_workers=1, output_dir=str(tmp_path / f"point{index}")))
        by_point = {p.name: p.read_bytes() for d in tmp_path.glob("point*") for p in d.iterdir()}
        assert len(by_point) == 16
        assert {p.name: p.read_bytes() for p in _result_files(grid)} == by_point

    def test_bad_grid_point_is_reported_before_the_dataset(self):
        cfg = ExperimentConfig(dataset="missing.csv", lbss=[0.1, 0.6], ubss=0.5)
        with pytest.raises(ValueError, match="need lbss <= ubss"):
            run_experiment(cfg)

    def test_scaled_features_use_the_train_bounds(self, tiny_config, tmp_path):
        # Features of large magnitude, so that scaling moves every program output.
        path = tmp_path / "large.csv"
        rows = synthetic_blobs(200, 9, seed=5)
        path.write_text(
            "x0,x1,label\n" + "".join(f"{5e4 + 1e3 * a!r},{-2e3 - 300 * b!r},{c}\n" for a, b, c in rows)
        )
        cfg = replace(tiny_config, dataset=str(path), scale_features=True, seeds=[3])
        (result,) = run_experiment(cfg)

        train, test = stratified_split(load_csv(path), cfg.train_fraction, seed=3)
        lo, hi = train.features.min(axis=0), train.features.max(axis=0)
        assert not np.array_equal(test.features.min(axis=0), lo)

        def scaled(ds):
            return Dataset((ds.features - lo) / (hi - lo), ds.labels)

        expected = run_variant(
            cfg.engine,
            cfg.semantic_config(),
            scaled(train),
            cfg.gp_params(),
            seed=3,
        )
        expected.config = cfg.echo(3)
        assert replace(result, front=[replace(m, test_objectives=None) for m in result.front]) == expected
        evaluator = ClassificationEvaluator(scaled(test))
        for member in result.front:
            scored = evaluator.evaluate_tree(parse_prefix(member.program)).objectives
            assert member.test_objectives == tuple(scored.tolist())

    def test_test_metrics_score_each_program_text_once(self, blob_csv, monkeypatch):
        ds = load_csv(blob_csv)
        members = make_result().front
        result = replace(make_result(), front=[replace(members[i], test_objectives=None) for i in (0, 1, 0, 0, 1)])
        evaluate = ClassificationEvaluator.evaluate_tree
        scored = []

        def counted(evaluator, tree):
            scored.append(tree)
            return evaluate(evaluator, tree)

        monkeypatch.setattr(ClassificationEvaluator, "evaluate_tree", counted)
        semogp.harness._attach_test_metrics(result, ds)
        assert len(scored) == 2
        fresh = ClassificationEvaluator(ds)
        for member in result.front:
            objectives = evaluate(fresh, parse_prefix(member.program)).objectives
            assert member.test_objectives == tuple(objectives.tolist())

    def test_results_loadable_and_equal(self, tiny_config):
        results = run_experiment(tiny_config)
        loaded = load_results(tiny_config.output_dir)
        by_seed = {r.seed: r for r in loaded}
        for result in results:
            assert by_seed[result.seed] == result


class TestReuseAcrossRuns:
    """Runs on one dataset and seed build and score its initial population once."""

    def test_the_autouse_fixture_clears_every_cache_in_the_package(self):
        # A cache it missed would carry one test's results into the next.
        found = {}
        for info in pkgutil.iter_modules(semogp.__path__):
            for value in vars(importlib.import_module(f"semogp.{info.name}")).values():
                for candidate in (value, *vars(value).values()) if isinstance(value, type) else (value,):
                    if hasattr(candidate, "cache_clear"):
                        found[id(candidate)] = f"{info.name}.{candidate.__qualname__}"
        assert set(found) == {id(cached) for cached in REUSE_CACHES}, sorted(found.values())

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        build = semogp.emo.ramped_half_and_half

        def counted(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(semogp.emo, "ramped_half_and_half", counted)
        return built

    def test_scaled_runs_share_one_initial_population(self, tiny_config, tmp_path, monkeypatch):
        approaches = ("canonical", "sdo", "ssc", "scd")
        cfg = replace(tiny_config, scale_features=True, seeds=[2])
        cold = {}
        for approach in approaches:
            clear_reuse_caches()
            out = tmp_path / f"cold_{approach}"
            run_experiment(replace(cfg, approach=approach, output_dir=str(out)))
            cold.update(file_bytes(out))
        clear_reuse_caches()
        built = self.count_builds(monkeypatch)
        for approach in approaches:
            run_experiment(replace(cfg, approach=approach, output_dir=str(tmp_path / "warm")))
        assert len(built) == 1
        assert file_bytes(tmp_path / "warm") == cold

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_grid_runs_and_saves_seed_major_and_returns_point_major(self, tiny_config, tmp_path, monkeypatch, n_workers):
        grid = replace(tiny_config, approach="ssc", seeds=[0, 1], lbss=[0.01, 0.1], n_workers=n_workers)
        cold = {}
        for index, point in enumerate(expand_grid(grid)):
            for seed in grid.seeds:
                clear_reuse_caches()
                out = tmp_path / f"cold{index}_{seed}"
                run_experiment(replace(point, seeds=[seed], n_workers=1, output_dir=str(out)))
                cold.update(file_bytes(out))
        clear_reuse_caches()
        built = self.count_builds(monkeypatch)
        saved, save = [], semogp.harness.save_run

        def recorded(result, output_dir):
            saved.append(result)
            return save(result, output_dir)

        monkeypatch.setattr(semogp.harness, "save_run", recorded)
        out, on_disk, run_seed = Path(grid.output_dir), [], semogp.harness._run_seed

        def started(*job):
            on_disk.append(sorted(p.name for p in out.iterdir()) if out.exists() else [])
            return run_seed(*job)

        if n_workers == 1:
            # Spawned workers would not see this patch.
            monkeypatch.setattr(semogp.harness, "_run_seed", started)
        results = run_experiment(grid)
        seed_major = [(lb, s) for s in (0, 1) for lb in (0.01, 0.1)]
        point_major = [(lb, s) for lb in (0.01, 0.1) for s in (0, 1)]
        assert [(r.config["lbss"], r.seed) for r in results] == point_major
        assert [(r.config["lbss"], r.seed) for r in saved] == seed_major
        if n_workers == 1:
            # Each run's files are on disk before the next run starts.
            stems = [run_file_stem(r) for r in saved]
            before = [sorted(f"{stem}.{ext}" for stem in stems[:k] for ext in ("csv", "json")) for k in range(4)]
            assert on_disk == before
            # Worker processes build their own; here, one build per seed.
            assert len(built) == 2
        assert file_bytes(grid.output_dir) == cold

    @pytest.fixture
    def in_process_pool(self, monkeypatch):
        """Replace the pool with one worker in this process, and return the
        max_workers of each pool opened."""
        opened = []

        class InProcessPool:
            """ProcessPoolExecutor as one worker in this process: it unpickles
            its initargs once, when it starts, and each chunk of jobs on its
            own, and sends back a chunk's results only when the whole chunk
            has run, as the real pool does."""

            def __init__(self, max_workers, mp_context, initializer=None, initargs=()):
                opened.append(max_workers)
                self.initializer, self.initargs = initializer, initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                if self.initializer:
                    self.initializer(*pickle.loads(pickle.dumps(self.initargs)))
                jobs = list(zip(*iterables))
                for start in range(0, len(jobs), chunksize):
                    yield from [fn(*args) for args in pickle.loads(pickle.dumps(jobs[start : start + chunksize]))]

        monkeypatch.setattr(semogp.harness, "ProcessPoolExecutor", InProcessPool)
        return opened

    def test_a_worker_shares_one_dataset_across_its_runs(self, tiny_config, in_process_pool):
        grid = replace(tiny_config, seeds=[0, 1], lbss=[0.01, 0.1, 0.2], n_workers=4)
        assert len(run_experiment(grid)) == 6
        # A Dataset pickled with each job would key every run apart: 6 splits and 6 builds.
        assert _seed_split.cache_info().misses == 2
        assert semogp.emo._scored_population.cache_info().misses == 2
        # At most one worker per run, so a one-seed grid still runs its points side by side.
        assert len(run_experiment(replace(grid, seeds=[0]))) == 3
        assert in_process_pool == [4, 3]

    def test_a_failed_pooled_run_keeps_the_files_of_every_run_before_it(self, tiny_config, in_process_pool, monkeypatch):
        run_seed = semogp.harness._run_seed

        def third_fails(cfg, full, seed):
            if cfg.lbss == 0.2:
                raise RuntimeError("the third run failed")
            return run_seed(cfg, full, seed)

        monkeypatch.setattr(semogp.harness, "_run_seed", third_fails)
        grid = replace(tiny_config, seeds=[0, 1], lbss=[0.01, 0.1, 0.2], n_workers=2)
        with pytest.raises(RuntimeError, match="the third run failed"):
            run_experiment(grid)
        saved = sorted(path.name for path in Path(grid.output_dir).iterdir())
        assert saved == sorted(f"{stem}_seed0.{ext}" for stem in ("nsga2_canonical_lb0.01_ub0.5_band", "nsga2_canonical_lb0.1_ub0.5_band") for ext in ("csv", "json"))


def reference_seed_split(ds, train_fraction, seed, scale):
    """The rows reference_split gives, each half min-max scaled by the training ranges if scale."""
    train, test = (ds.subset(idx) for idx in reference_split(ds, train_fraction, seed))
    if not scale:
        return train, test
    mins, maxs = minmax_fit(train)
    return minmax_apply(train, mins, maxs), minmax_apply(test, mins, maxs)


class TestSeedSplit:
    """The last split is kept for the same Dataset object, fraction, seed and scale_features."""

    @pytest.mark.parametrize("scale", [False, True])
    def test_a_repeat_call_returns_the_same_datasets(self, small_dataset, scale):
        train, test = _seed_split(small_dataset, 0.7, 3, scale)
        again = _seed_split(small_dataset, 0.7, 3, scale)
        assert again[0] is train and again[1] is test

    def test_another_seed_fraction_scaling_or_dataset_splits_again(self, small_dataset):
        twin = blob_dataset()
        assert np.array_equal(twin.features, small_dataset.features)
        others = [(small_dataset, 0.7, 4, False), (small_dataset, 0.6, 3, False), (small_dataset, 0.7, 3, True)]
        for args in [*others, (twin, 0.7, 3, False)]:
            kept = _seed_split(small_dataset, 0.7, 3, False)
            train, test = _seed_split(*args)
            assert train is not kept[0] and test is not kept[1]
            for got, want in zip((train, test), reference_seed_split(*args), strict=True):
                assert np.array_equal(got.features, want.features)
                assert np.array_equal(got.labels, want.labels)
            assert _seed_split(*args)[0] is train
            assert _seed_split.cache_info().currsize == 1
        # The twin's split holds the same rows but is its own object.
        assert np.array_equal(train.features, kept[0].features)

    def test_an_invalid_fraction_raises_and_is_not_kept(self, small_dataset):
        train, _ = _seed_split(small_dataset, 0.7, 3, False)
        for _ in range(2):
            with pytest.raises(DatasetError, match="strictly between"):
                _seed_split(small_dataset, 1.5, 3, False)
        assert _seed_split.cache_info().currsize == 1
        assert _seed_split(small_dataset, 0.7, 3, False)[0] is train

    @pytest.mark.parametrize("scale", [False, True])
    def test_a_failed_split_is_not_kept(self, scale):
        ds = Dataset([[1.0], [2.0], [3.0]], [True, False, False])
        for _ in range(2):
            with pytest.raises(DatasetError, match="at least two cases to split"):
                _seed_split(ds, 0.5, 0, scale)
        assert _seed_split.cache_info().currsize == 0

    @pytest.mark.parametrize("scale", [False, True])
    def test_a_kept_split_equals_a_fresh_one(self, small_dataset, scale):
        kept = _seed_split(small_dataset, 0.7, 5, scale)
        assert _seed_split(small_dataset, 0.7, 5, scale) is kept
        _seed_split.cache_clear()
        fresh = _seed_split(small_dataset, 0.7, 5, scale)
        assert fresh[0] is not kept[0]
        for a, b in zip(kept, fresh):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)
            assert not a.features.flags.writeable and not a.labels.flags.writeable

    def test_the_scaled_pair_is_each_half_scaled_by_the_training_ranges(self, small_dataset):
        train, test = stratified_split(small_dataset, 0.7, seed=3)
        scaled = _seed_split(small_dataset, 0.7, 3, True)
        mins, maxs = minmax_fit(train)
        for got, ds in zip(scaled, (train, test)):
            assert np.array_equal(got.features, minmax_apply(ds, mins, maxs).features)
            assert np.array_equal(got.labels, ds.labels)
        assert _seed_split(small_dataset, 0.7, 3, True) is scaled
        # Another split drops the kept one, and its scaled pair with it.
        other = _seed_split(small_dataset, 0.7, 4, True)
        assert _seed_split(small_dataset, 0.7, 4, True) is other
        again = _seed_split(small_dataset, 0.7, 3, True)
        assert again[0] is not scaled[0]
        assert np.array_equal(again[0].features, scaled[0].features)


def _result_files(cfg):
    from pathlib import Path

    return sorted(Path(cfg.output_dir).iterdir())


class TestSummarize:
    def test_ratio_hand_case(self):
        results = [
            make_result(approach="sdo", seed=s, unique=u)
            for s, u in ((0, 10), (1, 12), (2, 8))
        ] + [
            make_result(approach="canonical", seed=s, unique=u)
            for s, u in ((0, 4), (1, 4), (2, 2))
        ]
        summary = summarize(results)
        ratios = {
            (r["engine"], r["approach_a"], r["approach_b"]): r["ratio"]
            for r in summary.unique_ratios
        }
        assert ratios[("nsga2", "sdo", "canonical")] == pytest.approx(2.5)
        assert ratios[("nsga2", "canonical", "sdo")] == pytest.approx(0.4)

    def test_ratios_compare_approaches_within_one_grid_cell(self):
        # Pooled over the two lbss values, ssc's median would be 12 and
        # canonical / ssc 0.83; each cell has its own ratio.
        results = [
            make_result(approach=approach, lbss=lbss, unique=unique)
            for approach, lbss, unique in (
                ("canonical", 0.01, 10),
                ("canonical", 0.1, 10),
                ("ssc", 0.01, 4),
                ("ssc", 0.1, 20),
            )
        ]
        summary = summarize(results)
        row_keys = ("engine", "lbss", "ubss", "distance_rule", "approach_a", "approach_b")
        ratios = {tuple(r[k] for k in row_keys): r["ratio"] for r in summary.unique_ratios}
        assert ratios == {
            ("nsga2", 0.01, 0.5, "band", "canonical", "ssc"): 2.5,
            ("nsga2", 0.01, 0.5, "band", "ssc", "canonical"): 0.4,
            ("nsga2", 0.1, 0.5, "band", "canonical", "ssc"): 0.5,
            ("nsga2", 0.1, 0.5, "band", "ssc", "canonical"): 2.0,
        }
        text = format_summary(summary)
        assert "nsga2 lbss=0.01 ubss=0.5 band: canonical / ssc = 2.50" in text
        assert "nsga2 lbss=0.1 ubss=0.5 band: canonical / ssc = 0.50" in text
        assert "0.83" not in text

    def test_approach_alone_in_its_cell_has_no_ratio(self):
        results = [make_result(approach="canonical", lbss=0.01), make_result(approach="ssc", lbss=0.1)]
        assert summarize(results).unique_ratios == []

    def test_zero_median_gives_infinite_ratio(self):
        results = [
            make_result(approach="sdo", unique=5),
            make_result(approach="canonical", unique=0),
        ]
        summary = summarize(results)
        ratios = {
            (r["approach_a"], r["approach_b"]): r["ratio"] for r in summary.unique_ratios
        }
        assert math.isinf(ratios[("sdo", "canonical")])
        assert ratios[("canonical", "sdo")] == 0.0

    def test_metric_aggregates(self):
        results = [make_result(seed=s, unique=u, hv=h) for s, u, h in ((0, 2, 0.2), (1, 4, 0.6))]
        summary = summarize(results)
        assert len(summary.configs) == 1
        cs = summary.configs[0]
        assert cs.n_runs == 2
        assert cs.metrics["hypervolume"]["mean"] == pytest.approx(0.4)
        assert cs.metrics["hypervolume"]["median"] == pytest.approx(0.4)
        assert cs.metrics["hypervolume"]["min"] == pytest.approx(0.2)
        assert cs.metrics["hypervolume"]["max"] == pytest.approx(0.6)
        assert cs.metrics["unique_count"]["median"] == pytest.approx(3.0)

    def test_runs_of_different_configurations_are_not_merged(self):
        pop10 = make_result(seed=1)
        pop10.config.update(dataset="a.csv", pop_size=10, seeds=[1])
        pop12 = make_result(seed=0)
        pop12.config.update(dataset="b.csv", pop_size=12, seeds=[0])
        with pytest.raises(ValueError, match=r"differ in config keys \['dataset', 'pop_size'\]"):
            summarize([pop10, pop12])

    def test_groups_split_by_bounds(self):
        results = [make_result(seed=0, ubss=0.5), make_result(seed=0, ubss=0.75)]
        summary = summarize(results)
        assert len(summary.configs) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no results"):
            summarize([])

    def test_test_hypervolume_from_written_files(self, tiny_config):
        run_experiment(tiny_config)
        by_hand = []
        for path in sorted(Path(tiny_config.output_dir).glob("*.json")):
            front = json.loads(path.read_text())["front"]
            points = [member["test_objectives"] for member in front]
            by_hand.append(grid_cell_hypervolume(points, (1.01, 1.01)))
        assert len(by_hand) == 2
        summary = summarize(load_results(tiny_config.output_dir))
        test_hv = summary.configs[0].metrics["test_hypervolume"]
        assert test_hv["median"] == pytest.approx(sum(by_hand) / 2)
        assert test_hv["min"] == pytest.approx(min(by_hand))
        assert test_hv["max"] == pytest.approx(max(by_hand))
        lines = format_summary(summary).splitlines()
        assert "test hv med" in lines[0]
        assert f"{test_hv['median']:.4f}" in lines[2].split()

    def test_runs_without_test_objectives_have_no_test_hypervolume(self):
        # make_result's front has a member without held-out objectives.
        summary = summarize([make_result(seed=0), make_result(seed=1)])
        assert "test_hypervolume" not in summary.configs[0].metrics
        assert format_summary(summary).splitlines()[2].split()[7] == "-"

    def test_format_summary_is_printable(self):
        results = [
            make_result(approach="sdo", unique=5),
            make_result(approach="canonical", unique=2),
        ]
        text = format_summary(summarize(results))
        assert "engine" in text.splitlines()[0]
        assert "sdo / canonical = 2.50" in text
        assert "nsga2" in text


class TestCli:
    def test_gen_synth(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code = main(["gen-synth", "--out", str(out), "--n", "100", "--imbalance", "9"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        ds = load_csv(out)
        assert int(ds.labels.sum()) == 10 and ds.n_cases == 100

    def test_run_and_summarize(self, blob_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": str(blob_csv),
                    "pop_size": 10,
                    "generations": 3,
                    "init_min_depth": 1,
                    "init_max_depth": 3,
                    "seeds": [0],
                    "output_dir": str(out_dir),
                }
            )
        )
        code = main(["run", "--config", str(cfg_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "nsga2 canonical" in stdout
        assert "seed=0" in stdout

        code = main(["summarize", "--in", str(out_dir)])
        assert code == 0
        assert "nsga2" in capsys.readouterr().out

    def test_run_overrides_and_grid(self, blob_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": str(blob_csv),
                    "pop_size": 10,
                    "generations": 2,
                    "init_min_depth": 1,
                    "init_max_depth": 3,
                    "seeds": [0],
                    "output_dir": str(out_dir),
                }
            )
        )
        code = main(
            [
                "run",
                "--config",
                str(cfg_path),
                "--engine",
                "spea2",
                "--approach",
                "ssc",
                "--lbss",
                "0.01,0.1",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        names = [p.name for p in sorted(out_dir.iterdir()) if p.suffix == ".json"]
        assert names == [
            "spea2_ssc_lb0.01_ub0.5_band_seed5.json",
            "spea2_ssc_lb0.1_ub0.5_band_seed5.json",
        ]

    def test_bad_grid_point_fails_before_any_run(self, blob_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        cfg = {"dataset": str(blob_csv), "pop_size": 10, "generations": 2, "output_dir": str(out_dir)}
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path), "--lbss", "0.1,0.6", "--ubss", "0.5"])
        assert code == 1
        assert "need lbss <= ubss" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_bad_grid_entry_fails_naming_its_key(self, blob_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        cfg = {"dataset": str(blob_csv), "lbss": [0.01, "abc"], "output_dir": str(out_dir)}
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path)])
        assert code == 1
        assert "lbss must be a number" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []
        cfg_path.write_text(json.dumps({"dataset": str(blob_csv), "output_dir": str(out_dir)}))
        for name in ("lbss", "ubss"):
            code = main(["run", "--config", str(cfg_path), f"--{name}", ","])
            assert code == 1
            assert capsys.readouterr().err == f"error: {name} must be a non-empty list\n"
            assert list(out_dir.iterdir()) == []

    def test_repeated_grid_value_fails_naming_its_key(self, blob_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(blob_csv), "output_dir": str(tmp_path / "out")}))
        for name, flags in (
            ("lbss", ["--lbss", "0.1,0.1"]),
            ("lbss", ["--lbss", "0.1,1e-1", "--ubss", "0.5,inf"]),
            ("ubss", ["--ubss", "0.5,inf,inf"]),
        ):
            code = main(["run", "--config", str(cfg_path), *flags])
            assert code == 1
            assert capsys.readouterr().err.startswith(f"error: {name} must not repeat a value")
        assert not (tmp_path / "out").exists()

    def test_unparsable_bound_override_names_its_key(self, blob_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(blob_csv), "output_dir": str(tmp_path / "out")}))
        code = main(["run", "--config", str(cfg_path), "--lbss", "abc"])
        assert code == 1
        assert "lbss must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_scd_on_moead_fails_before_any_run(self, blob_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(blob_csv), "output_dir": str(tmp_path / "out")}))
        code = main(["run", "--config", str(cfg_path), "--engine", "moead", "--approach", "scd"])
        assert code == 1
        assert "scd replaces a crowding mechanism moead does not have" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_override_fails(self, blob_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(blob_csv)}))
        code = main(["run", "--config", str(cfg_path), "--engine", "annealing"])
        assert code == 1
        assert "unknown engine" in capsys.readouterr().err

    def test_summarize_empty_dir_fails(self, tmp_path, capsys):
        code = main(["summarize", "--in", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_summarize_names_a_stray_json_and_its_keys(self, tmp_path, capsys):
        save_run(make_result(), tmp_path)
        stray = tmp_path / "config.json"
        stray.write_text(json.dumps({"dataset": "d.csv", "engine": "nsga2", "seeds": [0]}))
        code = main(["summarize", "--in", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {stray} is not a run result: missing keys ['approach', 'config', 'front', 'seed'],"
            " unknown keys ['dataset', 'seeds']\n"
        )

    def test_summarize_names_a_malformed_front_entry_and_its_keys(self, tmp_path, capsys):
        json_path, _ = save_run(make_result(), tmp_path)
        payload = json.loads(json_path.read_text())
        payload["front"][0]["extra"] = 1
        json_path.write_text(json.dumps(payload))
        code = main(["summarize", "--in", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {json_path} is not a run result: front entry 0 is not a front member:"
            " missing keys [], unknown keys ['extra']\n"
        )

    def test_summarize_names_a_wrongly_typed_front_value(self, tmp_path, capsys):
        json_path, _ = save_run(make_result(), tmp_path)
        payload = json.loads(json_path.read_text())
        payload["front"][0]["test_objectives"] = "ab"
        json_path.write_text(json.dumps(payload))
        code = main(["summarize", "--in", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {json_path} is not a run result: front entry 0 is not a front member:"
            " key test_objectives must be of type tuple[float, float] | None, got 'ab'\n"
        )

    def test_summarize_names_a_malformed_csv_and_its_columns(self, tmp_path, capsys):
        _, csv_path = save_run(make_result(), tmp_path)
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(line + (",foo" if i == 0 else ",1") for i, line in enumerate(lines)) + "\n")
        code = main(["summarize", "--in", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path} is not a generations file: missing columns [],"
            " unknown or repeated columns ['foo']\n"
        )
