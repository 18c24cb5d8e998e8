"""Configuration, experiment driver, persistence, summaries, and the CLI."""

import json
import math

import numpy as np
import pytest

from semogp.cli import main
from semogp.dataset import load_csv
from semogp.emo import EngineParams
from semogp.gp_core import GPParams
from semogp.harness import (
    ExperimentConfig,
    expand_grid,
    format_summary,
    load_results,
    run_experiment,
    summarize,
)
from semogp.metrics import GenerationStats
from semogp.objectives import CLASSIFICATION_THRESHOLD
from semogp.results import FrontMember, RunResult, load_run, run_file_stem, save_run
from semogp.semantic_emo import SemanticConfig


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
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d.csv", "population": 10}))
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json(path)

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
            ({"engine": "moead", "moead_delta": 2.0}, "moead_delta"),
            ({"approach": "ssc", "ssc_max_trials": 0}, "ssc_max_trials"),
            ({"lbss": 0.6, "ubss": 0.5}, "lbss <= ubss"),
            ({"engine": "moead", "approach": "scd"}, "allow_scd_moead"),
            ({"train_fraction": 1.5}, "train_fraction must lie strictly between 0 and 1"),
            ({"pop_size": "10"}, "pop_size must be of type int"),
            ({"seeds": 3}, "seeds must be of type list"),
            ({"moead_delta": None}, "moead_delta must be of type float"),
            ({"ubss": "abc"}, "ubss must be a number"),
            ({"lbss": "abc"}, "lbss must be a number"),
        ):
            with pytest.raises(ValueError, match=message):
                run_experiment(ExperimentConfig(dataset="missing.csv", **settings))

    def test_grid_expansion(self):
        cfg = ExperimentConfig(
            dataset="d.csv",
            lbss=[0.001, 0.01, 0.1, 0.2],
            ubss=[0.25, 0.5, 0.75, 1.0],
        )
        assert cfg.is_grid()
        singles = expand_grid(cfg)
        assert len(singles) == 16
        pairs = {(s.lbss, s.ubss) for s in singles}
        assert len(pairs) == 16
        assert all(not s.is_grid() for s in singles)
        assert (0.001, 0.25) in pairs and (0.2, 1.0) in pairs

    def test_single_values_are_not_a_grid(self):
        cfg = ExperimentConfig(dataset="d.csv")
        assert not cfg.is_grid()
        assert expand_grid(cfg) == [cfg]

    def test_string_bounds_parse(self):
        cfg = ExperimentConfig(dataset="d.csv", lbss=0.0, ubss="inf")
        assert math.isinf(cfg.bounds().ubss)

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
        assert defaults.engine_params() == EngineParams()
        assert defaults.semantic_config() == SemanticConfig()
        assert defaults.threshold == CLASSIFICATION_THRESHOLD
        cfg = ExperimentConfig(
            dataset="d.csv",
            approach="ssc",
            pop_size=30,
            generations=5,
            archive_size=9,
            moead_neighbors=7,
        )
        assert cfg.gp_params().pop_size == 30
        assert cfg.gp_params().generations == 5
        assert cfg.semantic_config().approach == "ssc"
        assert cfg.engine_params().archive_size == 9
        assert cfg.engine_params().moead_neighbors == 7


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
        from dataclasses import replace

        run_experiment(tiny_config)
        out = list(sorted((p.name, p.read_bytes()) for p in _result_files(tiny_config)))
        rerun_cfg = replace(tiny_config, n_workers=4)
        run_experiment(rerun_cfg)
        again = list(sorted((p.name, p.read_bytes()) for p in _result_files(tiny_config)))
        assert out == again

    def test_grid_config_rejected(self, tiny_config):
        from dataclasses import replace

        grid = replace(tiny_config, lbss=[0.01, 0.1])
        with pytest.raises(ValueError, match="expanded"):
            run_experiment(grid)

    def test_results_loadable_and_equal(self, tiny_config):
        results = run_experiment(tiny_config)
        loaded = load_results(tiny_config.output_dir)
        by_seed = {r.seed: r for r in loaded}
        for result in results:
            assert by_seed[result.seed] == result


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

    def test_groups_split_by_bounds(self):
        results = [make_result(seed=0, ubss=0.5), make_result(seed=0, ubss=0.75)]
        summary = summarize(results)
        assert len(summary.configs) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no results"):
            summarize([])

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
        assert ds.class_counts == {"positive": 10, "negative": 90}

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

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
