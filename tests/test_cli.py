"""Config handling, runner artifacts, and CLI subcommands."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from debiasim.cli import main
from debiasim.config import config_from_dict, load_config, parse_config
from debiasim.errors import ConfigError
from debiasim.runner import run_many

PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "debiasim" / "presets"


def base_dict(**over):
    d = {
        "engine": "active_debiasing",
        "source": {"kind": "synthetic"},
        "fractions": {"a": {"0": 0.5, "1": 0.5}},
        "population": {"a": {"0": {"family": "gaussian", "params": [7, 1], "ref_level": 60},
                             "1": {"family": "gaussian", "params": [10, 1], "ref_level": 50}}},
        "initial_estimates": {"a": {"0": {"family": "gaussian", "params": [6, 1], "ref_level": 60},
                                    "1": {"family": "gaussian", "params": [9, 1], "ref_level": 50}}},
        "epsilon": {"mode": "fixed_step", "step": 0.1, "window": 3000, "eps_min": 0.05},
        "batch_gate": 50,
        "horizon": 2000,
        "seeds": [0],
    }
    d.update(over)
    return d


def _estimates_with(**leaf0):
    """``base_dict``'s initial estimates with group a's label-0 leaf changed."""
    estimates = base_dict()["initial_estimates"]
    estimates["a"]["0"] = {**estimates["a"]["0"], **leaf0}
    return estimates


class TestConfig:
    def test_round_trip(self):
        cfg = config_from_dict(base_dict())
        again = parse_config(cfg.serialize())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_hash_ignores_seeds_and_outdir(self):
        c1 = config_from_dict(base_dict(seeds=[0, 1], out_dir="x"))
        c2 = config_from_dict(base_dict(seeds=[7], out_dir="y"))
        assert c1.config_hash() == c2.config_hash()

    def test_hash_sensitive_to_params(self):
        c1 = config_from_dict(base_dict())
        d = base_dict()
        d["initial_estimates"]["a"]["0"]["params"] = [5.5, 1]
        assert config_from_dict(d).config_hash() != c1.config_hash()

    def test_invalid_fractions_named(self):
        d = base_dict(fractions={"a": {"0": 0.5, "1": 0.6}})
        with pytest.raises(ConfigError, match="fractions"):
            config_from_dict(d)

    def test_missing_estimate_named(self):
        d = base_dict()
        del d["initial_estimates"]["a"]["1"]
        with pytest.raises(ConfigError, match="initial_estimates"):
            config_from_dict(d)

    def test_zero_fraction_label_rejected(self):
        # Accepted before: label 0 never arrives, so no round ever closes.
        d = base_dict(fractions={"a": {"0": 1.0, "1": 0.0}})
        with pytest.raises(ConfigError, match=r"fractions.*\('a', 1\)"):
            config_from_dict(d)

    def test_group_with_one_label_rejected(self):
        # Crashed before with a bare KeyError(('b', 0)) when the engine was built.
        d = base_dict(fractions={"a": {"0": 0.4, "1": 0.4}, "b": {"1": 0.2}})
        d["initial_estimates"]["b"] = {"1": {"family": "gaussian", "params": [9, 1]}}
        d["population"]["b"] = {"1": {"family": "gaussian", "params": [10, 1]}}
        with pytest.raises(ConfigError, match=r"fractions.*\('b', 0\)"):
            config_from_dict(d)

    def test_horizon_gate_coupling(self):
        with pytest.raises(ConfigError, match="horizon"):
            config_from_dict(base_dict(horizon=100))

    def test_bad_engine(self):
        with pytest.raises(ConfigError, match="engine"):
            config_from_dict(base_dict(engine="bandit"))

    def test_bad_label_key(self):
        d = base_dict()
        d["fractions"] = {"a": {"0": 0.5, "2": 0.5}}
        with pytest.raises(ConfigError, match="label key"):
            config_from_dict(d)

    def test_replay_needs_path(self):
        with pytest.raises(ConfigError, match="path"):
            config_from_dict(base_dict(source={"kind": "csv_replay"}))

    def test_synthetic_needs_population(self):
        d = base_dict()
        del d["population"]
        with pytest.raises(ConfigError, match="population"):
            config_from_dict(d)

    @pytest.mark.parametrize("over, field", [
        ({"horizon": "lots"}, "config.horizon"),
        ({"horizon": None}, "config.horizon"),
        ({"horizon": 30000.7}, "config.horizon"),
        ({"horizon": True}, "config.horizon"),
        ({"batch_gate": "x"}, "config.batch_gate"),
        ({"batch_gate": 50.9}, "config.batch_gate"),
        ({"seeds": [True]}, "config.seeds"),
        ({"seeds": [1.5]}, "config.seeds"),
        ({"seeds": [-1]}, "config.seeds"),
        ({"out_dir": 7}, "config.out_dir"),
        ({"source": {"kind": "csv_replay", "path": 7}}, "config.source.path"),
        ({"source": {"kind": "csv_replay", "path": "x.csv", "columns": {"x": 7}}},
         "config.source.columns"),
        ({"source": {"kind": "csv_replay", "path": "x.csv", "columns": {"z": "q"}}},
         "config.source.columns"),
        ({"fractions": [0.5, 0.5]}, "config.fractions"),
        ({"initial_estimates": [1]}, "config.initial_estimates"),
        ({"population": [1]}, "config.population"),
        ({"fairness": [1]}, "config.fairness"),
        ({"source": ["synthetic"]}, "config.source"),
        ({"source": {"kind": "csv_replay", "path": "x.csv", "columns": [1, 2]}},
         "config.source.columns"),
        ({"source": {"kind": "synthetic", "shuffle": "no"}}, "config.source.shuffle"),
        ({"epsilon": {"window": 2.5}}, "config.epsilon.window"),
        ({"epsilon": {"window": True}}, "config.epsilon.window"),
        ({"epsilon": {"window": "7"}}, "config.epsilon.window"),
        ({"initial_estimates": _estimates_with(unknown_index=0.9)},
         "config.initial_estimates.a.0.unknown_index"),
        ({"initial_estimates": _estimates_with(unknown_index=True)},
         "config.initial_estimates.a.0.unknown_index"),
        ({"initial_estimates": _estimates_with(ref_level="abc")},
         "config.initial_estimates.a.0.ref_level"),
        ({"initial_estimates": _estimates_with(family="beta", params=[2, 3],
                                               support=["a", "b"])},
         "config.initial_estimates.a.0.support"),
        ({"initial_estimates": {"a": {"0": 5, "1": base_dict()["initial_estimates"]["a"]["1"]}}},
         "config.initial_estimates.a.0"),
        ({"initial_estimates": _estimates_with(params=[float("nan"), 1])},
         "config.initial_estimates.a.0.params"),
        ({"initial_estimates": _estimates_with(params=[True, 1])},
         "config.initial_estimates.a.0.params"),
        ({"initial_estimates": _estimates_with(params=["5", 1])},
         "config.initial_estimates.a.0.params"),
        ({"epsilon": {"step": float("nan")}}, "config.epsilon.step"),
        ({"epsilon": {"step": float("inf")}}, "config.epsilon.step"),
        ({"fairness": {"tolerance": float("nan")}}, "config.fairness.tolerance"),
    ], ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_malformed_field_named(self, over, field):
        # Each raised a bare ValueError/TypeError/AttributeError, or (the
        # floats, the bools, the strings and the non-finite numbers) was
        # accepted, before.
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}:"):
            config_from_dict(base_dict(**over))

    def test_replaced_config_negative_seed_refused(self):
        # Was accepted before.
        cfg = config_from_dict(base_dict())
        with pytest.raises(ConfigError, match="^seeds: expected a list of non-negative"):
            dataclasses.replace(cfg, seeds=(-1,))

    def test_epsilon_must_be_a_mapping(self):
        # Reported "'list' object has no attribute 'get'" before.
        with pytest.raises(ConfigError, match=r"^config\.epsilon: expected a mapping"):
            config_from_dict(base_dict(epsilon=[1]))

    @pytest.mark.parametrize("preset", sorted(PRESET_DIR.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_presets_parse(self, preset):
        cfg = load_config(preset)
        assert cfg.horizon >= 4 * cfg.batch_gate


class TestRunner:
    def test_artifacts_written(self, tmp_path):
        cfg = config_from_dict(base_dict(seeds=[0, 1]))
        traces = run_many(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "trace_0.csv").exists()
        assert (tmp_path / "trace_1.csv").exists()
        assert (tmp_path / "config.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seeds"] == [0, 1]
        assert summary["config_hash"] == cfg.config_hash()
        assert "final_bias" in summary["aggregate"]
        assert len(traces) == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg = config_from_dict(base_dict())
        run_many(cfg, out_dir=str(tmp_path / "r1"))
        run_many(cfg, out_dir=str(tmp_path / "r2"))
        a = (tmp_path / "r1" / "trace_0.csv").read_bytes()
        b = (tmp_path / "r2" / "trace_0.csv").read_bytes()
        assert a == b

    def test_artifact_embeds_hash_and_seed(self, tmp_path):
        cfg = config_from_dict(base_dict())
        run_many(cfg, out_dir=str(tmp_path))
        first = (tmp_path / "trace_0.csv").read_text().splitlines()[0]
        assert f"config_hash={cfg.config_hash()}" in first
        assert "seed=0" in first

    def test_two_param_artifacts(self, tmp_path):
        cfg = config_from_dict(base_dict(
            engine="active_two_param",
            population={"a": {"0": {"family": "gaussian", "params": [7, 1]},
                              "1": {"family": "gaussian", "params": [10, 1]}}},
            initial_estimates={"a": {"0": {"family": "gaussian", "params": [5, 1.3]},
                                     "1": {"family": "gaussian", "params": [13, 1.3]}}},
            horizon=4000,
        ))
        run_many(cfg, out_dir=str(tmp_path))
        header = (tmp_path / "trace_0.csv").read_text().splitlines()[1]
        assert "ub_a" in header and "sigma_hat_a0" in header

    def test_replay_parsed_once_per_run_many(self, tmp_path, monkeypatch):
        import debiasim.stream as stream_mod
        rng = np.random.default_rng(0)
        rows = ["x,y,g"]
        for _ in range(3000):
            y = int(rng.random() < 0.5)
            rows.append(f"{(10.0 if y else 7.0) + rng.standard_normal()!r},{y},a")
        data = tmp_path / "scored.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = config_from_dict(base_dict(
            source={"kind": "csv_replay", "path": str(data), "shuffle": True}))
        for seed in (0, 1, 2):
            run_many(cfg, out_dir=str(tmp_path / f"single{seed}"), seeds=[seed])

        calls = []
        original = stream_mod.read_scored_csv

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(stream_mod, "read_scored_csv", counting)
        run_many(cfg, out_dir=str(tmp_path / "many"), seeds=[0, 1, 2])
        assert len(calls) == 1
        for seed in (0, 1, 2):
            name = f"trace_{seed}.csv"
            assert (tmp_path / "many" / name).read_bytes() == \
                (tmp_path / f"single{seed}" / name).read_bytes()


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_dict()))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_run_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(base_dict(fractions={"a": {"0": 0.9, "1": 0.9}})))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "fractions" in capsys.readouterr().err

    def test_malformed_horizon_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(base_dict(horizon="lots")))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: config.horizon" in capsys.readouterr().err

    def test_replay_unknown_group_named(self, tmp_path, capsys):
        data = tmp_path / "scored.csv"
        data.write_text("x,y,g\n7.0,0,a\n10.0,1,zz\n9.5,1,a\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_dict(
            source={"kind": "csv_replay", "path": str(data)})))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "source.path" in err and "'zz'" in err

    def test_config_directory_exit_code(self, tmp_path, capsys):
        # Died with an IsADirectoryError traceback before.
        code = main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_is_a_file_exit_code(self, tmp_path, capsys):
        # Died with a FileExistsError traceback before.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_dict()))
        code = main(["run", "--config", str(cfg_path), "--out", str(cfg_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        # Died with a ValueError traceback from SeedSequence before.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_dict()))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--seeds", "-1"])
        assert code == 2
        assert "error: --seeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_seed_list_exit_code(self, tmp_path, capsys):
        # Exited 0 before, writing no trace and a summary with "seeds": [].
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_dict()))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--seeds", ","])
        assert code == 2
        assert "error: --seeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_refused(self, tmp_path, capsys):
        # Each ran the repeated seed twice before: one trace file, and
        # summary.json listed and averaged it twice. An empty override wrote
        # a summary of no runs.
        with pytest.raises(ConfigError,
                           match=r"^config\.seeds: each seed may appear once; repeated \[0\]"):
            config_from_dict(base_dict(seeds=[0, 1, 0]))
        cfg = config_from_dict(base_dict())
        with pytest.raises(ConfigError, match=r"^seeds: .*repeated \[2\]"):
            run_many(cfg, out_dir=str(tmp_path / "api"), seeds=[2, 2])
        with pytest.raises(ConfigError, match="^seeds: at least one seed required"):
            run_many(cfg, out_dir=str(tmp_path / "api"), seeds=[])
        assert not (tmp_path / "api").exists()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_dict()))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli"),
                     "--seeds", "0,0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --seeds: ")
        assert not (tmp_path / "cli").exists()

    def test_run_many_negative_seed_refused(self, tmp_path):
        # Created the directory, then died in SeedSequence with a bare
        # ValueError before.
        cfg = config_from_dict(base_dict())
        with pytest.raises(ConfigError, match="^seeds: expected a list of non-negative"):
            run_many(cfg, out_dir=str(tmp_path / "api"), seeds=[-1])
        assert not (tmp_path / "api").exists()

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_dict()))
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
              "--seeds", "5,6"])
        assert (tmp_path / "out" / "trace_5.csv").exists()
        assert (tmp_path / "out" / "trace_6.csv").exists()

    def test_score_pipeline(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = tmp_path / "raw.csv"
        with open(raw, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["age", "grade", "y", "g"])
            for _ in range(400):
                y = int(rng.random() < 0.5)
                age = rng.normal(40 + 5 * y, 8)
                grade = rng.choice(["lo", "hi"], p=[0.6 - 0.2 * y, 0.4 + 0.2 * y])
                writer.writerow([f"{age:.3f}", grade, y, rng.choice(["a", "b"])])
        out = tmp_path / "scored.csv"
        code = main(["score", "--data", str(raw), "--features", "age,grade",
                     "--fit-frac", "0.5", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        assert all(0.0 < float(r["x"]) < 1.0 for r in rows)
        assert (tmp_path / "scored.model.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_score_categorical_level_with_equals(self, tmp_path):
        # Died with KeyError: 'cat=k' before: the level was re-parsed from "cat=k=2".
        raw = tmp_path / "raw.csv"
        raw.write_text("cat,y,g\n" + "".join(f"k={i % 2 + 1},{i % 2},a\n" for i in range(40)))
        out = tmp_path / "scored.csv"
        code = main(["score", "--data", str(raw), "--features", "cat", "--fit-frac", "1.0",
                     "--iters", "50", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["x"] for r in rows if r["y"] == "1"} != {r["x"] for r in rows if r["y"] == "0"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("last, column", [
        ("20,2,a", "'y'"),
        ("20", "'y'"),
        ("abc,1,a", "'f'"),
        ("nan,1,a", "'f'"),
    ], ids=["label 2", "short row", "bad number past the fit", "nan past the fit"])
    def test_score_bad_row_named(self, last, column, tmp_path, capsys):
        # The label 2 and the nan score were written out with exit 0; the
        # others died with a TypeError / ValueError traceback.
        raw = tmp_path / "raw.csv"
        raw.write_text("f,y,g\n" + "".join(f"{i},{i % 2},a\n" for i in range(20))
                       + last + "\n")
        out = tmp_path / "s.csv"
        code = main(["score", "--data", str(raw), "--features", "f", "--fit-frac", "0.5",
                     "--iters", "50", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw}: row 21: column {column}")
        assert not out.exists()

    def test_score_single_class_fails(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("f,y,g\n" + "\n".join(f"{i},1,a" for i in range(30)) + "\n")
        code = main(["score", "--data", str(raw), "--features", "f",
                     "--fit-frac", "1.0", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "classes" in capsys.readouterr().err

    def test_fitdist(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        scores = tmp_path / "scores.csv"
        with open(scores, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for v in rng.beta(1.94, 3.32, size=10**4):
                writer.writerow([f"{v:.6f}", 1])
        code = main(["fitdist", "--scores", str(scores), "--family", "beta",
                     "--known", "3.32", "--unknown-index", "0",
                     "--ref-level", "50"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["estimate"]["params"][0] - 1.94) < 0.1

    def test_fitdist_known_mean_unknown_sigma(self, tmp_path, capsys):
        # The known mean -3 must not fill the sigma slot the solve overwrites.
        scores = tmp_path / "scores.csv"
        scores.write_text("x\n" + "".join(f"{(k - 45) / 10!r}\n" for k in range(31)))
        code = main(["fitdist", "--scores", str(scores), "--family", "gaussian",
                     "--known", "-3", "--unknown-index", "1", "--ref-level", "60"])
        assert code == 0
        estimate = json.loads(capsys.readouterr().out)["estimate"]
        assert estimate == {"family": "gaussian", "params": [-3.0, 1.1841461626628236],
                            "ref_level": 60.0, "unknown_index": 1}

    @pytest.mark.parametrize("argv", [
        ["fitdist", "--family", "beta", "--known", "3", "--column", "nope"],
        ["fitdist", "--family", "beta", "--known", "3", "--filter", "nope=1"],
        ["score", "--features", "f", "--label-col", "nope"],
        ["score", "--features", "f", "--group-col", "nope"],
        ["score", "--features", "f,nope"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_missing_column_named(self, argv, tmp_path, capsys):
        # Each died with a bare KeyError before.
        data = tmp_path / "raw.csv"
        data.write_text("x,f,y,g\n" + "".join(f"0.{i},{i},{i % 2},a\n" for i in range(1, 9)))
        io = ["--scores", str(data)] if argv[0] == "fitdist" else \
            ["--data", str(data), "--out", str(tmp_path / "s.csv")]
        code = main(argv[:1] + io + argv[1:])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(data) in err and "'nope'" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("text, row", [
        ("x,y\n0.5,1\nabc,1\n", "row 2"),
        ("y,x\n1,0.5\n1\n", "row 2"),
    ], ids=["bad cell", "short row"])
    def test_fitdist_bad_score_named(self, text, row, tmp_path, capsys):
        # Died with a bare ValueError / TypeError before.
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        code = main(["fitdist", "--scores", str(scores), "--family", "beta", "--known", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(scores) in err and row in err

    def test_fitdist_non_finite_score_named(self, tmp_path, capsys):
        # Printed "params": [NaN, 1.0] with exit 0 before.
        scores = tmp_path / "scores.csv"
        scores.write_text("x,y\n" + "0.5,1\n" * 12 + "nan,1\n")
        code = main(["fitdist", "--scores", str(scores), "--family", "gaussian",
                     "--known", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {scores}: row 13: column 'x' holds 'nan', not a finite number")

    @pytest.mark.parametrize("argv, named", [
        # The row keeps the id it had when the message named the known shape.
        pytest.param(["fitdist", "--family", "beta", "--known", "-1"],
                     "beta shapes must be positive",
                     id="fitdist --family beta --known -1-known beta shape"),
        (["fitdist", "--family", "beta", "--known", "nan"], "--known"),
        (["fitdist", "--family", "gaussian", "--known", "inf"], "--known"),
        (["fitdist", "--family", "beta", "--known", "3", "--ref-level", "nan"], "--ref-level"),
        (["fitdist", "--family", "beta", "--known", "3", "--ref-level", "150"], "--ref-level"),
        (["score", "--fit-frac", "nan"], "--fit-frac"),
        (["score", "--fit-frac", "inf"], "--fit-frac"),
        (["score", "--fit-frac", "0"], "--fit-frac"),
        (["score", "--lr", "nan"], "--lr"),
        (["score", "--iters", "0"], "--iters"),
        (["oracle", "drift", "--seed", "-1"], "--seed"),
        (["oracle", "drift", "--theta", "nan"], "--theta"),
        (["oracle", "median-density", "--grid", "-1"], "--grid"),
        (["oracle", "median-density", "--window=-inf,inf"], "--window"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_bad_number_exit_code(self, argv, named, tmp_path, capsys):
        # Before, the beta --known rows, --ref-level, --fit-frac nan or inf,
        # --seed and --grid died with a traceback; the others exited 0,
        # printing NaN or writing scores from a degenerate fit.
        data = tmp_path / "data.csv"
        data.write_text("x,f,y,g\n" + "".join(f"0.{i},{i},{i % 2},a\n" for i in range(1, 30)))
        out = tmp_path / "s.csv"
        extra = {
            "fitdist": ["--scores", str(data)],
            "score": ["--data", str(data), "--features", "f", "--out", str(out)],
            "drift": ["--true-params", "7,1", "--est-params", "6,1", "--theta", "8",
                      "--reps", "10"],
            "median-density": ["--params", "7,1", "--window", "5,8", "--m", "1"],
        }
        command = argv[:2] if argv[0] == "oracle" else argv[:1]
        try:  # argparse exits 2 itself on a refused option value
            code = main(command + extra[command[-1]] + argv[len(command):])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, spec, field", [
        (["median-density", "--params", "a,1", "--window", "5,8", "--m", "1"], None,
         "--params"),
        (["drift", "--true-params", "7,1", "--est-params", "6,1", "--theta", "8",
          "--batch", "0"], None, "batch size"),
        (["threshold"], "{not json", "invalid JSON"),
        (["threshold"], json.dumps({"fractions": {"a": {"0": 0.5, "1": 0.5}}}),
         "spec.estimates"),
        (["threshold"], json.dumps({
            "estimates": {"a": {"0": {"family": "gaussian", "params": [7, 1]},
                                "1": {"family": "gaussian", "params": [10, 1]}}},
            "fractions": {"a": {"0": 0.5, "1": 0.5}},
            "fairness": {"kind": "bogus"}}), "spec.fairness.kind"),
        (["threshold"], json.dumps({
            "estimates": {"a": {"1": {"family": "gaussian", "params": [10, 1]}}},
            "fractions": {"a": {"0": 0.5, "1": 0.5}}}), "('a', 0)"),
    ], ids=["params a,1", "drift batch 0", "spec not json", "spec no estimates",
            "spec bogus fairness", "spec group with one label"])
    def test_oracle_bad_input_exit_code(self, argv, spec, field, tmp_path, capsys):
        # Each died with a traceback before.
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(spec)
            argv = argv + ["--spec", str(path)]
        code = main(["oracle"] + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_oracle_median_density_m0(self, capsys):
        code = main(["oracle", "median-density", "--family", "gaussian",
                     "--params", "7,1", "--window", "5.5,8.5", "--m", "0",
                     "--grid", "11"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        from debiasim.dist import gaussian
        est = gaussian(7, 1)
        mass = est.cdf(8.5) - est.cdf(5.5)
        for nu, dens in zip(payload["nu"], payload["density"]):
            assert dens == pytest.approx(est.pdf(nu) / mass, rel=1e-9)

    def test_oracle_drift(self, capsys):
        code = main(["oracle", "drift", "--true-params", "7,1",
                     "--est-params", "6,1", "--ref-level", "60",
                     "--theta", "8", "--reps", "200", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_drift"] > 0

    def test_oracle_threshold(self, tmp_path, capsys):
        spec = {
            "estimates": {"a": {"0": {"family": "gaussian", "params": [7, 1]},
                                "1": {"family": "gaussian", "params": [10, 1]}}},
            "fractions": {"a": {"0": 0.5, "1": 0.5}},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["oracle", "threshold", "--spec", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"]["thresholds"]["a"] == pytest.approx(8.5, abs=1e-3)
        assert payload["brute_force"]["thresholds"]["a"] == pytest.approx(8.5, abs=0.01)
