import copy
import json

import pytest

from cbbre.cli import _MINIMAL_VERIFY, main
from cbbre.config import load_config, mechanism_from_dict
from cbbre.errors import ConfigError
from cbbre.mechanisms import Feller, Neveu, Stable


BASE = {
    "mechanism": {"kind": "feller", "alpha": -1.5, "gamma2": 1.0},
    "environment": {"sigma": 1.0},
    "experiment": {"kind": "asymptotics", "z": 1.0},
    "seed": 7,
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestConfig:
    def test_mechanism_round_trip(self):
        for mech in (Neveu(), Feller(0.2, 1.0), Stable(0.1, -0.5, -2.0)):
            assert mechanism_from_dict(mech.to_dict()) == mech

    def test_missing_block(self):
        doc = dict(BASE)
        doc.pop("environment")
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_missing_seed(self):
        doc = dict(BASE)
        doc.pop("seed")
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_bad_kind(self):
        doc = dict(BASE) | {"experiment": {"kind": "nope"}}
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_negative_tolerance(self):
        doc = dict(BASE) | {"numerics": {"dt": -1.0}}
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_field_in_message(self):
        doc = dict(BASE) | {"mechanism": {"kind": "feller", "alpha": 0.1}}
        with pytest.raises(ConfigError, match="mechanism"):
            load_config(doc)

    def test_unknown_numerics_key(self, tmp_path):
        # a misspelt key would otherwise leave its default in force unseen
        doc = dict(BASE) | {"numerics": {"dT": 0.01}, "out": str(tmp_path / "out")}
        with pytest.raises(ConfigError, match=r"numerics\.dT"):
            load_config(doc)
        assert main(["asymptotics", "--config", str(write_cfg(tmp_path, doc))]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, key", [
        ({"kind": "simulate", "T": 0.1, "n_path": 50}, "n_path"),  # ran 1,000 paths
        ({"kind": "survival", "z": 1.0, "t": 2.0}, "t"),  # conditioned's key
    ])
    def test_unknown_experiment_key(self, tmp_path, experiment, key):
        doc = dict(BASE) | {"experiment": experiment, "out": str(tmp_path / "out")}
        with pytest.raises(ConfigError, match=rf"^experiment\.{key}:"):
            load_config(doc)
        assert main([experiment["kind"], "--config", str(write_cfg(tmp_path, doc))]) == 2
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_asymptotics_constant(self, tmp_path):
        # m = -2, sigma = 1, gamma = 1, z = 1: exact constant 1.0
        cfg = write_cfg(tmp_path, dict(BASE) | {"out": str(tmp_path / "out")})
        assert main(["asymptotics", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["summary"]["constant"] == pytest.approx(1.0)
        assert doc["summary"]["regime"] == "strongly_subcritical"

    def test_asymptotics_shape_below_one(self, tmp_path):
        # m = 0.0025, eta = -0.05: 1 - E[exp(-G^10)], G ~ Gamma(0.05), whose
        # mass lies far below 1e-12 (mpmath 1 - 0.9872114603383149)
        doc = dict(BASE) | {
            "mechanism": {"kind": "stable", "alpha": 0.5025, "beta": 0.1, "c": 0.05},
            "out": str(tmp_path / "out")}
        assert main(["asymptotics", "--config", str(write_cfg(tmp_path, doc))]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())["summary"]
        assert summary["regime"] == "supercritical"
        assert abs(summary["constant"] - 0.01278853966168517) < 1e-12

    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["survival", "--config", str(bad)]) == 2
        assert not (tmp_path / "results").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["survival", "--config", str(tmp_path / "nope.json")]) == 2

    def test_verify_suite_passes(self, tmp_path):
        assert main(["verify", "--suite", "branching", "--out", str(tmp_path / "v")]) == 0
        doc = json.loads((tmp_path / "v" / "summary.json").read_text())
        assert all(c["pass"] for c in doc["summary"]["checks"])

    def test_verify_leaves_default_config_alone(self, tmp_path):
        before = copy.deepcopy(_MINIMAL_VERIFY)
        assert main(["verify", "--suite", "branching", "--out", str(tmp_path / "v")]) == 0
        assert _MINIMAL_VERIFY == before

    def test_verify_identities(self, tmp_path):
        assert main(["verify", "--suite", "identities", "--out", str(tmp_path / "v")]) == 0

    def test_verify_closed_forms(self, tmp_path):
        assert main(["verify", "--suite", "closed-forms",
                     "--out", str(tmp_path / "v")]) == 0

    def test_survival_dual_csv_schema(self, tmp_path):
        doc = dict(BASE) | {
            "experiment": {"kind": "survival", "z": 1.0, "t_grid": [1.5],
                           "method": "both", "n_paths": 4000},
            "mechanism": {"kind": "feller", "alpha": 0.0, "gamma2": 1.0},
            "out": str(tmp_path / "o"),
        }
        cfg = write_cfg(tmp_path, doc)
        assert main(["survival", "--config", str(cfg)]) == 0
        header = (tmp_path / "o" / "survival.csv").read_text().splitlines()[0]
        assert header == "t,quantity,estimate,stderr,method"

    def test_survival_below_eta_boundary_uses_hw_route(self, tmp_path):
        doc = dict(BASE) | {
            "experiment": {"kind": "survival", "z": 1.0, "t_grid": [2.0],
                           "method": "both", "n_paths": 4000},
            "mechanism": {"kind": "feller", "alpha": 1.5, "gamma2": 1.0},  # eta = -2
            "out": str(tmp_path / "o"),
        }
        assert main(["survival", "--config", str(write_cfg(tmp_path, doc))]) == 0
        methods = [line.split(",")[-1] for line in
                   (tmp_path / "o" / "survival.csv").read_text().splitlines()[1:]]
        assert methods == ["mc", "quadrature-hw"]

    def test_byte_identical_reruns(self, tmp_path):
        doc = dict(BASE) | {
            "experiment": {"kind": "simulate", "z0": 1.0, "T": 0.5,
                           "n_paths": 500},
        }
        cfg = write_cfg(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name / "summary.json").read_bytes())
        assert outs[0] == outs[1]
        csvs = [(tmp_path / n / "path0.csv").read_bytes() for n in ("a", "b")]
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("mechanism, scheme", [
        ({"kind": "neveu"}, "exact"),
        ({"kind": "stable", "alpha": 0.5, "beta": 0.5, "c": 1.0}, "euler-full-truncation"),
    ])
    def test_summary_records_the_scheme(self, tmp_path, mechanism, scheme):
        doc = dict(BASE) | {
            "mechanism": mechanism,
            "experiment": {"kind": "simulate", "z0": 1.0, "T": 1.0, "n_paths": 1000},
            "seed": 1,
        }
        cfg = write_cfg(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())["summary"]
        assert summary["scheme"] == scheme
        assert summary["explosion_freq"] == 0.0

    def test_default_record_times_on_uneven_grid(self, tmp_path):
        # T/dt = 16.7: the default record times are put on the 17-step grid
        doc = dict(BASE) | {
            "experiment": {"kind": "simulate", "z0": 1.0, "T": 0.5, "n_paths": 50},
            "numerics": {"dt": 0.03},
        }
        cfg = write_cfg(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        rows = (tmp_path / "a" / "path0.csv").read_text().splitlines()[1:]
        times = [float(r.split(",")[0]) for r in rows]
        assert len(times) == 18 and times[-1] == 0.5

    def test_seed_override_changes_results(self, tmp_path):
        doc = dict(BASE) | {
            "experiment": {"kind": "simulate", "z0": 1.0, "T": 0.5, "n_paths": 500},
        }
        cfg = write_cfg(tmp_path, doc)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--seed", "99",
              "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "summary.json").read_text())
        b = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert a["summary"]["mean_zT"] != b["summary"]["mean_zT"]

    def test_workers_do_not_change_summary(self, tmp_path):
        doc = dict(BASE) | {
            "experiment": {"kind": "simulate", "z0": 1.0, "T": 0.5,
                           "n_paths": 4000},
        }
        cfg = write_cfg(tmp_path, doc)
        main(["simulate", "--config", str(cfg), "--workers", "1",
              "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--workers", "3",
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b

    def test_qprocess_summary(self, tmp_path):
        doc = dict(BASE) | {
            "mechanism": {"kind": "feller", "alpha": -0.5, "gamma2": 1.0},
            "experiment": {"kind": "qprocess", "z0": 1.0, "t_grid": [0.5],
                           "n_paths": 8000},
            "out": str(tmp_path / "o"),
        }
        cfg = write_cfg(tmp_path, doc)
        assert main(["qprocess", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert doc["summary"]["theta"] == pytest.approx(0.5)
        assert doc["summary"]["martingale_check"][0]["pass"]
        assert doc["summary"]["scheme"] == "exact"

    def test_qprocess_default_times_on_uneven_grid(self, tmp_path):
        # dt = 0.03 gives 67 steps to T = 2: the default times 0.5, 1, 2
        # are put on that grid
        doc = dict(BASE) | {
            "mechanism": {"kind": "feller", "alpha": -0.5, "gamma2": 1.0},
            "experiment": {"kind": "qprocess", "z0": 1.0, "n_paths": 200},
            "numerics": {"dt": 0.03},
            "out": str(tmp_path / "o"),
        }
        cfg = write_cfg(tmp_path, doc)
        assert main(["qprocess", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "o" / "summary.json").read_text())
        ts = [c["t"] for c in doc["summary"]["martingale_check"]]
        assert len(ts) == 3 and ts[-1] == 2.0

    def test_qprocess_off_grid_times_rejected(self, tmp_path, capsys):
        doc = dict(BASE) | {
            "mechanism": {"kind": "feller", "alpha": -0.5, "gamma2": 1.0},
            "experiment": {"kind": "qprocess", "z0": 1.0, "t_grid": [0.5, 2.0],
                           "n_paths": 200},
            "numerics": {"dt": 0.03},
            "out": str(tmp_path / "o"),
        }
        cfg = write_cfg(tmp_path, doc)
        assert main(["qprocess", "--config", str(cfg)]) == 1
        assert "multiples of the step" in capsys.readouterr().err

    def test_env_var_config_dir(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, dict(BASE) | {"out": str(tmp_path / "o")})
        monkeypatch.setenv("CBBRE_CONFIG_DIR", str(tmp_path))
        assert main(["asymptotics", "--config", "cfg.json"]) == 0

    def test_config_error_in_run_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--suite", "nope", "--out", str(tmp_path / "v")]) == 2
        doc = dict(BASE) | {"mechanism": {"kind": "neveu"},
                            "experiment": {"kind": "immigration"},
                            "out": str(tmp_path / "o")}
        assert main(["immigration", "--config", str(write_cfg(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" not in err and "mechanism" in err


class TestImmigrationCli:
    def _doc(self, tmp_path, mechanism, **experiment):
        return dict(BASE) | {
            "mechanism": mechanism,
            "experiment": {"kind": "immigration", "z": 1.0, "lam": 1.0, "t": 1.0,
                           "kappa": 0.5, "n_steps": 200} | experiment,
            "out": str(tmp_path / "o"),
        }

    def test_stable_mechanism_parameters(self, tmp_path):
        from cbbre.environment import sample_env_path
        from cbbre.immigration import stable_cbibre_laplace

        mech = {"kind": "stable", "alpha": 0.8, "beta": 0.3, "c": 2.0}
        cfg = write_cfg(tmp_path, self._doc(tmp_path, mech))
        assert main(["immigration", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())["summary"]
        # K0 drift m = alpha - sigma^2/2
        path = sample_env_path(1.0, 0.3, 1.0, 200, BASE["seed"], flavor="K0")
        assert summary["closed_form"] == stable_cbibre_laplace(1.0, 1.0, 1.0, path,
                                                               0.3, 2.0, 0.5)
        assert summary["ode_gap"] <= 1e-6

    @pytest.mark.parametrize("mech, experiment", [
        ({"kind": "feller", "alpha": 0.5, "gamma2": 3.0}, {}),
        ({"kind": "stable", "alpha": 0.5, "beta": -0.5, "c": -1.0}, {}),
        ({"kind": "stable", "alpha": 0.5, "beta": 0.5, "c": 1.0}, {"beta": 0.5}),
        ({"kind": "stable", "alpha": 0.5, "beta": 0.5, "c": 1.0}, {"c": 1.0}),
    ], ids=["feller", "negative-beta", "experiment-beta", "experiment-c"])
    def test_rejected_configs_exit_2(self, tmp_path, mech, experiment):
        cfg = write_cfg(tmp_path, self._doc(tmp_path, mech, **experiment))
        assert main(["immigration", "--config", str(cfg)]) == 2
        assert not (tmp_path / "o" / "summary.json").exists()
