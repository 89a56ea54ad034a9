import csv
import dataclasses
import math

import numpy as np
import pytest

from malalab import cli, finite_chain, verify
from malalab.cli import SweepConfig, load_config, main, step_size, target_for
from malalab.potentials import adversarial_cosine, gaussian


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestVerifyCommand:
    def test_default_seed_passes(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["check", "value", "bound", "slack", "passed"]
        assert all(r[4] == "true" for r in rows[1:])

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_seed_sweep_passes(self, seed, tmp_path):
        out = tmp_path / f"verify_{seed}.csv"
        assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0

    def test_corrupted_acceptance_fails_named_checks(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--seed", "0", "--corrupt-accept",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr().out
        assert "log_accept" in captured
        failing = [r[0] for r in read_rows(out)[1:] if r[4] == "false"]
        assert failing
        assert all(name.startswith("log_accept") for name in failing)

    @pytest.mark.parametrize("fault", [5e-11, 1e-9])
    def test_a_detailed_balance_fault_fails_its_rows(self, fault, tmp_path, monkeypatch,
                                                     capsys):
        # metropolize hands its chain on unchecked, so the rows report a fault
        # in it: moving mass from T[0, 0] to T[0, 1] breaks detailed balance
        # above the rows' 1e-12. Above 1e-10 projection_check also rejects the
        # faulty Qbar, which fails the projection rows instead of raising.
        chain = finite_chain.FiniteChain

        def faulty(pi, Q, T):
            T = T.copy()
            T[..., 0, 1] += fault
            T[..., 0, 0] -= fault
            return chain(pi=pi, Q=Q, T=T)

        monkeypatch.setattr(finite_chain, "FiniteChain", faulty)
        out = tmp_path / "verify.csv"
        assert main(["verify", "--seed", "0", "--out", str(out)]) == 1
        failing = {r[0] for r in read_rows(out)[1:] if r[4] == "false"}
        assert {"finite_detailed_balance", "finite_stationarity"} <= failing
        projection = {"finite_projection_global", "finite_projection_pointwise"}
        assert projection <= failing if fault > 1e-10 else not projection & failing
        assert "FAIL finite_detailed_balance" in capsys.readouterr().out


def test_check_result_fails_on_a_nan_or_a_violation():
    assert verify.CheckResult("c", 1.0, 1.0, 0.0).passed
    for slack in (math.nan, -1e-300):
        assert not verify.CheckResult("c", 1.0, 1.0, slack).passed
    assert not verify._leq("c", math.nan, 1.0).passed
    assert not verify._geq("c", 1.0, math.nan).passed


class TestSweeps:
    def test_accept_sweep_rows_and_floor(self, tmp_path):
        out = tmp_path / "accept.csv"
        code = main([
            "sweep-accept", "--seed", "3", "--out", str(out),
            "--set", "d_grid=64,128", "--set", "n_states=60", "--set", "n_mc=40",
        ])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["experiment", "d", "h", "eta", "estimator", "value",
                           "std_error", "n", "seed"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert row[0] == "accept" and row[3] == "" and row[4] == "mean_acceptance"
            d, h, value = int(row[1]), float(row[2]), float(row[5])
            assert h == pytest.approx(0.5 * d ** (-1 / 3))
            assert value >= 0.5

    def test_collapse_sweep_pairs_targets(self, tmp_path):
        out = tmp_path / "collapse.csv"
        code = main([
            "sweep-collapse", "--seed", "4", "--out", str(out),
            "--set", "d_grid=256,512", "--set", "n_states=40", "--set", "n_mc=20",
        ])
        assert code == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 4
        etas = {row[3] for row in rows}
        assert etas == {"", "0.2"}
        for row in rows:
            d, h = int(row[1]), float(row[2])
            assert h == pytest.approx(d**-0.4)

    def test_gap_sweep_ceiling(self, tmp_path):
        out = tmp_path / "gap.csv"
        code = main([
            "sweep-gap", "--seed", "5", "--out", str(out),
            "--set", "d_grid=64", "--set", "h_grid=0.01,0.1",
            "--set", "n_states=20000",
        ])
        assert code == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 2
        for row in rows:
            h, value = float(row[2]), float(row[5])
            assert row[4] == "dirichlet_gap_upper"
            assert value <= 5 * h

    def test_mix_reports_lower_bound_steps(self, tmp_path):
        out = tmp_path / "mix.csv"
        code = main([
            "mix", "--seed", "6", "--out", str(out),
            "--set", "d_grid=16", "--set", "n_replicas=2048",
            "--set", "max_steps=500", "--set", "eps=0.05",
        ])
        assert code == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 1
        assert rows[0][4] == "sliced_tv_mixing_steps_lower_bound"
        assert 0 < float(rows[0][5]) < 500

    def test_mix_defaults_measure_steps(self, tmp_path, monkeypatch):
        # At the defaults (d = 64, warm-half start) the start is not yet
        # within eps of the target, so the count is neither 0 nor censored.
        monkeypatch.delenv("SEED", raising=False)
        out = tmp_path / "mix.csv"
        assert main(["mix", "--out", str(out)]) == 0
        (row,) = read_rows(out)[1:]
        assert int(row[1]) == 64
        assert 0 < float(row[5]) < 2000  # mix's default max_steps

    def test_finite_selftest(self, tmp_path):
        out = tmp_path / "finite.csv"
        code = main(["finite-selftest", "--seed", "7", "--out", str(out),
                     "--set", "n_instances=50"])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["instance", "check", "slack"]
        assert len(rows) == 1 + 50 * 9
        assert all(float(r[2]) >= 0 for r in rows[1:])
        assert [int(r[0]) for r in rows[1::9]] == list(range(50))

    def test_finite_selftest_seeds_share_no_instance(self):
        def instances(seed):
            rows, all_ok = verify.finite_selftest_rows(5, seed)
            assert all_ok
            return {tuple(slack for _, _, slack in rows[k:k + 9])
                    for k in range(0, len(rows), 9)}

        assert len(instances(0)) == 5
        assert not instances(0) & instances(1)

    def test_finite_selftest_enumerates_each_stack_once(self, monkeypatch):
        # 30 instances fall into 8 state counts; the Cheeger rows and the warm
        # start share each stack's spectral quantities.
        calls = []
        spectral_quantities = finite_chain.spectral_quantities

        def counted(c):
            calls.append(c.n)
            return spectral_quantities(c)

        monkeypatch.setattr(finite_chain, "spectral_quantities", counted)
        verify.finite_selftest_rows(30, 7)
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 8

    def test_threads_do_not_change_bytes(self, tmp_path):
        args = ["sweep-accept", "--seed", "8",
                "--set", "d_grid=64,128,256", "--set", "n_states=30",
                "--set", "n_mc=20"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# experiment grid\nkind=adversarial\neta=0.2\nd_grid=64,128\n"
            "n_states=10\n"
        )
        cfg = load_config(SweepConfig(), str(cfg_file), ["n_states=25"])
        assert cfg.kind == "adversarial"
        assert cfg.d_grid == (64, 128)
        assert cfg.n_states == 25

    def test_every_field_parses_to_its_annotated_type(self):
        sets = {"kind": "adversarial", "eta": "0.15", "d_grid": "16, 32",
                "h_rule": "fixed", "c": "2", "p": "-0.5", "h_grid": "0.1,1",
                "n_states": "12", "n_mc": "13", "n_replicas": "14", "m0": "3",
                "eps": "0.1", "max_steps": "15", "start": "exact",
                "n_instances": "16", "seed": "17"}
        expected = SweepConfig(kind="adversarial", eta=0.15, d_grid=(16, 32),
                               h_rule="fixed", c=2.0, p=-0.5, h_grid=(0.1, 1.0),
                               n_states=12, n_mc=13, n_replicas=14, m0=3.0,
                               eps=0.1, max_steps=15, start="exact",
                               n_instances=16, seed=17)
        assert set(sets) == {f.name for f in dataclasses.fields(SweepConfig)}
        cfg = load_config(SweepConfig(), None, [f"{k}={v}" for k, v in sets.items()])
        assert cfg == expected
        for name in sets:
            got, want = getattr(cfg, name), getattr(expected, name)
            assert type(got) is type(want), name
            if isinstance(want, tuple):
                assert [type(v) for v in got] == [type(v) for v in want], name

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_config(SweepConfig(), None, ["banana=1"])

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out = tmp_path / "accept.csv"
        monkeypatch.setenv("SEED", "99")
        main(["sweep-accept", "--out", str(out), "--set", "d_grid=64",
              "--set", "n_states=10", "--set", "n_mc=10"])
        rows = read_rows(out)[1:]
        assert rows[0][8] == "99"

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        out = tmp_path / "accept.csv"
        monkeypatch.setenv("SEED", "99")
        main(["sweep-accept", "--seed", "7", "--out", str(out),
              "--set", "d_grid=64", "--set", "n_states=10", "--set", "n_mc=10"])
        rows = read_rows(out)[1:]
        assert rows[0][8] == "7"

    @pytest.mark.parametrize("config_seed, flag, env, expected", [
        ("7", None, None, "7"), ("7", None, "99", "99"), ("7", "5", "99", "5"),
        ("7", "5", None, "5"), (None, None, None, "0"),
    ])
    def test_seed_precedence(self, tmp_path, monkeypatch, config_seed, flag, env,
                             expected):
        # --seed > SEED > a seed= config line > 0.
        cfg_file = tmp_path / "sweep.cfg"
        seed_line = f"seed={config_seed}\n" if config_seed is not None else ""
        cfg_file.write_text(seed_line + "d_grid=64\nn_states=10\nn_mc=10\n")
        if env is None:
            monkeypatch.delenv("SEED", raising=False)
        else:
            monkeypatch.setenv("SEED", env)
        out = tmp_path / "accept.csv"
        argv = ["sweep-accept", "--config", str(cfg_file), "--out", str(out)]
        main(argv + (["--seed", flag] if flag is not None else []))
        rows = read_rows(out)[1:]
        assert rows[0][8] == expected

    @pytest.mark.parametrize("source, value", [
        ("--seed", "-1"), ("--seed", "abc"), ("--seed", "1.5"),
        ("SEED", "-1"), ("SEED", "abc"), ("SEED", ""),
        ("seed=", "-1"), ("seed=", "abc"),
    ])
    def test_bad_seed_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys,
                                            source, value):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli.diagnostics, "mean_acceptance", no_cell)
        monkeypatch.delenv("SEED", raising=False)
        out = tmp_path / "accept.csv"
        argv = ["sweep-accept", "--out", str(out), "--set", "d_grid=64"]
        if source == "--seed":
            argv += ["--seed", value]
        elif source == "SEED":
            monkeypatch.setenv("SEED", value)
        else:
            cfg_file = tmp_path / "sweep.cfg"
            cfg_file.write_text(f"seed={value}\n")
            argv += ["--config", str(cfg_file)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert source in line and value in line

    @pytest.mark.parametrize("command", ["verify", "finite-selftest", "mix",
                                         "sweep-collapse", "sweep-gap"])
    def test_every_command_rejects_a_negative_seed(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-5", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2 and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, value, shown", [
        ("--set", "n_states=ten", "n_states=ten"), ("--set", "banana=1", "banana"),
        ("--config", "missing.cfg", "missing.cfg"),
    ])
    def test_config_error_exits_2_with_one_line(self, tmp_path, capsys, flag,
                                                value, shown):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-accept", flag, str(tmp_path / value) if flag == "--config"
                  else value, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert shown in line

    @pytest.mark.parametrize("command, setting, shown", [
        ("sweep-accept", "kind=banana", "banana"), ("mix", "kind=banana", "banana"),
        ("sweep-accept", "h_rule=nope", "nope"), ("mix", "h_rule=nope", "nope"),
        ("mix", "start=bogus", "bogus"),
        ("sweep-accept", "n_states=0", "n_states"), ("sweep-gap", "n_states=1", "n_states"),
        ("sweep-collapse", "n_mc=0", "n_mc"),
        ("sweep-gap", "h_grid=", "h_grid"),
        ("sweep-collapse", "eta=0.3", "0.3"), ("sweep-gap", "eta=0.25", "0.25"),
        ("mix", "eps=2", "eps"), ("mix", "n_replicas=0", "n_replicas"),
        ("mix", "max_steps=-1", "max_steps"), ("sweep-accept", "c=0", "step size"),
        ("sweep-gap", "h_grid=-0.1", "-0.1"), ("mix", "c=-1", "step size"),
        ("sweep-accept", "d_grid=", "d_grid"), ("sweep-collapse", "d_grid=", "d_grid"),
        ("sweep-gap", "d_grid=", "d_grid"), ("mix", "d_grid=", "d_grid"),
    ])
    def test_bad_value_exits_2_before_any_cell(self, tmp_path, monkeypatch, capsys,
                                                command, setting, shown):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        for name in ("mean_acceptance", "dirichlet_gap_upper", "mixing_time_measure"):
            monkeypatch.setattr(cli.diagnostics, name, no_cell)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--set", "d_grid=16", "--set", setting, "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("malalab: ") and shown in line

    @pytest.mark.parametrize("command, settings", [
        ("mix", ["n_states=1", "max_steps=5"]),
        ("sweep-gap", ["n_mc=0", "h_grid=0.1", "n_states=100"]),
        ("sweep-accept", ["start=bogus", "n_states=10", "n_mc=10"]),
    ])
    def test_a_value_the_command_does_not_read_is_not_checked(self, tmp_path, command,
                                                             settings):
        argv = [command, "--set", "d_grid=16", "--out", str(tmp_path / "x.csv")]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 0

    def test_seed_spellings_that_int_accepts_still_work(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        base = ["sweep-accept", "--set", "d_grid=64", "--set", "n_states=10",
                "--set", "n_mc=10", "--out"]
        main(base + [str(tmp_path / "a.csv"), "--seed", "7"])
        main(base + [str(tmp_path / "b.csv"), "--seed", "007"])
        monkeypatch.setenv("SEED", " +7 ")
        main(base + [str(tmp_path / "c.csv")])
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_verify_reads_config_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        cfg_file = tmp_path / "verify.cfg"
        cfg_file.write_text("seed=42\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--config", str(cfg_file), "--out", str(a)]) == 0
        assert main(["verify", "--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_step_size_rules(self):
        cfg = SweepConfig(h_rule="fixed", c=0.25)
        assert step_size(cfg, 64, gaussian(64)) == 0.25
        cfg = SweepConfig(h_rule="power", c=2.0, p=-0.5)
        assert step_size(cfg, 64, gaussian(64)) == pytest.approx(0.25)
        cfg = SweepConfig(h_rule="theorem1", c=0.1, m0=1.0, eps=0.25)
        p = adversarial_cosine(64, 0.2)
        kappa = 3.0
        expected = 0.1 * math.sqrt(0.5) / (
            1.5 ** (4 / 3) * 8.0 * math.log(64 * kappa * 1.0 / 0.25)
        )
        assert step_size(cfg, 64, p) == pytest.approx(expected)

    def test_target_for_rejects_unknown(self):
        with pytest.raises(ValueError):
            target_for(SweepConfig(kind="banana"), 8)
