import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softalign
from softalign import (
    CostKind,
    FeatureSequence,
    LabelVariant,
    LossKind,
    TrainConfig,
    brute_force_softdtw,
    build_cost_matrix,
    generate_synthetic_dataset,
    softdtw_gradient,
    toy_config,
    train,
)
from softalign.cli import (
    SequenceFileError,
    _load_dataset,
    build_parser,
    main,
    norm_rel_err,
    read_sequence_file,
    write_sequence_file,
)
from softalign.training import TOY_DATASET_PARAMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(out):
    fields = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def run_cli_process(*argv, python_flags=("-X", "dev", "-W", "error"), **env):
    """Run `python -m softalign.cli` as a shell does, with `env` added to the
    environment; returns the completed process."""
    env = dict(os.environ, PYTHONPATH=str(Path(softalign.__file__).resolve().parent.parent), **env)
    return subprocess.run([sys.executable, *python_flags, "-m", "softalign.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def assert_one_error(code, out, err):
    """A failed command exits 1 with no report and one `error:` line; returns that line."""
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")
    return line


# Two 2-dim sequences engineered so the squared-Euclidean cost matrix is
# [[1, 2], [3, 4]] up to float rounding of sqrt(2).
GOLDEN_X = np.array([[0.0, 0.0], [2.0, np.sqrt(2.0)]])
GOLDEN_Y = np.array([[1.0, 0.0], [0.0, np.sqrt(2.0)]])


class TestSequenceFile:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 3)) * np.logspace(-12, 12, 3)
        path = tmp_path / "m.txt"
        write_sequence_file(path, mat)
        assert np.array_equal(read_sequence_file(path), mat)

    @pytest.mark.parametrize("name", ["row.txt", "row.gz"])
    def test_written_bytes(self, tmp_path, name):
        # 17 significant digits, a 1-D row as one 1xN row, and plain text
        # whatever the file name.
        path = tmp_path / name
        write_sequence_file(path, np.array([-0.0, 5e-324, 1e308, 0.1, 3.0]))
        assert path.read_bytes() == b"1 5\n-0 4.9406564584124654e-324 1e+308 0.10000000000000001 3\n"

    def test_header_and_shape_checks(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(SequenceFileError):
            read_sequence_file(path)
        path.write_text("2\n1.0\n2.0\n")
        with pytest.raises(SequenceFileError):
            read_sequence_file(path)

    def test_rejects_nan_and_inf_tokens(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1 2\nnan 1.0\n")
        with pytest.raises(SequenceFileError):
            read_sequence_file(path)
        path.write_text("1 2\n1.0 inf\n")
        with pytest.raises(SequenceFileError):
            read_sequence_file(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("\n   \n", "empty file"),
        ("two 2\n1.0 2.0\n", "bad header"),
        ("2 x\n1.0 2.0\n3.0 4.0\n", "bad header"),
        ("2 2\n1.0 2.0\n3.0\n", "row 2 has 1 values, expected 2"),
        ("1 2\n1.0 2.0 3.0\n", "row 1 has 3 values, expected 2"),
        ("1 2\n1.0 abc\n", "row 1 has a non-numeric token"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SequenceFileError, match=message):
            read_sequence_file(path)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2\n1.0 \xff\n")
        with pytest.raises(SequenceFileError, match="bad.txt: not UTF-8 text"):
            read_sequence_file(path)


class TestAlignCommand:
    def test_identical_single_frame_costs_zero(self, tmp_path, capsys):
        f = tmp_path / "x.txt"
        write_sequence_file(f, [[1.0, 2.0, 3.0]])
        code, out, _ = run_cli(capsys, "align", str(f), str(f), "--gamma", "10")
        assert code == 0
        assert float(report_dict(out)["softdtw_cost"]) == 0.0

    def test_golden_cost_matches_oracle_to_nine_decimals(self, tmp_path, capsys):
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_sequence_file(fx, GOLDEN_X)
        write_sequence_file(fy, GOLDEN_Y)
        code, out, _ = run_cli(capsys, "align", str(fx), str(fy), "--gamma", "1")
        assert code == 0
        costs = build_cost_matrix(
            CostKind.SQUARED_EUCLIDEAN, FeatureSequence(GOLDEN_X), FeatureSequence(GOLDEN_Y)
        )
        oracle_cost, _ = brute_force_softdtw(costs, 1.0)
        assert float(report_dict(out)["softdtw_cost"]) == pytest.approx(oracle_cost, abs=1e-9)

    def test_hard_flag_prints_classical_path(self, tmp_path, capsys):
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_sequence_file(fx, GOLDEN_X)
        write_sequence_file(fy, GOLDEN_Y)
        code, out, _ = run_cli(capsys, "align", str(fx), str(fy), "--hard")
        fields = report_dict(out)
        assert code == 0
        assert float(fields["dtw_cost"]) == pytest.approx(5.0, abs=1e-12)
        assert fields["dtw_path.0"] == "0 0"
        assert fields["dtw_path.1"] == "1 1"

    def test_grad_flag_writes_occupancy_file(self, tmp_path, capsys):
        fx, fy, fg = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "grad.txt"
        write_sequence_file(fx, GOLDEN_X)
        write_sequence_file(fy, GOLDEN_Y)
        code, _, _ = run_cli(capsys, "align", str(fx), str(fy), "--gamma", "1", "--grad", str(fg))
        assert code == 0
        grad = read_sequence_file(fg)
        costs = build_cost_matrix(
            CostKind.SQUARED_EUCLIDEAN, FeatureSequence(GOLDEN_X), FeatureSequence(GOLDEN_Y)
        )
        _, oracle_grad = brute_force_softdtw(costs, 1.0)
        assert grad == pytest.approx(oracle_grad, abs=1e-12)

    def test_grad_flag_runs_one_forward_sweep(self, tmp_path, capsys, monkeypatch):
        from softalign import alignment

        calls = []

        def counted(c, g, _forward_fill=alignment._forward_fill):
            calls.append(c.shape)
            return _forward_fill(c, g)

        monkeypatch.setattr(alignment, "_forward_fill", counted)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((6, 3)), rng.standard_normal((9, 3))
        fx, fy, fg, want = (tmp_path / name for name in ("x.txt", "y.txt", "grad.txt", "want.txt"))
        write_sequence_file(fx, x)
        write_sequence_file(fy, y)
        align = ("align", str(fx), str(fy), "--gamma", "2", "--hard")
        code, plain, _ = run_cli(capsys, *align)
        assert code == 0 and calls == [(6, 9)]
        code, out, _ = run_cli(capsys, *align, "--grad", str(fg))
        assert code == 0 and calls == [(6, 9)] * 2
        # The same report and file as a forward pass and a separate gradient give.
        assert out == plain + f"grad_file {fg}\n"
        costs = build_cost_matrix(CostKind.SQUARED_EUCLIDEAN, FeatureSequence(x), FeatureSequence(y))
        write_sequence_file(want, softdtw_gradient(costs, 2.0))
        assert fg.read_bytes() == want.read_bytes()

    def test_dimension_mismatch_exits_one_with_both_dims(self, tmp_path, capsys):
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_sequence_file(fx, [[1.0, 2.0]])
        write_sequence_file(fy, [[1.0, 2.0, 3.0]])
        code, out, err = run_cli(capsys, "align", str(fx), str(fy))
        assert code == 1
        assert out == ""
        assert "2" in err and "3" in err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        f = tmp_path / "x.txt"
        f.write_text("1 1\nnan\n")
        assert_one_error(*run_cli(capsys, "align", str(f), str(f)))

    def test_usage_error_exits_one(self, capsys):
        assert run_cli(capsys, "align")[0] == 1
        assert run_cli(capsys, "no-such-command")[0] == 1
        # The usage text, then argparse's reason on a last `error:` line.
        for argv, reason in (
            (["align", "onlyone"], "the following arguments are required: y_file"),
            (["no-such-command"], "invalid choice: 'no-such-command'"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("usage: softalign")
            assert err.splitlines()[-1].startswith("error: ") and reason in err.splitlines()[-1]


class TestGradcheckCommand:
    def test_defaults_small_pass(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--trials", "3")
        fields = report_dict(out)
        assert code == 0
        assert fields["pass"] == "true"
        assert float(fields["max_rel_err_fd"]) < 1e-5
        assert float(fields["max_rel_err_oracle_grad"]) < 1e-9

    @pytest.mark.parametrize("gamma", ["0.5", "20"])
    def test_gamma_working_range(self, capsys, gamma):
        code, out, _ = run_cli(
            capsys, "gradcheck", "--rows", "5", "--cols", "4", "--trials", "2", "--gamma", gamma
        )
        assert code == 0
        assert report_dict(out)["pass"] == "true"

    def test_single_cell_trivially_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--rows", "1", "--cols", "1", "--trials", "1")
        assert code == 0
        assert report_dict(out)["pass"] == "true"

    @pytest.mark.parametrize("flag", ["--rows", "--cols", "--dim", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_sizes_below_one_exit_one(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "gradcheck", flag, value)
        assert code == 1
        assert out == ""
        assert "rows, cols, dim and trials must be >= 1" in err

    @pytest.mark.parametrize("flag", ["--fd-tolerance", "--oracle-tolerance"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_malformed_tolerance_exits_one_before_any_trial(self, capsys, monkeypatch, flag, value):
        # NaN fails every comparison, so it would read as a tolerance failure.
        import softalign.cli

        trials = []
        monkeypatch.setattr(softalign.cli, "build_cost_matrix", lambda *args: trials.append(args))
        line = assert_one_error(*run_cli(capsys, "gradcheck", "--trials", "1", f"{flag}={value}"))
        assert line == "error: fd-tolerance and oracle-tolerance must be positive"
        assert trials == []

    @pytest.mark.parametrize("flag", ["--fd-tolerance", "--oracle-tolerance"])
    def test_infinite_tolerance_is_accepted(self, capsys, flag):
        code, out, _ = run_cli(capsys, "gradcheck", "--rows", "4", "--cols", "4", "--trials", "1", flag, "inf")
        assert code == 0
        assert report_dict(out)["pass"] == "true"

    def test_impossible_tolerance_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "gradcheck", "--rows", "4", "--cols", "4", "--trials", "1",
            "--fd-tolerance", "1e-30",
        )
        assert code == 2
        assert report_dict(out)["pass"] == "false"

    @pytest.mark.parametrize("cols, checked", [("8", True), ("9", False)])
    def test_oracle_runs_up_to_its_path_limit(self, capsys, cols, checked):
        # 8x8 has 48,639 warping paths; 8x9 has 108,545, over the 10^5 limit
        code, out, _ = run_cli(capsys, "gradcheck", "--rows", "8", "--cols", cols, "--trials", "1")
        fields = report_dict(out)
        assert code == 0
        assert fields["pass"] == "true"
        assert fields["oracle_checked"] == str(checked).lower()
        oracle_keys = {"max_rel_err_oracle_cost", "max_rel_err_oracle_grad"}
        assert oracle_keys & fields.keys() == (oracle_keys if checked else set())

    def test_zero_reference_error_is_absolute(self):
        assert norm_rel_err(np.array([[0.5, -2.0]]), np.zeros((1, 2))) == 2.0
        assert norm_rel_err(np.zeros(3), np.zeros(3)) == 0.0


class TestDatagenTrainEvalPipeline:
    def test_datagen_writes_loadable_dataset(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        code, out, _ = run_cli(
            capsys, "datagen", "--out", str(out_dir), "--seed", "3",
            "--excerpts", "2", "--frames", "20", "--polyphony", "2", "--noise", "0.05",
        )
        assert code == 0
        assert (out_dir / "excerpt_000_input.txt").exists()
        assert (out_dir / "excerpt_001_score.txt").exists()
        assert (out_dir / "dataset.txt").exists()

    def test_train_on_datagen_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--seed", "3",
                "--excerpts", "2", "--frames", "20", "--polyphony", "2", "--noise", "0.05")
        report_file = tmp_path / "report.txt"
        model_file = tmp_path / "model.txt"
        code, out, _ = run_cli(
            capsys, "train", "--data-dir", str(out_dir), "--variant", "w2",
            "--epochs", "3", "--report", str(report_file), "--model-out", str(model_file),
        )
        fields = report_dict(out)
        assert code == 0
        assert float(fields["first_batch_loss"]) == 1.0
        assert "final.f_measure" in fields
        assert report_file.read_text().splitlines()[0].startswith("tool_version")
        assert report_file.read_bytes() == out.encode()
        assert read_sequence_file(model_file).shape == (72, 73)

    @pytest.mark.parametrize("noise, message", [
        ("nan", "noise_level must be finite"),
        ("inf", "noise_level must be finite"),
        ("1e308", "noise_level 1e+308 overflows float64"),  # finite, but its noise is not
    ])
    def test_datagen_rejects_non_finite_noise(self, tmp_path, capsys, noise, message):
        out_dir = tmp_path / "data"
        line = assert_one_error(*run_cli(capsys, "datagen", "--out", str(out_dir), "--noise", noise))
        assert message in line
        assert not out_dir.exists()

    def test_train_rejects_overflowing_noise_under_warnings_as_errors(self):
        # out of process under -X dev -W error, where the overflow warning would escape main
        proc = run_cli_process("train", "--noise", "1e308", "--excerpts", "1", "--frames", "8", "--epochs", "1")
        line = assert_one_error(proc.returncode, proc.stdout, proc.stderr)
        assert line == "error: noise_level 1e+308 overflows float64 inputs"

    # --excerpts is given at its default value: a given flag is refused whatever its value
    @pytest.mark.parametrize("flag, value", [
        ("--data-seed", "99"), ("--excerpts", str(TOY_DATASET_PARAMS["excerpt_count"])),
        ("--frames", "10"), ("--polyphony", "2"), ("--noise", "0.5"),
    ])
    def test_train_refuses_dataset_flags_with_data_dir(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--excerpts", "2", "--frames", "12")
        line = assert_one_error(*run_cli(capsys, "train", "--data-dir", str(out_dir), flag, value,
                                         "--epochs", "1"))
        assert line == f"error: {flag} not allowed with --data-dir"

    def test_train_defaults_are_the_bundled_toy_config(self):
        args = build_parser().parse_args(["train"])
        toy = toy_config(LabelVariant.COLLAPSE_STRETCH, LossKind.SOFT_ALIGNMENT)
        assert (args.variant, args.loss) == (toy.variant.value, toy.loss_kind.value)
        assert (args.gamma, args.lr, args.momentum) == (toy.gamma, toy.learning_rate, toy.momentum)
        assert (args.epochs, args.seed, args.threshold) == (toy.epochs, toy.seed, toy.threshold)

    def test_train_refuses_directory_missing_an_excerpt(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--seed", "3",
                "--excerpts", "4", "--frames", "20", "--polyphony", "2", "--noise", "0.05")
        for path in out_dir.glob("excerpt_002_*.txt"):
            path.unlink()
        with pytest.raises(SequenceFileError, match="lists 4 excerpts, found 2"):
            _load_dataset(out_dir)
        line = assert_one_error(*run_cli(capsys, "train", "--data-dir", str(out_dir), "--epochs", "1"))
        assert "lists 4 excerpts" in line

    def test_train_refuses_malformed_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--seed", "3",
                "--excerpts", "2", "--frames", "20", "--polyphony", "2", "--noise", "0.05")
        (out_dir / "dataset.txt").write_text("excerpts two\n")
        with pytest.raises(SequenceFileError, match="excerpts"):
            _load_dataset(out_dir)

    @pytest.mark.parametrize("contents", ["nothing", "manifest only", "missing"])
    def test_train_refuses_directory_without_excerpts(self, tmp_path, capsys, contents):
        data_dir = tmp_path / "data"
        if contents != "missing":
            data_dir.mkdir()
        if contents == "manifest only":
            (data_dir / "dataset.txt").write_text("excerpts 0\n")
        line = assert_one_error(*run_cli(capsys, "train", "--data-dir", str(data_dir), "--epochs", "1"))
        assert "no excerpt files found" in line

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning_rate must be positive and finite"),
        ("--lr", "inf", "learning_rate must be positive and finite"),
        ("--threshold", "nan", "threshold must be finite"),
        ("--threshold", "inf", "threshold must be finite"),
        ("--threshold", "-inf", "threshold must be finite"),
    ])
    def test_train_rejects_non_finite_rate_or_threshold(self, capsys, flag, value, message):
        line = assert_one_error(
            *run_cli(capsys, "train", "--variant", "strong", "--epochs", "1", f"{flag}={value}")
        )
        assert message in line

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_divergence_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "train", "--variant", "strong", "--loss", "l2", "--lr", "1e308", "--epochs", "3")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: training diverged at epoch 0, batch 0: the updated weight or bias is not finite"
        ]

    def test_directory_without_manifest_still_loads(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--seed", "3",
                "--excerpts", "2", "--frames", "20", "--polyphony", "2", "--noise", "0.05")
        (out_dir / "dataset.txt").unlink()
        assert len(_load_dataset(out_dir)) == 2

    def test_train_reports_are_bit_identical_across_runs(self, capsys):
        args = ("train", "--variant", "w1", "--epochs", "2",
                "--excerpts", "2", "--frames", "20", "--data-seed", "5")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_eval_perfect_prediction(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        roll = (rng.random((5, 72)) < 0.1).astype(float)
        f = tmp_path / "roll.txt"
        write_sequence_file(f, roll)
        code, out, _ = run_cli(capsys, "eval", str(f), str(f))
        fields = report_dict(out)
        assert code == 0
        assert fields["threshold"] == "0.4"
        for key in ("cosine_similarity", "f_measure", "accuracy", "average_precision"):
            assert float(fields[key]) == pytest.approx(1.0, abs=1e-12)

    def test_eval_hand_counted_fixture(self, tmp_path, capsys):
        pred = np.zeros((1, 72))
        pred[0, [0, 1, 2]] = [0.9, 0.8, 0.7]
        ref = np.zeros((1, 72))
        ref[0, [0, 1]] = 1.0
        fp, fr = tmp_path / "p.txt", tmp_path / "r.txt"
        write_sequence_file(fp, pred)
        write_sequence_file(fr, ref)
        code, out, _ = run_cli(capsys, "eval", str(fp), str(fr))
        fields = report_dict(out)
        assert code == 0
        assert float(fields["f_measure"]) == 0.8
        assert float(fields["accuracy"]) == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_eval_non_finite_threshold_exits_one(self, tmp_path, capsys, threshold):
        f = tmp_path / "r.txt"
        write_sequence_file(f, np.zeros((2, 72)))
        line = assert_one_error(*run_cli(capsys, "eval", str(f), str(f), f"--threshold={threshold}"))
        assert "threshold must be finite" in line

    def test_eval_shape_mismatch_exits_one(self, tmp_path, capsys):
        fp, fr = tmp_path / "p.txt", tmp_path / "r.txt"
        write_sequence_file(fp, np.zeros((2, 72)))
        write_sequence_file(fr, np.zeros((3, 72)))
        assert_one_error(*run_cli(capsys, "eval", str(fp), str(fr)))


class TestFailedCommands:
    @pytest.mark.parametrize("argv", [
        pytest.param(["align", "{x}", "{x}", "--hard", "--grad", "{missing}/e.txt"], id="align-grad"),
        pytest.param(["align", "{x}", "{y3}"], id="align-dimension-mismatch"),
        pytest.param(["gradcheck", "--rows", "0"], id="gradcheck-rows"),
        pytest.param(["train", "--epochs", "1", "--excerpts", "2", "--frames", "20",
                      "--report", "{missing}/r.txt"], id="train-report"),
        pytest.param(["train", "--epochs", "1", "--excerpts", "2", "--frames", "20",
                      "--model-out", "{missing}/m.txt"], id="train-model-out"),
    ])
    def test_failed_command_prints_no_report(self, tmp_path, capsys, argv):
        write_sequence_file(tmp_path / "x.txt", GOLDEN_X)
        write_sequence_file(tmp_path / "y3.txt", [[1.0, 2.0, 3.0]])
        paths = {"x": tmp_path / "x.txt", "y3": tmp_path / "y3.txt", "missing": tmp_path / "missing"}
        assert_one_error(*run_cli(capsys, *(arg.format(**paths) for arg in argv)))

    def test_eval_names_the_reference_file_that_is_not_a_roll(self, tmp_path):
        # Out of process, as a shell runs it: a 2 in the reference roll.
        pred, ref = tmp_path / "pred.txt", tmp_path / "ref.txt"
        write_sequence_file(pred, np.full((3, 72), 0.5))
        roll = np.zeros((3, 72))
        roll[1, 5] = 2.0
        write_sequence_file(ref, roll)
        proc = run_cli_process("eval", pred, ref)
        line = assert_one_error(proc.returncode, proc.stdout, proc.stderr)
        assert line == f"error: {ref}: piano roll entries must all be exactly 0 or 1"

    # gamma at both ends of float64, out of process as a shell runs it: at
    # 1e308 D itself overflows, and at 5e-324 a cost difference divided by
    # gamma does. Under either warning filter each is one error naming gamma.
    @pytest.mark.parametrize("argv, cause", [
        (("train", "--gamma", "1e308"), "subtract"),
        (("gradcheck", "--gamma", "1e308"), "subtract"),
        (("train", "--gamma", "5e-324"), "divide"),
        (("gradcheck", "--gamma", "5e-324"), "divide"),
    ])
    @pytest.mark.parametrize("python_flags", [("-X", "dev", "-W", "error"), ()], ids=["warnings-as-errors", "default"])
    def test_gamma_out_of_float64_range_is_one_error(self, argv, cause, python_flags):
        proc = run_cli_process(*argv, python_flags=python_flags)
        line = assert_one_error(proc.returncode, proc.stdout, proc.stderr)
        assert line == (f"error: gamma {float(argv[-1])!r} takes soft-DTW out of float64's range: "
                        f"overflow encountered in {cause}")

    # Finite inputs whose squared differences overflow (2 frames of 1e200), and
    # whose costs (about 4e306) are finite but whose 200-cell border sums overflow.
    @pytest.mark.parametrize("x, y", [
        pytest.param(np.full((2, 4), 1e200), np.ones((3, 4)), id="squared-difference"),
        pytest.param(np.full((3, 4), 1e153), np.ones((200, 4)), id="border-sum"),
    ])
    @pytest.mark.parametrize("warnings_filter", [
        pytest.param("error", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        pytest.param("ignore", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ])
    def test_align_overflow_is_one_error(self, tmp_path, capsys, x, y, warnings_filter):
        fx, fy, fg = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "grad.txt"
        write_sequence_file(fx, x)
        write_sequence_file(fy, y)
        line = assert_one_error(*run_cli(capsys, "align", str(fx), str(fy), "--hard", "--grad", str(fg)))
        assert "overflow" in line
        assert str(fx) in line and str(fy) in line
        assert not fg.exists()


EXCERPT_KINDS = ("input", "strong", "score")

# The help text at 80 columns: the dataset flags keep their names, metavars and order.
DATAGEN_HELP = """\
usage: softalign datagen [-h] --out OUT [--seed SEED] [--excerpts EXCERPTS]
                         [--frames FRAMES] [--polyphony POLYPHONY]
                         [--noise NOISE]

options:
  -h, --help            show this help message and exit
  --out OUT
  --seed SEED
  --excerpts EXCERPTS
  --frames FRAMES
  --polyphony POLYPHONY
  --noise NOISE
"""

TRAIN_HELP = """\
usage: softalign train [-h] [--variant {strong,w1,w2,w3,w4,overtone}]
                       [--loss {softdtw,l2,ce}] [--gamma GAMMA] [--lr LR]
                       [--momentum MOMENTUM] [--epochs EPOCHS] [--seed SEED]
                       [--threshold THRESHOLD] [--data-dir DATA_DIR]
                       [--data-seed DATA_SEED] [--excerpts EXCERPTS]
                       [--frames FRAMES] [--polyphony POLYPHONY]
                       [--noise NOISE] [--report REPORT]
                       [--model-out MODEL_OUT]

options:
  -h, --help            show this help message and exit
  --variant {strong,w1,w2,w3,w4,overtone}
  --loss {softdtw,l2,ce}
  --gamma GAMMA
  --lr LR
  --momentum MOMENTUM
  --epochs EPOCHS
  --seed SEED
  --threshold THRESHOLD
  --data-dir DATA_DIR   load a datagen directory instead of generating
  --data-seed DATA_SEED
  --excerpts EXCERPTS
  --frames FRAMES
  --polyphony POLYPHONY
  --noise NOISE
  --report REPORT       also write the report to this file
  --model-out MODEL_OUT
                        write final parameters (bias in last column)
"""


def excerpt_names(count):
    return {f"excerpt_{i:03d}_{kind}.txt" for i in range(count) for kind in EXCERPT_KINDS}


class TestCommandTables:
    def test_datagen_writes_three_files_per_excerpt_and_the_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        code, _, _ = run_cli(capsys, "datagen", "--out", str(out_dir), "--excerpts", "3", "--frames", "12")
        assert code == 0
        assert {path.name for path in out_dir.iterdir()} == excerpt_names(3) | {"dataset.txt"}

    @pytest.mark.parametrize("command, seed_flag", [("datagen", "--seed"), ("train", "--data-seed")])
    @pytest.mark.parametrize("flags, params", [
        pytest.param(["--excerpts", "2", "--frames", "21", "--polyphony", "2", "--noise", "1"],
                     dict(seed=9, excerpt_count=2, frames=21, polyphony=2, noise_level=1.0), id="given"),
        pytest.param([], dict(TOY_DATASET_PARAMS, seed=9), id="defaults"),
    ])
    def test_dataset_flags_reach_the_generator(self, tmp_path, capsys, monkeypatch, command, seed_flag,
                                               flags, params):
        calls = []

        def recording(**kwargs):
            calls.append(kwargs)
            return generate_synthetic_dataset(**kwargs)

        monkeypatch.setattr("softalign.cli.generate_synthetic_dataset", recording)
        where = ["--out", str(tmp_path / "data")] if command == "datagen" else ["--epochs", "1"]
        code, _, _ = run_cli(capsys, command, *where, seed_flag, "9", *flags)
        assert code == 0
        assert calls == [params]
        assert [type(value) for value in calls[0].values()] == [type(value) for value in params.values()]

    def test_train_settings_reach_the_config_and_the_report(self, capsys, monkeypatch):
        # every setting away from its default, each float distinct from the others
        configs = []

        def recording(dataset, config):
            configs.append(config)
            return train(dataset, config)

        monkeypatch.setattr("softalign.cli.train", recording)
        code, out, _ = run_cli(
            capsys, "train", "--variant", "overtone", "--loss", "l2", "--gamma", "3.5", "--lr", "0.5",
            "--momentum", "0.25", "--epochs", "2", "--seed", "7", "--threshold", "0.3",
            "--excerpts", "2", "--frames", "20",
        )
        expected = TrainConfig(learning_rate=0.5, epochs=2, gamma=3.5, momentum=0.25, seed=7,
                               variant=LabelVariant.OVERTONE, loss_kind=LossKind.PER_FRAME_L2, threshold=0.3)
        assert code == 0
        assert configs == [expected]
        assert [type(value) for value in vars(configs[0]).values()] == [
            type(value) for value in vars(expected).values()
        ]
        assert out.splitlines()[:9] == [
            f"tool_version {softalign.__version__}",
            "config.variant overtone",
            "config.loss l2",
            "config.gamma 3.5",
            "config.learning_rate 0.5",
            "config.momentum 0.25",
            "config.epochs 2",
            "config.seed 7",
            "config.threshold 0.3",
        ]

    @pytest.mark.parametrize("command, text", [("datagen", DATAGEN_HELP), ("train", TRAIN_HELP)])
    def test_help_text_is_unchanged(self, capsys, monkeypatch, command, text):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert out == text

    def test_usage_error_prints_the_unchanged_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "datagen")
        usage = DATAGEN_HELP.split("\n\n")[0] + "\n"
        assert (code, out) == (1, "")
        assert err == usage + "error: the following arguments are required: --out\n"

    @pytest.mark.parametrize("cols, oracle_keys", [
        ("8", ["max_rel_err_oracle_cost", "max_rel_err_oracle_grad"]),
        ("9", []),
    ])
    def test_gradcheck_report_keys_in_order(self, capsys, cols, oracle_keys):
        code, out, _ = run_cli(capsys, "gradcheck", "--rows", "8", "--cols", cols, "--trials", "1")
        assert code == 0
        keys = [line.split(" ")[0] for line in out.splitlines()]
        assert keys == ["rows", "cols", "dim", "gamma", "trials", "oracle_checked", "max_rel_err_fd",
                        *oracle_keys, "pass"]

    @pytest.mark.parametrize("rows, cols, code", [("4", "4", 2), ("8", "9", 0)])
    def test_oracle_tolerance_applies_only_when_the_oracle_ran(self, capsys, rows, cols, code):
        # 4x4 runs the oracle, 8x9 does not; no error is below 1e-30
        got, out, _ = run_cli(capsys, "gradcheck", "--rows", rows, "--cols", cols, "--trials", "1",
                              "--oracle-tolerance", "1e-30")
        assert got == code
        assert report_dict(out)["pass"] == str(code == 0).lower()


@pytest.fixture(scope="module")
def three_excerpts(tmp_path_factory):
    """A pristine 3-excerpt datagen directory, copied before each change."""
    directory = tmp_path_factory.mktemp("pristine") / "data"
    assert main(["datagen", "--out", str(directory), "--excerpts", "3", "--frames", "12", "--seed", "5"]) == 0
    return directory


class TestDatasetDirectory:
    def test_gap_without_manifest_names_the_missing_input(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--excerpts", "4", "--frames", "12")
        (out_dir / "excerpt_001_input.txt").unlink()
        (out_dir / "dataset.txt").unlink()
        with pytest.raises(SequenceFileError, match="excerpt_001_input.txt is missing$"):
            _load_dataset(out_dir)
        line = assert_one_error(*run_cli(capsys, "train", "--data-dir", str(out_dir), "--epochs", "1"))
        assert line == f"error: {out_dir / 'excerpt_001_input.txt'} is missing"

    def test_manifest_count_above_the_files_names_the_first_missing_input(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--excerpts", "3", "--frames", "12")
        (out_dir / "excerpt_000_input.txt").unlink()
        with pytest.raises(SequenceFileError, match="lists 3 excerpts, found 0; .*excerpt_000_input.txt is missing$"):
            _load_dataset(out_dir)

    @pytest.mark.parametrize("kind, message", [
        ("strong", "entries must all be exactly 0 or 1"),
        ("score", "must have 72 columns"),
    ])
    def test_roll_checks_name_the_file(self, tmp_path, capsys, kind, message):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--excerpts", "2", "--frames", "12")
        path = out_dir / f"excerpt_001_{kind}.txt"
        width = 72 if kind == "strong" else 71
        write_sequence_file(path, np.full((12, width), 2.0 if kind == "strong" else 1.0))
        line = assert_one_error(*run_cli(capsys, "train", "--data-dir", str(out_dir), "--epochs", "1"))
        assert line.startswith(f"error: {path}: ") and message in line

    def test_short_strong_roll_names_its_excerpt_and_both_lengths(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        run_cli(capsys, "datagen", "--out", str(out_dir), "--excerpts", "2", "--frames", "20")
        path = out_dir / "excerpt_001_strong.txt"
        write_sequence_file(path, read_sequence_file(path)[:-2])
        line = assert_one_error(*run_cli(capsys, "train", "--data-dir", str(out_dir), "--epochs", "1"))
        assert line == "error: excerpt 1: strong targets must have one frame per input frame, found 18 for 20"

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(excerpt_names(3)) + ["dataset.txt"]),
        change=st.sampled_from(["delete", "rename", "truncate", "corrupt"]),
        position=st.integers(min_value=0, max_value=10**6),
        byte=st.integers(min_value=0, max_value=255),
    )
    def test_one_changed_file_loads_in_full_or_is_named(self, three_excerpts, name, change, position, byte):
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch) / "data"
            shutil.copytree(three_excerpts, directory)
            path = directory / name
            data = path.read_bytes()
            at = position % len(data)
            if change == "delete":
                path.unlink()
            elif change == "rename":  # to a name outside the dataset's
                path.rename(path.with_name(name + ".bak"))
            elif change == "truncate":
                path.write_bytes(data[:at])
            else:
                path.write_bytes(data[:at] + bytes([byte]) + data[at + 1:])
            try:
                loaded = _load_dataset(directory)
            except (ValueError, OSError) as exc:
                assert name in str(exc)
            else:
                assert len(loaded) == 3
                return
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["train", "--data-dir", str(directory), "--epochs", "1"])
            assert code == 1
            assert out.getvalue() == ""
            [line] = err.getvalue().splitlines()
            assert line.startswith("error: ") and name in line


class TestUtf8WhateverTheLocale:
    def test_utf8_file_parses_under_the_c_locale(self, tmp_path):
        # a no-break space separates the values: UTF-8 bytes that ASCII cannot decode
        path = tmp_path / "nbsp.txt"
        path.write_bytes("1 2\n1.5\u00a02\n".encode("utf-8"))
        proc = run_cli_process("align", path, path, python_flags=("-X", "utf8=0", "-X", "dev", "-W", "error"),
                               LC_ALL="C")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert report_dict(proc.stdout)["softdtw_cost"] == "0.0"

    def test_no_file_is_opened_in_the_locale_encoding(self, tmp_path):
        # every text file the commands read or write, under EncodingWarning as an error
        data = tmp_path / "data"
        flags = ("-X", "dev", "-X", "warn_default_encoding", "-W", "error")
        for argv in [
            ("datagen", "--out", data, "--excerpts", "2", "--frames", "20"),
            ("train", "--data-dir", data, "--epochs", "1", "--report", tmp_path / "r.txt",
             "--model-out", tmp_path / "m.txt"),
            ("align", "--grad", tmp_path / "g.txt",
             data / "excerpt_000_input.txt", data / "excerpt_001_input.txt"),
            ("eval", data / "excerpt_000_input.txt", data / "excerpt_000_strong.txt"),
        ]:
            proc = run_cli_process(*argv, python_flags=flags)
            assert (argv[0], proc.returncode, proc.stderr) == (argv[0], 0, "")
