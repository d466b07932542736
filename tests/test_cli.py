import numpy as np
import pytest

from softalign import (
    CostKind,
    FeatureSequence,
    LabelVariant,
    LossKind,
    brute_force_softdtw,
    build_cost_matrix,
    toy_config,
)
from softalign.cli import (
    SequenceFileError,
    _load_dataset,
    build_parser,
    main,
    read_sequence_file,
    write_sequence_file,
)


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

    def test_impossible_tolerance_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "gradcheck", "--rows", "4", "--cols", "4", "--trials", "1",
            "--fd-tolerance", "1e-30",
        )
        assert code == 2
        assert report_dict(out)["pass"] == "false"


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

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_datagen_rejects_non_finite_noise(self, tmp_path, capsys, noise):
        out_dir = tmp_path / "data"
        line = assert_one_error(*run_cli(capsys, "datagen", "--out", str(out_dir), "--noise", noise))
        assert "noise_level must be finite" in line
        assert not out_dir.exists()

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
