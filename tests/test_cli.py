import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ibquant
from ibquant.cli import main
from ibquant.dde import load_design
from ibquant.maxlut import load_node_lut

from test_dde import DESIGN_TAGS, renamed_tag_lines


def run(argv):
    return main(argv)


def rerun_bytes(argv, out):
    """Bytes written by two identical invocations, the same --out included."""
    full = argv + ["--out", str(out)]
    assert run(full) == 0
    first = out.read_bytes()
    out.unlink()
    assert run(full) == 0
    return first, out.read_bytes()


class TestInfo:
    def test_bsc(self, capsys):
        assert run(["info", "--channel", "bsc:0.11"]) == 0
        out = capsys.readouterr().out
        assert "I(x;y) = 0.5000" in out

    def test_unknown_channel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["info", "--channel", "qam:16"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("spec", ["ask4.5", "askM", "bsc:x", "bpsk:", "bsc:0.7",
                                      "ask3"])
    def test_malformed_channel_is_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["info", "--channel", spec])
        assert exc.value.code == 2
        assert "channel" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--sigma", "--clip"])
    def test_nan_awgn_parameter_is_usage_error(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["info", "--channel", "ask4", option, "nan"])
        assert exc.value.code == 2
        assert "probabilities must be finite" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = str(Path(ibquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import ibquant, ibquant.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


class TestQuantize:
    def test_bsc_dp_identity(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run(["quantize", "--channel", "bsc:0.11", "--alg", "dp",
                    "--n", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ibquant")
        assert lines[1] == "algorithm,beta,n,restarts,info_loss_bits,compression_rate_bits,objective"
        info_loss = float(lines[2].split(",")[4])
        assert info_loss == pytest.approx(0.0, abs=1e-9)

    def test_header_echoes_the_given_argv(self, tmp_path):
        out = tmp_path / "q.csv"
        argv = ["quantize", "--channel", "bsc:0.11", "--alg", "dp", "--n", "2",
                "--seed", "4", "--out", str(out)]
        assert run(argv) == 0
        assert out.read_text().splitlines()[0] == (
            "# ibquant " + " ".join(argv) + " | seed=4")

    def test_ask_it_ib_row(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run(["quantize", "--channel", "ask4", "--sigma", "1", "--bins", "32",
                    "--alg", "it-ib", "--beta", "400", "--n", "8",
                    "--restarts", "3", "--seed", "1", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[0] == "it-ib"
        assert float(row[4]) >= 0.0

    def test_rerun_byte_identical(self, tmp_path):
        args = ["quantize", "--channel", "ask4", "--sigma", "1", "--bins", "32",
                "--alg", "kl-means", "--n", "4", "--restarts", "5",
                "--seed", "7"]
        first, second = rerun_bytes(args, tmp_path / "a.csv")
        assert first == second

    def test_mapping_out(self, tmp_path):
        out = tmp_path / "q.csv"
        mapping = tmp_path / "map.txt"
        assert run(["quantize", "--channel", "bsc:0.2", "--alg", "agg-ib",
                    "--n", "2", "--out", str(out), "--mapping-out", str(mapping)]) == 0
        lines = [l for l in mapping.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "quantizer 2 2"

    def test_mapping_out_with_several_n_is_usage_error(self, tmp_path, capsys,
                                                       monkeypatch):
        def no_curve(*args, **kwargs):
            raise AssertionError("quantize reached the curve")

        monkeypatch.setattr("ibquant.ib.ib_curve", no_curve)
        out, mapping = tmp_path / "q.csv", tmp_path / "map.txt"
        with pytest.raises(SystemExit) as exc:
            run(["quantize", "--channel", "bsc:0.2", "--alg", "agg-ib", "--n", "2,3",
                 "--out", str(out), "--mapping-out", str(mapping)])
        assert exc.value.code == 2
        assert "--mapping-out" in capsys.readouterr().err
        assert not out.exists() and not mapping.exists()

    @pytest.mark.parametrize("option, value", [("--restarts", "0"), ("--restarts", "-3"),
                                               ("--seed", "-1")])
    def test_invalid_restarts_and_seed_are_usage_errors(self, option, value, tmp_path,
                                                        capsys):
        out = tmp_path / "q.csv"
        with pytest.raises(SystemExit) as exc:
            run(["quantize", "--channel", "ask4", "--bins", "16", "--alg", "kl-means",
                 "--n", "4", option, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"{option} must be >= " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_beta_is_usage_error(self, beta, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                run(["quantize", "--channel", "ask4", "--bins", "16", "--alg", "it-ib",
                     "--beta", beta, "--n", "4", "--out", str(tmp_path / "q.csv")])
        assert exc.value.code == 2
        assert "--beta" in capsys.readouterr().err

    @pytest.mark.parametrize("alg, option, value", [
        ("kl-means", "--lambda", "nan"), ("kl-means", "--lambda", "inf"),
        ("kl-means", "--lambda", "-1"), ("it-ib", "--lambda", "-1"),
        ("it-ib", "--beta", "-1"), ("kl-means", "--beta", "-1"),
        ("kl-means", "--beta", "nan")])
    def test_invalid_lambda_and_beta_are_usage_errors(self, alg, option, value, tmp_path,
                                                      capsys, monkeypatch):
        def no_curve(*args, **kwargs):
            raise AssertionError("quantize reached the curve")

        monkeypatch.setattr("ibquant.ib.ib_curve", no_curve)
        out = tmp_path / "q.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                run(["quantize", "--channel", "ask4", "--bins", "16", "--alg", alg,
                     "--n", "4", option, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"{option} must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("channel, n", [("bsc:0.1", "3"), ("bsc:0.1", "1,2,3"),
                                            ("bpsk:1 --bins 16", "4,17")])
    def test_agg_ib_cluster_count_above_outputs_is_usage_error(self, channel, n, tmp_path,
                                                                capsys, monkeypatch):
        def no_curve(*args, **kwargs):
            raise AssertionError("quantize reached the curve")

        monkeypatch.setattr("ibquant.ib.ib_curve", no_curve)
        out = tmp_path / "q.csv"
        with pytest.raises(SystemExit) as exc:
            run(["quantize", "--channel", *channel.split(), "--alg", "agg-ib", "--n", n,
                 "--out", str(out)])
        assert exc.value.code == 2
        assert "agg-ib cannot use" in capsys.readouterr().err
        assert not out.exists()

    def test_dp_on_nonbinary_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_curve(*args, **kwargs):
            raise AssertionError("quantize reached the curve")

        monkeypatch.setattr("ibquant.ib.ib_curve", no_curve)
        out = tmp_path / "q.csv"
        with pytest.raises(SystemExit) as exc:
            run(["quantize", "--channel", "ask4", "--bins", "16", "--alg", "dp", "--n", "4",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert "--alg dp needs a binary-input channel" in capsys.readouterr().err
        assert not out.exists()


class TestMaxlut:
    def test_sixteen_level_table(self, tmp_path):
        out = tmp_path / "lut.txt"
        assert run(["maxlut", "--node", "check", "--in-bits", "4",
                    "--out-bits", "4", "--channel", "bpsk:2.0",
                    "--out", str(out)]) == 0
        lut = load_node_lut(out)
        assert lut.table.shape == (16, 16)
        assert lut.out_alphabet_size == 16

    def test_zero_out_bits_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["maxlut", "--node", "check", "--in-bits", "4",
                 "--out-bits", "0", "--channel", "bpsk:2.0",
                 "--out", str(tmp_path / "x.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, other", [("--in-bits", "--out-bits"),
                                             ("--out-bits", "--in-bits")])
    @pytest.mark.parametrize("bits", ["0", "9", "40"])
    def test_bits_outside_a_byte_are_usage_errors(self, tmp_path, flag, other, bits,
                                                  capsys, monkeypatch):
        def no_lut(*args, **kwargs):
            raise AssertionError("maxlut reached the table construction")

        monkeypatch.setattr("ibquant.maxlut.build_max_lut", no_lut)
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run(["maxlut", "--node", "check", flag, bits, other, "4",
                 "--channel", "bpsk:2.0", "--out", str(out)])
        assert exc.value.code == 2
        assert f"{flag} must be 1 to 8, not {bits}" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_identical(self, tmp_path):
        args = ["maxlut", "--node", "variable", "--in-bits", "3",
                "--out-bits", "3", "--channel", "bpsk:1.5", "--bins", "64"]
        first, second = rerun_bytes(args, tmp_path / "a.txt")
        assert first == second


class TestLdpcCommands:
    def test_design_and_simulate(self, tmp_path):
        design_file = tmp_path / "design.txt"
        trace_file = tmp_path / "trace.csv"
        assert run(["ldpc", "design", "--dv", "3", "--dc", "6", "--bits", "3",
                    "--iters", "4", "--ebn0", "2.0", "--bins", "32",
                    "--out", str(design_file), "--trace-out", str(trace_file)]) == 0
        design = load_design(design_file)
        assert design.message_bits == 3
        trace_lines = trace_file.read_text().splitlines()
        assert trace_lines[1] == "iteration,error_prob"

        ber_file = tmp_path / "ber.csv"
        assert run(["ldpc", "simulate", "--design", str(design_file),
                    "--decoder", "lut", "--ebn0", "2.0", "--max-frames", "40",
                    "--seed", "3", "--n", "120", "--out", str(ber_file)]) == 0
        lines = ber_file.read_text().splitlines()
        assert lines[1] == "decoder,ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iterations"
        assert lines[2].startswith("lut,2,40,")

    def test_simulate_lut_without_design_designs_per_point(self, tmp_path):
        ber_file = tmp_path / "ber.csv"
        assert run(["ldpc", "simulate", "--decoder", "lut", "--ebn0", "2.0",
                    "--max-frames", "15", "--seed", "2", "--n", "120",
                    "--bits", "3", "--iters", "3", "--bins", "32",
                    "--out", str(ber_file)]) == 0
        assert ber_file.read_text().splitlines()[2].startswith("lut,2,15,")

    def test_simulate_baseline_without_design(self, tmp_path):
        ber_file = tmp_path / "ber.csv"
        assert run(["ldpc", "simulate", "--decoder", "minsum", "--ebn0", "2.0,2.5",
                    "--max-frames", "30", "--seed", "3", "--n", "120",
                    "--bins", "32", "--out", str(ber_file)]) == 0
        lines = [l for l in ber_file.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 3  # header + two SNR points

    def test_simulate_rerun_identical(self, tmp_path):
        args = ["ldpc", "simulate", "--decoder", "bp", "--ebn0", "2.0",
                "--max-frames", "25", "--seed", "5", "--n", "120", "--bins", "32"]
        first, second = rerun_bytes(args, tmp_path / "a.csv")
        assert first == second

    @pytest.mark.parametrize("extra", [["--n", "1001"], ["--n", "0"],
                                       ["--dv", "6", "--dc", "3", "--n", "120"],
                                       ["--ebn0", "2.0,x"], ["--n", "-6"],
                                       ["--n", "4", "--dv", "3", "--dc", "6"]])
    def test_unfit_code_arguments_are_usage_errors(self, tmp_path, extra, capsys):
        argv = ["ldpc", "simulate", "--decoder", "minsum", "--ebn0", "2.0",
                "--max-frames", "5", "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            run(argv + extra)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["design", "--bits", "3", "--ebn0", "2.0", "--bins", "32"],
        ["simulate", "--decoder", "bp", "--ebn0", "1.0", "--max-frames", "5",
         "--n", "48", "--bins", "32"]])
    @pytest.mark.parametrize("iters", ["0", "-2"])
    def test_fewer_than_one_iteration_is_usage_error(self, tmp_path, command, iters,
                                                     capsys):
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run(["ldpc"] + command + ["--iters", iters, "--out", str(out)])
        assert exc.value.code == 2
        assert "--iters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bits", ["0", "9"])
    def test_lut_bits_outside_a_byte_are_usage_errors(self, tmp_path, bits, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "simulate", "--decoder", "lut", "--ebn0", "2.0",
                 "--max-frames", "5", "--n", "48", "--bits", bits, "--out", str(out)])
        assert exc.value.code == 2
        assert "1 to 8 bits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bits", ["0", "9"])
    def test_design_bits_outside_a_byte_are_usage_errors(self, tmp_path, bits, capsys,
                                                         monkeypatch):
        def no_design(*args, **kwargs):
            raise AssertionError("ldpc design reached the decoder design")

        monkeypatch.setattr("ibquant.cli.design_bpsk_decoder", no_design)
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "design", "--ebn0", "2.0", "--bits", bits, "--out", str(out)])
        assert exc.value.code == 2
        assert f"--bits must be 1 to 8, not {bits}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--bins", "1"], "need at least 2 bins"),
        (["--clip", "-0.5"], "clip_multiplier must be >= 0"),
        (["--ebn0", "nan"], "--ebn0 must be finite"),
        (["--ebn0", "inf"], "--ebn0 must be finite"),
        (["--ebn0=-inf"], "--ebn0 must be finite"),
        (["--rate", "0"], "code_rate must lie in (0, 1]")])
    def test_invalid_design_channel_is_usage_error(self, tmp_path, extra, message,
                                                   capsys, monkeypatch):
        def no_design(*args, **kwargs):
            raise AssertionError("ldpc design reached the decoder design")

        monkeypatch.setattr("ibquant.cli.design_bpsk_decoder", no_design)
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "design", "--ebn0", "2.0", "--bits", "3", "--out", str(out)]
                + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--bins", "1"], "need at least 2 bins"),
        (["--clip", "-0.5"], "clip_multiplier must be >= 0"),
        (["--ebn0", "2.0,nan"], "--ebn0 must be finite"),
        (["--ebn0", "inf"], "--ebn0 must be finite"),
        (["--seed", "-1"], "--seed must be >= 0"),
        (["--code-seed", "-1"], "--code-seed must be >= 0"),
        (["--max-frames", "0"], "--max-frames must be >= 1"),
        (["--max-frames", "-3"], "--max-frames must be >= 1"),
        (["--max-errors", "-1"], "--max-errors must be >= 0")])
    def test_invalid_simulate_values_are_usage_errors(self, tmp_path, extra, message,
                                                      capsys, monkeypatch):
        def no_code(*args, **kwargs):
            raise AssertionError("ldpc simulate reached the code construction")

        monkeypatch.setattr("ibquant.ldpc.construct_regular_ldpc", no_code)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "simulate", "--decoder", "bp", "--ebn0", "2.0", "--max-frames", "5",
                 "--n", "48", "--out", str(out)] + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_design_mismatch_is_usage_error(self, tmp_path):
        design_file = tmp_path / "design.txt"
        assert run(["ldpc", "design", "--dv", "3", "--dc", "6", "--bits", "3",
                    "--iters", "2", "--ebn0", "2.0", "--bins", "32",
                    "--out", str(design_file)]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "simulate", "--design", str(design_file),
                 "--decoder", "lut", "--ebn0", "2.0", "--max-frames", "10",
                 "--n", "120", "--dv", "4", "--dc", "8",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra, message", [
        (["--bins", "64"], "--bins 64 does not match the design file's 32"),
        (["--clip", "2.5"], "--clip 2.5 does not match the design file's 3.0"),
        (["--decoder", "bp"], "--decoder bp would not use them"),
        (["--decoder", "minsum"], "--decoder minsum would not use them"),
        (["--decoder", "minsum-corrected"], "--decoder minsum-corrected would not use them")])
    def test_simulate_arguments_contradicting_design_are_usage_errors(
            self, tmp_path, extra, message, capsys):
        design_file = tmp_path / "design.txt"
        assert run(["ldpc", "design", "--bits", "3", "--iters", "2", "--ebn0", "2.0",
                    "--bins", "32", "--out", str(design_file)]) == 0
        argv = ["ldpc", "simulate", "--design", str(design_file), "--ebn0", "2.0",
                "--max-frames", "5", "--n", "120", "--out", str(tmp_path / "x.csv")]
        decoder = [] if "--decoder" in extra else ["--decoder", "lut"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(argv + decoder + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_simulate_takes_bins_and_clip_from_the_design(self, tmp_path):
        design_file = tmp_path / "design.txt"
        assert run(["ldpc", "design", "--bits", "3", "--iters", "3", "--ebn0", "2.0",
                    "--bins", "32", "--clip", "2.5", "--out", str(design_file)]) == 0
        argv = ["ldpc", "simulate", "--design", str(design_file), "--decoder", "lut",
                "--ebn0", "2.0", "--max-frames", "20", "--n", "120"]
        assert run(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        assert run(argv + ["--bins", "32", "--clip", "2.5", "--bits", "3",
                           "--out", str(tmp_path / "b.csv")]) == 0
        body = [p.read_text().splitlines()[1:] for p in (tmp_path / "a.csv", tmp_path / "b.csv")]
        assert body[0] == body[1]

    def test_truncated_design_is_usage_error(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        assert run(["ldpc", "design", "--bits", "3", "--iters", "4", "--ebn0", "2.0",
                    "--bins", "32", "--out", str(design_file)]) == 0
        cut = tmp_path / "cut.txt"
        cut.write_bytes(design_file.read_bytes()[:1500])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "simulate", "--design", str(cut), "--decoder", "lut",
                 "--ebn0", "2.0", "--max-frames", "5", "--n", "120",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert str(cut) in err and "iteration 0" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("tag", DESIGN_TAGS)
    def test_a_renamed_design_tag_is_a_usage_error(self, tmp_path, capsys, tag):
        design_file = tmp_path / "design.txt"
        assert run(["ldpc", "design", "--bits", "3", "--iters", "2", "--ebn0", "2.5",
                    "--bins", "32", "--out", str(design_file)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(renamed_tag_lines(design_file.read_text().splitlines(),
                                                   tag)) + "\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "simulate", "--design", str(bad), "--decoder", "lut",
                 "--ebn0", "2.5", "--max-frames", "5", "--n", "120",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"design file {bad}" in err and f"expected a {tag} line" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("var_chain left_fold 3 2", "var_chain left_fold 4 2", "iteration 0 variable chain"),
        ("decision_map 0 0 0 0 1 1 1 1", "decision_map 0 0 0 0 2 1 1 1",
         "iteration 0 decision map"),
        ("decision_map 0 0 0 0 1 1 1 1", "decision_map 0 0 0 0 1 1 1 7",
         "iteration 0 decision map"),
        ("channel_lut 32 8", "channel_lut 31 8", "32 labels for a header of 31 inputs"),
        (None, "channel_lut 32 8", "31 labels for a header of 32 inputs"),
        (None, "channel_lut 31 8",
         "maps 31 inputs to 8 levels with a message of 8, not the channel's 32"),
    ])
    def test_design_parts_that_do_not_fit_are_usage_errors(self, tmp_path, capsys,
                                                           old, new, message):
        design_file = tmp_path / "design.txt"
        assert run(["ldpc", "design", "--bits", "3", "--iters", "2", "--ebn0", "2.5",
                    "--bins", "32", "--out", str(design_file)]) == 0
        lines = design_file.read_text().splitlines()
        if old is None:  # one channel label fewer, under the given header
            at = lines.index("channel_lut 32 8")
            lines[at + 1] = lines[at + 1].rsplit(" ", 1)[0]
            old = "channel_lut 32 8"
        lines[lines.index(old)] = new
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["ldpc", "simulate", "--design", str(bad), "--decoder", "lut",
                 "--ebn0", "2.5", "--max-frames", "5", "--n", "120",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"design file {bad}" in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_bits_contradicting_design_is_usage_error(self, tmp_path, capsys):
        design_file = tmp_path / "design.txt"
        assert run(["ldpc", "design", "--bits", "3", "--iters", "2", "--ebn0", "2.0",
                    "--bins", "32", "--out", str(design_file)]) == 0
        argv = ["ldpc", "simulate", "--design", str(design_file), "--decoder", "lut",
                "--ebn0", "2.0", "--max-frames", "5", "--n", "120"]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--bits", "4", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--bits 4" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert run(argv + ["--bits", "3", "--out", str(tmp_path / "y.csv")]) == 0
