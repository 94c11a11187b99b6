import numpy as np
import pytest

from ibquant.cli import main
from ibquant.dde import load_design
from ibquant.maxlut import load_node_lut


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

    def test_dp_on_nonbinary_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        code = run(["quantize", "--channel", "ask4", "--bins", "16",
                    "--alg", "dp", "--n", "4", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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
                                       ["--ebn0", "2.0,x"]])
    def test_unfit_code_arguments_are_usage_errors(self, tmp_path, extra, capsys):
        argv = ["ldpc", "simulate", "--decoder", "minsum", "--ebn0", "2.0",
                "--max-frames", "5", "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            run(argv + extra)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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
