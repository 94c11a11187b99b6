"""The one reader of every ibquant text file.

Each loader reads through ``_text.Reading``.  A saved file with one edit
(a line dropped, duplicated, swapped or appended, or a token replaced) must
load to an object that saves the edited file again, or raise a ValueError
that names the file.  "Again" compares numbers by value: a number spelled
otherwise than .17g, like 1e308, is saved in .17g.  Only ``_text`` opens
files, so no loader parses on its own.
"""

import ast
import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibquant import _text
from ibquant.channels import DmcSpec, build_bpsk_awgn, load_dmc, save_dmc
from ibquant.dde import design_decoder, load_design, save_design
from ibquant.info import ConditionalDist, Pmf
from ibquant.maxlut import MessageDist, NodeLut, load_node_lut, save_node_lut

SRC = Path(__file__).resolve().parent.parent / "src" / "ibquant"
HUGE = "99999999999999999999999"
# replacement tokens besides one taken from the file itself (None)
TOKENS = (None, "7", "1e308", HUGE, "-1", "nan", "inf", "x")


def random_rows(rng, shape):
    raw = rng.uniform(size=shape) ** 8  # values over many decades
    raw[:, 0] += 1e-3  # no all-zero row
    return raw / raw.sum(axis=1, keepdims=True)


def edited(lines, op, i, j, k, token):
    """The lines with one edit of the data lines: ``i`` and ``j`` pick lines and
    ``k`` a token, each modulo the count; ``token`` None takes one from the file."""
    head = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    i, j = i % len(data), j % len(data)
    if token is None:
        token = " ".join(data).split()[k % len(" ".join(data).split())]
    if op == "drop":
        del data[i]
    elif op == "duplicate":
        data.insert(i, data[i])
    elif op == "swap":
        data[i], data[j] = data[j], data[i]
    elif op == "append":
        data.append(token)
    else:
        words = data[i].split()
        words[j % len(words)] = token
        data[i] = " ".join(words)
    return head + data


def by_value(text):
    """Each line's tokens, with every number but NaN as its float value."""
    def value(token):
        try:
            number = float(token)
        except ValueError:
            return token
        return token if number != number else number
    return [[value(token) for token in line.split()] for line in text.splitlines()]


def assert_loads_as_written_or_names_the_file(obj, save, load, op, i, j, k, token):
    with tempfile.TemporaryDirectory() as tmp:
        first, bad, again = Path(tmp, "a.txt"), Path(tmp, "edited.txt"), Path(tmp, "b.txt")
        save(obj, first, comment="mutation test")
        lines = edited(first.read_text().splitlines(), op, i, j, k, token)
        bad.write_text("\n".join(lines) + "\n")
        try:
            loaded = load(bad)
        except ValueError as exc:
            assert str(bad) in str(exc)
            return
        save(loaded, again, comment="mutation test")
        assert by_value(again.read_text()) == by_value(bad.read_text())


edits = dict(op=st.sampled_from(["drop", "duplicate", "swap", "append", "replace"]),
             i=st.integers(0, 2**16), j=st.integers(0, 2**16), k=st.integers(0, 2**16),
             token=st.sampled_from(TOKENS))


@functools.lru_cache(maxsize=None)
def small_design(ebn0, bins, bits, iters):
    return design_decoder(build_bpsk_awgn(ebn0, 0.5, bins), 3, 6, bits, iters)


class TestMutatedFiles:
    @settings(max_examples=150, deadline=None)
    @given(params=st.sampled_from([(2.0, 8, 1, 2), (1.0, 16, 2, 3), (3.0, 16, 2, 1)]),
           **edits)
    @example(params=(1.0, 16, 2, 3), op="replace", i=3, j=2, k=0, token=HUGE)  # a label
    @example(params=(1.0, 16, 2, 3), op="append", i=0, j=0, k=0, token="x")
    @example(params=(1.0, 16, 2, 3), op="replace", i=0, j=1, k=0, token="2")  # 2 of 3 iterations
    def test_design(self, params, op, i, j, k, token):
        assert_loads_as_written_or_names_the_file(small_design(*params), save_design,
                                                  load_design, op, i, j, k, token)

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
           seed=st.integers(0, 2**32 - 1), **edits)
    @example(shape=(2, 2, 2), seed=0, op="replace", i=1, j=0, k=0, token=HUGE)  # an entry
    @example(shape=(2, 2, 2), seed=0, op="append", i=0, j=0, k=0, token=None)
    def test_node_lut(self, shape, seed, op, i, j, k, token):
        nl, nz, nv = shape
        rng = np.random.default_rng(seed)
        lut = NodeLut(rng.integers(0, nv, (nl, nz)),
                      MessageDist(ConditionalDist(random_rows(rng, (2, nv)))))
        assert_loads_as_written_or_names_the_file(lut, save_node_lut, load_node_lut,
                                                  op, i, j, k, token)

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
           seed=st.integers(0, 2**32 - 1), **edits)
    @example(shape=(2, 3), seed=0, op="append", i=0, j=0, k=0, token="0.5")
    def test_dmc(self, shape, seed, op, i, j, k, token):
        num_in, num_out = shape
        rng = np.random.default_rng(seed)
        dmc = DmcSpec(rng.standard_normal(num_in), ConditionalDist(random_rows(rng, shape)),
                      Pmf(rng.dirichlet(np.ones(num_in))))
        assert_loads_as_written_or_names_the_file(dmc, save_dmc, load_dmc, op, i, j, k, token)


class TestReading:
    @pytest.mark.parametrize("token, value", [
        ("9223372036854775807", 2**63 - 1), ("-9223372036854775808", -2**63)])
    def test_int64_takes_its_range(self, token, value):
        assert _text.int64(token) == value

    @pytest.mark.parametrize("token", ["9223372036854775808", "-9223372036854775809", HUGE])
    def test_int64_names_a_value_outside_its_range(self, token):
        with pytest.raises(ValueError, match=f"^{token} is outside int64$"):
            _text.int64(token)

    def test_reads_each_line_once_and_checks_the_end(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# note\nhead 1 2\n\n  0.5 0.25\nword 3\n")
        with pytest.raises(ValueError, match=f"^test file {path}: data after the body: "
                                             "'word 3'$"):
            with _text.Reading("test", path, "header") as reading:
                assert reading.comments == ["# note"]
                assert reading.ints("head", 2) == [1, 2]
                reading.section = "body"
                assert reading.numbers(count=2).tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("line, message", [
        ("head 1", "malformed header: expected 2 values, got 1"),
        ("head 1 2 3", "malformed header: expected 2 values, got 3"),
        ("tail 1 2", "malformed header: expected a head line, got 'tail 1 2'"),
        ("head 0 2", "malformed header: header 'head 0 2' has a count below 1"),
        (f"head 1 {HUGE}", f"malformed header: {HUGE} is outside int64"),
        ("head 1 2.0", "malformed header: invalid literal for int.*'2.0'")])
    def test_a_bad_header_names_the_file(self, tmp_path, line, message):
        path = tmp_path / "f.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=f"^test file {path}: {message}"):
            with _text.Reading("test", path, "header") as reading:
                reading.ints("head", 2)


def file_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "read_text", "write_text", "read_bytes", "write_bytes",
                        "loadtxt", "savetxt", "genfromtxt"):
                yield f"{name} at line {node.lineno}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_text_reads_and_writes_files(module):
    calls = list(file_calls(ast.parse((SRC / module).read_text())))
    if module == "_text.py":
        assert calls, "the reader and writer of every file opens none"
    else:
        assert not calls, f"{module} reads or writes a file itself: {calls}"
