"""File formats (SDPA, instance JSON, traces) and the command-line frontend."""

import functools
import json
import math
import pathlib
import random

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import swathscale as sw
import swathscale.cli
import swathscale.diagnostics
import swathscale.errors
import swathscale.generate
import swathscale.hyperbolic
from swathscale.cli import _load_problem, main
from swathscale.errors import (
    DomainError, InvariantViolation, NumericalFailure, ParseError, RetryExhausted,
)

from conftest import ESYM_TINY_LEADING

SAMPLE_SDPA = """\
"a comment line
2
1
2
2.0 1.5
0 1 1 1 1.0
0 1 2 2 2.0
1 1 1 1 1.0
1 1 2 2 1.0
2 1 1 2 0.70710678118654752
"""


# The three line endings of SDPA text, and their test ids.
NEWLINES, NEWLINE_IDS = ["\n", "\r\n", "\r"], ["lf", "crlf", "cr"]
# The characters other than LF and CR at which str.splitlines breaks a
# line; in SDPA text none of them ends a line.
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
TOO_LARGE = "block sizes too large: cannot allocate"

# Every typed error of the package, and OSError.
RAISED_ERRORS = [
    obj for obj in vars(swathscale.errors).values()
    if isinstance(obj, type) and issubclass(obj, sw.SwathscaleError)
    and obj is not sw.SwathscaleError
] + [OSError]
INSTANCE_OPTIONS = {
    "solve": [],
    "reduce-alpha": ["--alpha0", "0.9", "--target", "0.3"],
    "validate": ["--checks", "fd"],
}
# (command, module, name rebound to raise, whether the solve has started).
STAGES = [
    ("solve", swathscale.cli, "_load_problem", False),
    ("solve", swathscale.cli, "run", True),
    ("reduce-alpha", swathscale.cli, "_load_problem", False),
    ("reduce-alpha", swathscale.cli, "alpha_reduction_run", True),
    ("validate", swathscale.cli, "_load_problem", False),
    ("validate", swathscale.diagnostics, "fd_check", True),
    ("generate", swathscale.generate, "gen_central_path_sdp", False),
]

# (mutation of file line 6, line, message); the test id is "mutation-line".
ENTRY_ERRORS = [
    ("0 1 1 1", 6, "entry lines need 'matno blkno i j value'"),
    ("0 1 2 1 1.0", 6, "indices (2, 1) not upper-triangular within block size 2"),
    ("9 1 1 1 1.0", 6, "matrix number 9 outside 0..2"),
    ("0 7 1 1 1.0", 6, "block number 7 outside 1..1"),
    # no values once braces count as spaces
    ("{ }", 6, "entry lines need 'matno blkno i j value'"),
    # digit separators are not accepted
    ("0 1 1 1 1_0", 6, "malformed entry line"),
    # indices are read as 64-bit integers: a wide one is checked for range,
    # and only one beyond int64 fails to convert
    ("99999999999 1 1 1 1.0", 6, "matrix number 99999999999 outside 0..2"),
    ("0 1 1 99999999999999999999 1.0", 6, "malformed entry line"),
    # ASCII whitespace alone separates numbers; U+2009 is a thin space
    ("0 1\u20091 1 1.0", 6, "malformed entry line"),
]


class TestSdpaParser:
    def test_sample(self):
        inst = sw.parse_sdpa(SAMPLE_SDPA)
        assert inst.n == 2 and inst.m == 2
        assert np.allclose(inst.C, np.diag([1.0, 2.0]))
        assert np.allclose(inst.constraints[0], np.eye(2))
        # off-diagonal entries mirror symmetrically
        assert inst.constraints[1][0, 1] == inst.constraints[1][1, 0]
        assert np.allclose(inst.b, [2.0, 1.5])

    def test_braces_and_commas_tolerated(self):
        text = SAMPLE_SDPA.replace("2.0 1.5", "{2.0, 1.5}")
        inst = sw.parse_sdpa(text)
        assert np.allclose(inst.b, [2.0, 1.5])

    def test_multiblock_concatenation(self):
        text = """\
1
2
2 -1
3.0
0 1 1 1 1.0
0 2 1 1 5.0
1 1 1 1 1.0
1 1 2 2 1.0
1 2 1 1 1.0
"""
        inst = sw.parse_sdpa(text)
        assert inst.n == 3
        assert inst.C[2, 2] == 5.0
        assert inst.metadata["block_sizes"] == [2, -1]

    # The LF cases keep the id "mutation-line"; the others add the ending.
    @pytest.mark.parametrize(
        "mutation, lineno, message, newline",
        [(*case, newline) for newline in NEWLINES for case in ENTRY_ERRORS],
        ids=[
            f"{mutation}-{lineno}" + ("" if newline == "\n" else f"-{name}")
            for newline, name in zip(NEWLINES, NEWLINE_IDS)
            for mutation, lineno, _ in ENTRY_ERRORS
        ],
    )
    def test_entry_errors_carry_line_numbers(self, mutation, lineno, message, newline):
        lines = SAMPLE_SDPA.splitlines()
        lines[5] = mutation
        with pytest.raises(ParseError) as err:
            sw.parse_sdpa(newline.join(lines))
        assert str(err.value) == f"line {lineno}: {message}"
        assert err.value.line == lineno

    def test_diagonal_block_rejects_off_diagonal(self):
        text = """\
1
1
-2
1.0
0 1 1 2 1.0
1 1 1 1 1.0
"""
        with pytest.raises(ParseError):
            sw.parse_sdpa(text)

    def test_missing_constraint_entries(self):
        lines = [l for l in SAMPLE_SDPA.splitlines() if not l.startswith("2 ")]
        with pytest.raises(ParseError):
            sw.parse_sdpa("\n".join(lines))

    def test_roundtrip_bit_exact(self):
        inst, _ = sw.gen_central_path_sdp(4, 6, 1.0, 3)
        again = sw.parse_sdpa(sw.write_sdpa(inst))
        assert np.array_equal(inst.C, again.C)
        assert np.array_equal(inst.b, again.b)
        for A1, A2 in zip(inst.constraints, again.constraints):
            assert np.array_equal(A1, A2)


def reference_write_sdpa(inst):
    """The entry-by-entry writer that ``write_sdpa`` must match byte for byte."""
    n = inst.n
    block_sizes = inst.metadata.get("block_sizes", [n])
    if sum(abs(size) for size in block_sizes) != n:
        block_sizes = [n]
    offsets = np.concatenate([[0], np.cumsum([abs(s) for s in block_sizes])])

    out = [str(inst.m), str(len(block_sizes)), " ".join(str(s) for s in block_sizes)]
    out.append(" ".join(f"{v:.17g}" for v in inst.b))

    def emit(matno, M):
        for blk, size in enumerate(block_sizes, start=1):
            lo, hi = int(offsets[blk - 1]), int(offsets[blk])
            for i in range(lo, hi):
                for j in range(i, hi):
                    if size < 0 and i != j:
                        if M[i, j] != 0.0:
                            raise InvariantViolation(
                                "off-diagonal entry inside a diagonal block"
                            )
                        continue
                    if M[i, j] != 0.0:
                        out.append(
                            f"{matno} {blk} {i - lo + 1} {j - lo + 1} {M[i, j]:.17g}"
                        )

    emit(0, inst.C)
    for k, A in enumerate(inst.constraints, start=1):
        emit(k, A)
    return "\n".join(out) + "\n"


# Magnitudes up to 1e3 keep the rank tolerance of SdpInstance.validate
# (1e-8 of the largest entry) below the pivots; the range includes -0.0
# and subnormals.
_ENTRY_VALUES = st.floats(-1e3, 1e3)
_PIVOT_VALUES = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)


@st.composite
def sdpa_instances(draw):
    """Valid multi-block instances with sparse matrices.

    Each matrix owns a pivot position where every other matrix is zero,
    so the constraints are independent and C lies off their span.
    """
    block_sizes = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=3))
    positions, lo = [], 0
    for size in block_sizes:
        width = abs(size)
        for i in range(width):
            positions += [(lo + i, lo + j) for j in (range(i, i + 1) if size < 0 else range(i, width))]
        lo += width
    n = lo
    if len(positions) < 2:
        block_sizes, positions, n = [2], [(0, 0), (0, 1), (1, 1)], 2
    m = draw(st.integers(1, min(len(positions) - 1, 5)))
    pivots = draw(st.permutations(positions))[: m + 1]
    mats = []
    for k in range(m + 1):
        M = np.zeros((n, n))
        for r, s in draw(st.lists(st.sampled_from(positions), max_size=6)):
            M[r, s] = M[s, r] = draw(_ENTRY_VALUES)
        for q, (r, s) in enumerate(pivots):
            M[r, s] = M[s, r] = draw(_PIVOT_VALUES) if q == k else 0.0
        mats.append(M)
    b = np.array(draw(st.lists(_ENTRY_VALUES, min_size=m, max_size=m)))
    b[draw(st.integers(0, m - 1))] = draw(_PIVOT_VALUES)
    return sw.SdpInstance(
        C=mats[0], constraints=mats[1:], b=b, metadata={"block_sizes": block_sizes}
    )


def assert_same_instance(inst, other):
    assert other.metadata["block_sizes"] == inst.metadata["block_sizes"]
    for M, again in zip([inst.C, *inst.constraints, inst.b],
                        [other.C, *other.constraints, other.b]):
        assert again.tobytes() == M.tobytes()


@functools.cache
def big_sdpa_lines():
    """An n=20, m=40 instance: about 8.6k entry lines, several 64 KiB chunks."""
    inst, _ = sw.gen_central_path_sdp(20, 40, 1.0, 0)
    return tuple(sw.write_sdpa(inst).splitlines())


class TestSdpaBulk:
    """The bulk reader and writer against the entry-by-entry behaviour."""

    @settings(max_examples=150, deadline=None)
    @given(sdpa_instances())
    def test_write_matches_reference_and_round_trips(self, inst):
        text = sw.write_sdpa(inst)
        assert text == reference_write_sdpa(inst)
        again = sw.parse_sdpa(text)
        assert again.metadata["block_sizes"] == inst.metadata["block_sizes"]
        assert again.b.tobytes() == inst.b.tobytes()
        for M, back in zip([inst.C, *inst.constraints], [again.C, *again.constraints]):
            # A -0.0 entry is not written, so it reads back as +0.0.
            assert back.tobytes() == (M + 0.0).tobytes()

    def test_write_falls_back_to_one_block_on_stale_sizes(self):
        # Block sizes that no longer sum to the order give one dense block.
        inst, _ = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        inst.metadata["block_sizes"] = [2, 2]
        text = sw.write_sdpa(inst)
        assert text.splitlines()[2] == "3"
        back = sw.parse_sdpa(text)
        assert back.metadata["block_sizes"] == [3]
        for M, N in zip([inst.C, *inst.constraints], [back.C, *back.constraints]):
            assert np.array_equal(M, N)

    def test_write_rejects_off_diagonal_in_diagonal_block(self):
        C = np.diag([1.0, 2.0, 3.0])
        A = np.eye(3)
        A[1, 2] = A[2, 1] = 0.5
        inst = sw.SdpInstance(
            C=C, constraints=[A], b=np.array([1.0]), metadata={"block_sizes": [1, -2]}
        )
        with pytest.raises(InvariantViolation, match="off-diagonal"):
            sw.write_sdpa(inst)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("9 1 1 1 1.0", "0 1 1 1", "matrix number 9 outside 0..2"),
            ("0 1 1 1", "9 1 1 1 1.0", "entry lines need"),
            ("0 1 2 1 1.0", "x 1 1 1 1.0", r"indices \(2, 1\) not upper-triangular"),
        ],
        ids=["range-then-arity", "arity-then-range", "triangle-then-malformed"],
    )
    def test_earlier_of_two_bad_lines_is_reported(self, first, second, message):
        lines = SAMPLE_SDPA.splitlines()
        lines[6], lines[8] = first, second
        with pytest.raises(ParseError, match=f"^line 7: {message}"):
            sw.parse_sdpa("\n".join(lines))

    @pytest.mark.parametrize("late_kind", ["range", "malformed"])
    def test_earlier_bad_line_wins_across_chunks(self, late_kind):
        # About 8.6k entry lines, so the two bad lines are chunks apart.
        inst, _ = sw.gen_central_path_sdp(20, 40, 1.0, 0)
        lines = sw.write_sdpa(inst).splitlines()
        lines[99] = "0 1 3 2 1.0"
        lines[-20] = "1.5 1 1 1 1.0" if late_kind == "malformed" else "99 1 1 1 1.0"
        with pytest.raises(ParseError, match="^line 100: indices"):
            sw.parse_sdpa("\n".join(lines))
        lines[99] = "0 1 2 2 1.0"
        message = "malformed" if late_kind == "malformed" else "matrix number 99"
        with pytest.raises(ParseError, match=f"^line {len(lines) - 19}: {message}"):
            sw.parse_sdpa("\n".join(lines))

    @pytest.mark.parametrize("newline", NEWLINES, ids=NEWLINE_IDS)
    @pytest.mark.parametrize(
        "filler",
        [["", '"quoted note', "* starred note", "   ", "# hashed note"], ["", "   "]],
        ids=["comments-and-blanks", "blanks-only"],
    )
    def test_line_numbers_count_comment_and_blank_lines(self, filler, newline):
        inst, _ = sw.gen_central_path_sdp(20, 40, 1.0, 0)
        lines = sw.write_sdpa(inst).splitlines()
        lines[4000] = "0 1 1 1 1.0 extra"
        # Filler lines among the entries, before and within the chunk that
        # holds the bad line.
        for at in (3000, 10, 6, 3990):
            lines[at:at] = filler
        bad = lines.index("0 1 1 1 1.0 extra") + 1
        with pytest.raises(ParseError, match=f"^line {bad}: entry lines need"):
            sw.parse_sdpa(newline.join(lines))

    def test_non_ascii_entry_is_malformed(self):
        # NumPy's integer reader takes some non-ASCII letters for digits.
        lines = SAMPLE_SDPA.splitlines()
        lines[5] = "0 1 1 \u01fe 1.0"
        with pytest.raises(ParseError, match="^line 6: malformed entry line$"):
            sw.parse_sdpa("\n".join(lines))

    def test_float_matrix_number_is_an_error(self):
        lines = SAMPLE_SDPA.splitlines()
        lines[7] = "1.0 1 1 1 1.0"
        with pytest.raises(ParseError, match="^line 8: malformed entry line"):
            sw.parse_sdpa("\n".join(lines))

    def test_trailing_hash_is_not_a_comment(self):
        lines = SAMPLE_SDPA.splitlines()
        lines[5] += " # note"
        with pytest.raises(ParseError, match="^line 6: entry lines need"):
            sw.parse_sdpa("\n".join(lines))

    def test_duplicate_position_keeps_last_value(self):
        text = SAMPLE_SDPA + "0 1 1 1 7.0\n2 1 1 2 0.25\n0 1 1 1 3.0\n"
        inst = sw.parse_sdpa(text)
        assert inst.C[0, 0] == 3.0
        assert inst.constraints[1][0, 1] == inst.constraints[1][1, 0] == 0.25

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_input_parses(self, newline):
        plain = sw.parse_sdpa(SAMPLE_SDPA)
        other = sw.parse_sdpa(SAMPLE_SDPA.replace("\n", newline))
        for M, again in zip([plain.C, *plain.constraints], [other.C, *other.constraints]):
            assert np.array_equal(M, again)
        assert np.array_equal(plain.b, other.b)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_only_lf_cr_and_crlf_end_a_line(self, data):
        # Any mix of endings, and comment lines that hold the other
        # characters str.splitlines breaks at, parse as the LF text does,
        # and a bad entry is reported at its file line.
        lines = list(big_sdpa_lines())
        assert len("\n".join(lines)) > 2 * sw.sdpa._CHUNK_CHARS
        plain = sw.parse_sdpa("\n".join(lines))
        bad_at = data.draw(st.integers(4, len(lines) - 1), label="bad entry index")
        marker = lines[bad_at] + " extra"
        lines[bad_at] = marker
        notes = st.text(st.sampled_from(["x", " ", *OTHER_BREAKS]), max_size=4)
        comments = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(lines)), st.sampled_from(['"', "*", "#"]),
                    notes, st.sampled_from(OTHER_BREAKS), notes,
                ),
                min_size=1, max_size=6,
            ),
            label="comments",
        )
        for at, prefix, before, brk, after in comments:
            lines.insert(at, prefix + before + brk + after)
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="endings seed"))
        endings = rnd.choices(NEWLINES, k=len(lines))
        bad = lines.index(marker)
        with pytest.raises(ParseError) as err:
            sw.parse_sdpa("".join(map(str.__add__, lines, endings)))
        assert str(err.value) == f"line {bad + 1}: entry lines need 'matno blkno i j value'"
        lines[bad] = marker.removesuffix(" extra")
        assert_same_instance(plain, sw.parse_sdpa("".join(map(str.__add__, lines, endings))))

    @pytest.mark.parametrize("brk", OTHER_BREAKS, ids=[hex(ord(c)) for c in OTHER_BREAKS])
    def test_other_breaks_stay_inside_a_line(self, brk):
        plain = sw.parse_sdpa(SAMPLE_SDPA)
        lines = SAMPLE_SDPA.splitlines()
        lines[0] = f'"a comment{brk}line{brk}'
        assert_same_instance(plain, sw.parse_sdpa("\n".join(lines)))
        # A comment line that ends in one moves no later line number.
        lines.insert(3, f"* note{brk}")
        lines[7] = "9 1 1 1 1.0"
        with pytest.raises(ParseError, match="^line 8: matrix number 9 outside 0..2$"):
            sw.parse_sdpa("\n".join(lines))
        # Between two numbers of an entry line numpy's reader takes an
        # ASCII one for a space; a line with a non-ASCII one is malformed.
        lines = SAMPLE_SDPA.splitlines()
        lines[5] = f"0 1 1 1{brk}1.0"
        if brk.isascii():
            assert_same_instance(plain, sw.parse_sdpa("\n".join(lines)))
        else:
            with pytest.raises(ParseError, match="^line 6: malformed entry line$"):
                sw.parse_sdpa("\n".join(lines))

    def test_header_without_entries(self):
        header = "\n".join(SAMPLE_SDPA.splitlines()[:5]) + "\n"
        with pytest.raises(ParseError, match="^constraint matrix 1 has no entries$"):
            sw.parse_sdpa(header)

    @pytest.mark.parametrize(
        "text, what",
        [
            ("", "the number of constraints"),
            ("2\n", "the number of blocks"),
            ("2\n1\n", "the block sizes"),
            ("2\n1\n3\n", "the right-hand-side vector"),
        ],
        ids=["empty", "after-m", "after-nblocks", "after-block-sizes"],
    )
    def test_truncated_header(self, text, what):
        message = f"^unexpected end of file while reading {what}$"
        with pytest.raises(ParseError, match=message):
            sw.parse_sdpa(text)

    @pytest.mark.parametrize(
        "index, line, message",
        [
            (1, "0", "need at least one constraint, got 0"),
            (1, "2_0", "expected the number of constraint matrices"),
            (1, "\u0662", "expected the number of constraint matrices"),
            (2, "x", "expected the number of blocks"),
            (2, "0", "need at least one block, got 0"),
            (3, "2.5", "block sizes must be integers"),
            (3, "2_0", "block sizes must be integers"),
            (3, "2 1", "expected 1 block sizes, got 2"),
            (3, "0", "block sizes must be nonzero"),
            # ASCII whitespace alone separates numbers; U+2009 is a thin space
            (3, "2\u20091", "block sizes must be integers"),
            # Sizes that numpy refuses before it allocates anything: an
            # order beyond its limits, and 3 matrices of order 1e9, one of
            # which has a byte count within int64 but not all three.
            (3, "99999999999", f"{TOO_LARGE} 3 matrices of order 99999999999"),
            (3, "-99999999999", f"{TOO_LARGE} 3 matrices of order 99999999999"),
            (3, "1000000000", f"{TOO_LARGE} 3 matrices of order 1000000000"),
            (4, "2.0 x", "right-hand-side entries must be numbers"),
            (4, "2.0 1_5", "right-hand-side entries must be numbers"),
            (4, "2.0\u20091.5", "right-hand-side entries must be numbers"),
            (4, "2.0", "expected 2 right-hand-side values, got 1"),
        ],
        ids=[
            "m-zero", "m-separator", "m-non-ascii", "nblocks-word", "nblocks-zero",
            "sizes-fraction", "sizes-separator", "sizes-count", "sizes-zero",
            "sizes-thin-space", "sizes-too-large", "sizes-too-large-diagonal",
            "sizes-bytes-overflow", "rhs-word", "rhs-separator", "rhs-thin-space",
            "rhs-count",
        ],
    )
    def test_bad_header_line(self, index, line, message):
        # Header numbers follow the entry lines' rule: Python's int and
        # float would read "2_0" as 20 and an Arabic-Indic digit as 2.
        lines = SAMPLE_SDPA.splitlines()
        lines[index] = line
        with pytest.raises(ParseError) as err:
            sw.parse_sdpa("\n".join(lines))
        assert str(err.value) == f"line {index + 1}: {message}"

    def test_header_notes_after_counts(self):
        text = SAMPLE_SDPA.replace("\n2\n1\n", "\n2 = mDIM\n1 = nBLOCK\n", 1)
        assert text != SAMPLE_SDPA
        plain, noted = sw.parse_sdpa(SAMPLE_SDPA), sw.parse_sdpa(text)
        for M, again in zip([plain.C, *plain.constraints], [noted.C, *noted.constraints]):
            assert np.array_equal(M, again)


class TestHpJson:
    def test_roundtrip_bit_exact(self):
        inst, _ = sw.gen_hp_instance(sw.elementary_symmetric_family(6, 3), 3, 1.0, 1)
        text = sw.write_hp_json(inst, metadata={"tag": 1})
        doc = json.loads(text)
        for key in ("c", "A", "b", "e0"):
            assert np.array_equal(np.array(doc[key]), getattr(inst, key))
        assert doc["metadata"] == {"tag": 1}
        # One row of A per line.
        lines = text.splitlines()
        for row in inst.A:
            assert sum(line.strip().rstrip(",") == json.dumps(row.tolist()) for line in lines) == 1
        again = sw.read_hp_json(text)
        assert again.family == inst.family
        assert np.array_equal(again.c, inst.c)
        assert np.array_equal(again.A, inst.A)
        assert np.array_equal(again.b, inst.b)
        assert np.array_equal(again.e0, inst.e0)

    def test_malformed_raises(self):
        with pytest.raises(ParseError):
            sw.read_hp_json("{not json")
        with pytest.raises(ParseError):
            sw.read_hp_json(json.dumps({"family": {"name": "nope", "d": 3}}))

    @pytest.mark.parametrize("family", [
        {"name": "product", "d": True},
        {"name": "elementary_symmetric", "d": 4, "k": True},
        {"name": "product", "d": 5.7},
    ], ids=["bool-d", "bool-k", "float-d"])
    def test_family_parameters_must_be_integers(self, family):
        # JSON true parses as a bool, which is a Python int: it is rejected
        # as no integer, not read as d = 1 or k = 1.
        doc = {"family": family, "c": [1.0], "A": [[1.0]], "b": [1.0], "e0": [1.0]}
        with pytest.raises(ParseError, match="family d and k must be integers"):
            sw.read_hp_json(json.dumps(doc))

    def test_start_point_roundtrip(self):
        _, E0 = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        text = sw.write_start_point(E0)
        assert np.array_equal(np.array(json.loads(text)["E0"]), E0)
        again = sw.read_start_point(text)
        assert np.allclose(again, E0, atol=0)


class TestTracefile:
    def run_result(self):
        inst, E0 = sw.gen_central_path_sdp(4, 6, 1.0, 0)
        oracle = sw.det_barrier_oracle(4)
        config = sw.SolverConfig()
        res = sw.run(
            oracle, inst.constraint_rows(), inst.b, sw.svec(inst.C), sw.svec(E0), config
        )
        header = sw.trace_header("t", "sdp", config, 4, 6)
        return res, header

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip_bit_exact(self, fmt):
        res, header = self.run_result()
        doc = sw.parse_trace(sw.export_trace(res, header, fmt))
        assert len(doc["rows"]) == res.iterations
        for row, rec in zip(doc["rows"], res.trace):
            assert row["k"] == rec.k
            assert row["gap"] == rec.gap  # exact float equality through text
            assert row["qtilde_a"] == rec.qtilde_a
        assert doc["footer"]["status"] == res.status.value
        assert doc["header"]["alpha"] == 0.5

    def test_unknown_format_is_domain_error(self):
        res, header = self.run_result()
        with pytest.raises(DomainError, match="unknown trace format 'xml'"):
            sw.export_trace(res, header, "xml")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            sw.parse_trace("")
        res, header = self.run_result()
        text = sw.export_trace(res, header, "csv")
        lines = text.splitlines()
        # A number, so that the cell parses and the width check is what fails.
        lines[len(header) + 1] += ",1.5"
        with pytest.raises(ParseError, match="trace row width mismatch") as err:
            sw.parse_trace("\n".join(lines))
        assert err.value.line == len(header) + 2
        with pytest.raises(ParseError, match="bad metadata line in trace") as err:
            sw.parse_trace("# a=[1\nk,gap\n")
        assert err.value.line == 1
        with pytest.raises(ParseError, match="bad trace JSON"):
            sw.parse_trace("{")

    def test_cell_that_is_not_a_number_names_its_line(self):
        with pytest.raises(ParseError) as err:
            sw.parse_trace("k,gap\n1,abc\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("cell", ['"abc"', "null", "[1,2]", "true", '{"a":1}'])
    def test_cell_that_is_json_but_not_a_number_names_its_line(self, cell):
        # Every cell is a number; a bool is not one, although Python's bool
        # is an int.
        with pytest.raises(ParseError) as err:
            sw.parse_trace(f"k,gap\n0,1.5\n1,{cell}\n")
        assert err.value.line == 3

    def test_non_finite_cells_parse(self):
        # export_trace writes a non-finite float as JSON's NaN or Infinity.
        rows = [{"k": 0, "gap": math.inf}, {"k": 1, "gap": -math.inf}, {"k": 2, "gap": math.nan}]
        csv_text = "k,gap\n0,Infinity\n1,-Infinity\n2,NaN\n"
        json_text = json.dumps({"header": {}, "rows": rows, "footer": {}})
        for text in (csv_text, json_text):
            gaps = [row["gap"] for row in sw.parse_trace(text)["rows"]]
            assert gaps[:2] == [math.inf, -math.inf] and math.isnan(gaps[2])

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": 3},
            {"header": {}, "rows": [], "footer": []},
            {"header": [], "rows": [], "footer": {}},
            {"header": {}, "rows": [{"k": 0}, 1.5], "footer": {}},
            {"header": {}, "rows": {"k": 0}, "footer": {}},
            {"header": {}, "rows": []},
            {"header": {}, "rows": [{"k": "x", "gap": None}], "footer": {}},
            {"header": {}, "rows": [{"k": 0, "gap": 1.5}, {"k": True}], "footer": {}},
            {"header": {}, "rows": [{"k": 0, "gap": [1.5]}], "footer": {}},
        ],
    )
    def test_json_document_that_is_not_a_trace(self, doc):
        with pytest.raises(ParseError):
            sw.parse_trace(json.dumps(doc))

    def test_earlier_layout_parses_bit_exact(self):
        # Traces were written with 17-significant-digit CSV cells, read back
        # by a per-column int()/float() rule, and as an indent=2 JSON
        # document; both still parse to the values of the run, bit for bit.
        res, header = self.run_result()
        footer = sw.trace_footer(res)
        values = [
            [rec.k, rec.alpha, rec.gap, rec.t, rec.x_norm_e, rec.primal_obj,
             rec.dual_obj, rec.qtilde_a, rec.qtilde_b, rec.qtilde_c, rec.wallclock]
            for rec in res.trace
        ]
        fields = ("k", "alpha", "gap", "t", "x_norm_e", "primal_obj", "dual_obj",
                  "qtilde_a", "qtilde_b", "qtilde_c", "wallclock")
        lines = [f"# {key}={json.dumps(value)}" for key, value in header.items()]
        lines.append(",".join(fields))
        lines += [
            ",".join(str(v) if isinstance(v, int) else f"{v:.17g}" for v in row)
            for row in values
        ]
        lines += [f"# {key}={json.dumps(value)}" for key, value in footer.items()]
        csv_text = "\n".join(lines) + "\n"
        json_text = json.dumps(
            {"header": header, "rows": [dict(zip(fields, row)) for row in values],
             "footer": footer},
            indent=2,
        ) + "\n"
        for text in (csv_text, json_text):
            doc = sw.parse_trace(text)
            assert doc["header"] == header and doc["footer"] == footer
            assert [[row[name] for name in fields] for row in doc["rows"]] == values
            for row, want in zip(doc["rows"], values):
                assert [float(row[name]).hex() for name in fields] == [
                    float(v).hex() for v in want
                ]


def indefinite_start(inst, E0):
    """A start on A e = b but not positive definite: far from E0 along a
    null direction of the constraints."""
    null = np.linalg.svd(inst.constraint_rows())[2][-1]
    D = sw.smat(null)
    if np.linalg.eigvalsh(D)[0] >= 0.0:
        D = -D
    E = E0 + (2.0 * np.linalg.eigvalsh(E0)[-1] / -np.linalg.eigvalsh(D)[0]) * D
    assert np.linalg.eigvalsh(E)[0] < 0.0
    return E


class TestSameVerdict:
    """An SDPA file with its start sidecar and the same data as a
    determinant-family HP instance fail the same check, with the same
    error."""

    @staticmethod
    def break_instance(kind):
        inst, E0 = sw.gen_central_path_sdp(4, 6, 1.0, 0)
        A, b, C = list(inst.constraints), inst.b.copy(), inst.C.copy()
        E = E0
        if kind == "non-finite":
            C[0, 0] = float("inf")
        elif kind == "zero-b":
            b[:] = 0.0
        elif kind == "dependent":
            A[-1], b[-1] = 2.0 * A[0], 2.0 * b[0]
        elif kind == "objective-in-span":
            C = A[0] - 3.0 * A[1]
        elif kind == "start-off-affine":
            E = 2.0 * E0
        else:
            E = indefinite_start(inst, E0)
        return sw.SdpInstance(C=C, constraints=A, b=b), E

    @pytest.mark.parametrize(
        "kind",
        [
            "non-finite", "zero-b", "dependent", "objective-in-span",
            "start-off-affine", "start-not-pd",
        ],
    )
    def test_sdpa_and_hp_checks_agree(self, tmp_path, kind):
        inst, E = self.break_instance(kind)
        path = tmp_path / "bad.dat-s"
        path.write_text(sw.write_sdpa(inst))
        (tmp_path / "bad.start.json").write_text(sw.write_start_point(E))
        with pytest.raises(sw.SwathscaleError) as sdpa_err:
            _load_problem(path)
        hp = sw.HpInstance(
            family=sw.determinant_family(inst.n), c=sw.svec(inst.C),
            A=inst.constraint_rows(), b=inst.b, e0=sw.svec(E),
        )
        with pytest.raises(sw.SwathscaleError) as hp_err:
            hp.validate()
        assert type(sdpa_err.value) is type(hp_err.value) is InvariantViolation
        assert str(sdpa_err.value) == str(hp_err.value)


class TestCli:
    def test_generate_solve_roundtrip(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        r = runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0", "--out", str(out)]
        )
        assert r.exit_code == 0, r.output
        assert out.exists() and (tmp_path / "inst.start.json").exists()

        trace = tmp_path / "trace.json"
        r = runner.invoke(main, ["solve", str(out), "--trace", str(trace)])
        assert r.exit_code == 0, r.output
        assert "status=converged" in r.output
        doc = sw.parse_trace(trace.read_text())
        assert doc["footer"]["status"] == "converged"

    def test_trace_format_follows_the_suffix(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0", "--out", str(out)]
        )
        docs = {}
        for name in ("t.json", "t.csv"):
            r = runner.invoke(main, ["solve", str(out), "--trace", str(tmp_path / name)])
            assert r.exit_code == 0, r.output
            text = (tmp_path / name).read_text()
            assert text.startswith("{") == (name == "t.json")
            docs[name] = sw.parse_trace(text)
        as_json, as_csv = docs["t.json"], docs["t.csv"]
        assert len(as_json["rows"]) == len(as_csv["rows"]) > 0
        for a, b in zip(as_json["rows"], as_csv["rows"]):
            assert a.keys() == b.keys()
            assert {k: v for k, v in a.items() if k != "wallclock"} == {
                k: v for k, v in b.items() if k != "wallclock"
            }
        assert as_json["header"] == as_csv["header"]
        assert as_json["footer"] == as_csv["footer"]

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "{lp}", "--alpha", "abc"],
            ["solve", "{lp}", "--bogus"],
            ["solve", "{dir}/missing.json"],
            ["generate", "sdp", "--n", "3", "--m", "2", "--out", "{dir}/x"],
            ["generate", "sdp", "--n", "4", "--m", "3", "--seed", "-1", "--out", "{dir}/x"],
            ["solve", "{lp}", "--trace", "{dir}/t.json", "--format", "json"],
            ["solve"],
            ["frobnicate"],
            ["--bogus"],
        ],
        ids=[
            "bad-float", "unknown-option", "missing-file", "missing-seed",
            "negative-seed", "format",
            "missing-argument", "unknown-command", "unknown-group-option",
        ],
    )
    def test_usage_error_is_input_error(self, tmp_path, args):
        # Click ends a usage error with 2, which here means a start point
        # outside the swath; it keeps its usage text and its Error: line.
        runner = CliRunner()
        lp = tmp_path / "lp.json"
        r = runner.invoke(
            main, ["generate", "hp", "--n", "4", "--m", "2", "--seed", "0", "--out", str(lp)]
        )
        assert r.exit_code == 0, r.output
        args = [a.format(lp=lp, dir=tmp_path) for a in args]
        r = runner.invoke(main, args)
        assert isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code == 4, r.output
        assert "Usage:" in r.output and "Error:" in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]], ids=["main", "solve"])
    def test_help_exits_zero(self, args):
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 0, r.output
        assert "Usage:" in r.output

    def test_unbounded_program_is_not_in_swath_at_iterate_zero(self, tmp_path):
        # min -x0 s.t. x1 + x2 = 2 over the orthant, and min -X11 s.t.
        # X22 = 1 over 2x2 PSD matrices: the relaxation recedes at e0.
        hp = tmp_path / "unbounded.json"
        hp.write_text(json.dumps({
            "family": {"name": "product", "d": 3},
            "c": [-1.0, 0.0, 0.0], "A": [[0.0, 1.0, 1.0]], "b": [2.0],
            "e0": [1.0, 1.0, 1.0],
        }))
        sdpa = tmp_path / "unbounded.dat-s"
        sdpa.write_text(sw.write_sdpa(sw.SdpInstance(
            C=np.diag([-1.0, 0.0]), constraints=[np.diag([0.0, 1.0])], b=np.array([1.0]),
        )))
        (tmp_path / "unbounded.start.json").write_text(sw.write_start_point(np.eye(2)))
        for path in (hp, sdpa):
            r = CliRunner().invoke(main, ["solve", str(path)])
            assert r.exit_code == 2, r.output
            assert "status=not_in_swath iterations=0 " in r.output

    def test_solve_hp_instance(self, tmp_path, monkeypatch):
        runner = CliRunner()
        out = tmp_path / "hp.json"
        r = runner.invoke(
            main,
            [
                "generate", "hp", "--family", "second_order",
                "--n", "8", "--m", "4", "--seed", "1", "--out", str(out),
            ],
        )
        assert r.exit_code == 0, r.output
        # The solve runs on the oracle whose frame at e0 the start check built.
        built = []
        lorentz_oracle = swathscale.hyperbolic._lorentz_oracle
        monkeypatch.setattr(
            swathscale.hyperbolic, "_lorentz_oracle",
            lambda d: built.append(d) or lorentz_oracle(d),
        )
        r = runner.invoke(main, ["solve", str(out)])
        assert r.exit_code == 0, r.output
        assert "status=converged" in r.output
        assert built == [8]

    @pytest.mark.parametrize("d, seed", ESYM_TINY_LEADING)
    def test_solve_esym_tiny_leading_coefficient(self, tmp_path, d, seed):
        # Each run ends in a documented status exit code, never a traceback.
        out = tmp_path / "esym.json"
        runner = CliRunner()
        r = runner.invoke(
            main,
            [
                "generate", "hp", "--family", "elementary_symmetric", "--n", str(d),
                "--k", "3", "--m", "1", "--seed", str(seed), "--out", str(out),
            ],
        )
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["solve", str(out)])
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert r.exit_code in (0, 2, 3), r.output
        assert "status=" in r.output

    def test_missing_sidecar_is_parse_error(self, tmp_path):
        path = tmp_path / "alone.dat-s"
        inst, _ = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        path.write_text(sw.write_sdpa(inst))
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 4

    def test_unallocatable_block_size_is_parse_error(self, tmp_path):
        path = tmp_path / "huge.dat-s"
        path.write_text("1\n1\n99999999999\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n")
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 4 and isinstance(r.exception, SystemExit)
        assert f"error: line 3: {TOO_LARGE}" in r.output

    def test_unknown_suffix_is_parse_error(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("{}")
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 4 and isinstance(r.exception, SystemExit)
        assert "unrecognized instance suffix" in r.output

    def test_malformed_instance_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text("not a number\n")
        (tmp_path / "bad.start.json").write_text('{"E0": [[1.0]]}')
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 4

    @pytest.mark.parametrize(
        "case", ["instance-is-directory", "sidecar-is-directory", "trace-dir-missing",
                 "generate-dir-missing"],
    )
    def test_unusable_path_is_input_error(self, tmp_path, case, monkeypatch):
        runner = CliRunner()
        missing = tmp_path / "missing" / "dir"
        inst = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "3", "--m", "2", "--seed", "0", "--out", str(inst)]
        )
        if case == "instance-is-directory":
            (tmp_path / "x.json").mkdir()
            args = ["solve", str(tmp_path / "x.json")]
        elif case == "sidecar-is-directory":
            (tmp_path / "inst.start.json").unlink()
            (tmp_path / "inst.start.json").mkdir()
            args = ["solve", str(inst)]
        elif case == "trace-dir-missing":
            # Found before the solve, whose result would be lost.
            def solved(*args):
                raise AssertionError("solved before the trace path was checked")

            monkeypatch.setattr(swathscale.cli, "run", solved)
            args = ["solve", str(inst), "--trace", str(missing / "t.csv")]
        else:
            args = ["generate", "sdp", "--n", "3", "--m", "2", "--seed", "0",
                    "--out", str(missing / "x.dat-s")]
        r = runner.invoke(main, args)
        assert r.exit_code == 4, (r.output, r.exception)
        assert "error:" in r.output

    def test_not_in_swath_exit_code(self, tmp_path):
        # Replace the planted objective with a random one: relaxation recedes.
        inst, E0 = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 3))
        bad = sw.SdpInstance(
            C=0.5 * (M + M.T), constraints=inst.constraints, b=inst.b
        )
        path = tmp_path / "recede.dat-s"
        path.write_text(sw.write_sdpa(bad))
        (tmp_path / "recede.start.json").write_text(sw.write_start_point(E0))
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 2

    def test_max_iters_exit_code(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0", "--out", str(out)]
        )
        r = runner.invoke(main, ["solve", str(out), "--max-iters", "2"])
        assert "status=max_iters" in r.output
        assert r.exit_code == 3

    @pytest.mark.parametrize(
        "command, options",
        [
            ("solve", ["--alpha", "1.5"]),
            ("solve", ["--tol", "-1"]),
            ("reduce-alpha", ["--alpha0", "1.5", "--target", "0.3"]),
            ("reduce-alpha", ["--alpha0", "0.3", "--target", "0.9"]),
            ("solve", ["--max-iters", "0"]),
            ("validate", ["--alpha", "1.5"]),
            ("solve", ["--tol", "nan"]),
            ("solve", ["--tol", "inf"]),
        ],
        ids=[
            "solve-alpha", "solve-tol", "reduce-alpha0", "reduce-target",
            "solve-max-iters", "validate-alpha", "solve-tol-nan", "solve-tol-inf",
        ],
    )
    def test_bad_option_is_input_error(self, tmp_path, command, options):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0", "--out", str(out)]
        )
        r = runner.invoke(main, [command, str(out), *options])
        assert r.exit_code == 4, r.output
        assert "error:" in r.output

    @staticmethod
    def write_invalid_instance(tmp_path, kind):
        """An instance file that fails its instance checks: it breaks an
        invariant, holds a number that is not finite, gives a family
        parameter that is not an integer, or lacks a field; or an SDPA
        file whose start-point sidecar is malformed or of the wrong order."""
        if kind.startswith("hp-"):
            if kind == "hp-fractional-k":
                inst, _ = sw.gen_hp_instance(sw.elementary_symmetric_family(6, 3), 3, 1.0, 1)
            elif kind.endswith("near-dependent"):
                # The last row is a combination of the first two plus 1e-10
                # of itself, with b recomputed so that A e0 = b still holds.
                if kind == "hp-det-near-dependent":
                    inst, _ = sw.gen_hp_instance(sw.determinant_family(6), 8, 1.0, 3)
                    weight = 1.0
                else:
                    inst, _ = sw.gen_hp_instance(sw.second_order_family(12), 6, 1.0, 1)
                    weight = -2.0
                inst.A[-1] = inst.A[0] + weight * inst.A[1] + 1e-10 * inst.A[-1]
                inst.b = inst.A @ inst.e0
            else:
                inst, _ = sw.gen_hp_instance(sw.second_order_family(6), 3, 1.0, 0)
            doc = json.loads(sw.write_hp_json(inst))
            if kind == "hp-start-off-affine":
                doc["e0"] = (2.0 * inst.e0).tolist()  # A e0 = 2 b
            elif kind == "hp-start-not-interior":
                e0 = inst.e0.copy()
                e0[-1] = -e0[-1]  # in the Lorentz cone's negative half
                doc["e0"], doc["b"] = e0.tolist(), (inst.A @ e0).tolist()
            elif kind == "hp-nan-e0":
                doc["e0"][0] = float("nan")
            elif kind == "hp-nan-c":
                doc["c"][0] = float("nan")
            elif kind == "hp-nan-A":
                doc["A"][0][0] = float("nan")
            elif kind == "hp-nan-b":
                doc["b"][0] = float("nan")
            elif kind == "hp-fractional-d":
                doc["family"]["d"] = 6.5  # int() would truncate it to the true 6
            elif kind == "hp-fractional-k":
                doc["family"]["k"] = 2.5
            elif kind == "hp-missing-c":
                del doc["c"]
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            return path
        if kind == "sdpa-dependent":
            inst, E = sw.gen_central_path_sdp(3, 2, 1.0, 0)
            inst = sw.SdpInstance(
                C=inst.C, constraints=[inst.constraints[0], 2.0 * inst.constraints[0]],
                b=inst.b,
            )
        elif kind in ("sdpa-nan", "sdpa-inf") or kind.startswith("sidecar-"):
            inst, E = sw.gen_central_path_sdp(3, 2, 1.0, 0)
            if kind == "sidecar-nan":
                E = E.copy()
                E[0, 1] = E[1, 0] = float("nan")
            elif kind == "sidecar-not-square":
                E = E[:, :2]
            elif kind == "sidecar-wrong-order":
                E = E[:2, :2]
            elif kind.startswith("sdpa-"):
                inst.C[0, 0] = float(kind[len("sdpa-"):])
        else:
            inst, E0 = sw.gen_central_path_sdp(4, 6, 1.0, 0)
            if kind == "sdpa-start-off-affine":
                E = 2.0 * E0  # positive definite, but A e = 2 b
            else:
                E = indefinite_start(inst, E0)
        path = tmp_path / "bad.dat-s"
        path.write_text(sw.write_sdpa(inst))
        sidecar = '{"start": []}' if kind == "sidecar-no-E0" else sw.write_start_point(E)
        (tmp_path / "bad.start.json").write_text(sidecar)
        return path

    @pytest.mark.parametrize(
        "kind",
        [
            "hp-start-off-affine", "sdpa-dependent", "sdpa-start-off-affine",
            "sdpa-start-not-pd", "hp-nan-c", "hp-nan-A", "hp-nan-b",
            "hp-fractional-d", "hp-fractional-k", "sdpa-nan", "sdpa-inf", "sidecar-nan",
            "hp-det-near-dependent", "hp-lorentz-near-dependent",
            "hp-nan-e0", "hp-start-not-interior", "hp-missing-c", "sidecar-no-E0",
            "sidecar-not-square", "sidecar-wrong-order",
        ],
    )
    @pytest.mark.parametrize(
        "command, options",
        [
            ("solve", []),
            ("reduce-alpha", ["--alpha0", "0.9", "--target", "0.3"]),
            ("validate", []),
        ],
        ids=["solve", "reduce-alpha", "validate"],
    )
    def test_invalid_instance_is_input_error(self, tmp_path, command, options, kind):
        path = self.write_invalid_instance(tmp_path, kind)
        r = CliRunner().invoke(main, [command, str(path), *options])
        assert r.exit_code == 4, r.output
        assert "error:" in r.output
        assert "Traceback" not in r.output
        message = {
            "hp-missing-c": "malformed instance document",
            "sidecar-no-E0": "malformed start-point document",
            "sidecar-not-square": "start point must be a square matrix",
            "sidecar-wrong-order": "start matrix order does not match the instance",
        }.get(kind, "")
        assert message in r.output
        if "nan" in kind or "inf" in kind:
            assert "must be finite" in r.output  # not a rank or span verdict
        if kind.endswith("dependent"):
            assert "linearly dependent" in r.output
        if kind == "hp-nan-e0":
            assert "start point entries must be finite" in r.output
        if kind in ("hp-start-not-interior", "sdpa-start-not-pd"):
            assert "start point is not interior" in r.output

    @pytest.mark.parametrize(
        "error, code",
        [
            (sw.NumericalFailure("factor lost"), 3),
            (sw.DomainError("power sums off the boundary"), 2),
            (sw.NotInterior("iterate left the cone"), 2),
        ],
        ids=["numerical", "domain", "not-interior"],
    )
    @pytest.mark.parametrize(
        "command, target, options",
        [
            ("solve", "run", []),
            ("reduce-alpha", "alpha_reduction_run", ["--alpha0", "0.9", "--target", "0.3"]),
        ],
        ids=["solve", "reduce-alpha"],
    )
    def test_run_error_exit_code(
        self, tmp_path, monkeypatch, command, target, options, error, code
    ):
        # An error raised by the run, after the input checks pass, maps to
        # the documented exit code with one error line.
        def failing(*args, **kwargs):
            raise error

        inst = tmp_path / "inst.dat-s"
        runner = CliRunner()
        runner.invoke(
            main, ["generate", "sdp", "--n", "3", "--m", "2", "--seed", "0", "--out", str(inst)]
        )
        monkeypatch.setattr(swathscale.cli, target, failing)
        r = runner.invoke(main, [command, str(inst), *options])
        assert isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code == code, r.output
        assert f"error: {error}" in r.output
        assert "Traceback" not in r.output

    @staticmethod
    def validate_hp(tmp_path, family, n, check):
        runner = CliRunner()
        out = tmp_path / "hp.json"
        r = runner.invoke(
            main,
            ["generate", "hp", "--family", family, "--n", n, "--m", "2", "--seed", "0",
             "--out", str(out)],
        )
        assert r.exit_code == 0, r.output
        return runner.invoke(main, ["validate", str(out), "--checks", check])

    @pytest.mark.parametrize("check", ["qscale", "equiv", "bound"])
    @pytest.mark.parametrize("family, n", [("second_order", "6")])
    def test_sdp_only_check_on_hp_file_is_input_error(self, tmp_path, family, n, check):
        r = self.validate_hp(tmp_path, family, n, check)
        assert r.exit_code == 4, r.output
        assert "error: requested check applies to SDP instances only" in r.output

    @pytest.mark.parametrize("check", ["qscale", "equiv", "bound", "all"])
    def test_sdp_check_on_determinant_file_passes(self, tmp_path, check):
        # The determinant family is an SDP on svec coordinates, so every
        # check runs on its SdpInstance.
        r = self.validate_hp(tmp_path, "determinant", "3", check)
        assert r.exit_code == 0, r.output
        lines = r.output.splitlines()
        assert len(lines) == (4 if check == "all" else 1), r.output
        assert all(": pass (" in line for line in lines), r.output

    @pytest.mark.parametrize(
        "args, message",
        [
            # InvariantViolation; the order is tested before the m range,
            # whose bound it sets.
            (["sdp", "--n", "1", "--m", "1"], "error: need n >= 2, got 1"),
            (["sdp", "--n", "-3", "--m", "3"], "error: need n >= 2, got -3"),
            # No --k.
            (["hp", "--family", "elementary_symmetric", "--n", "6", "--m", "3"], "error:"),
            # A non-finite mu is rejected before any draw, not after ten.
            (["hp", "--family", "product", "--n", "5", "--m", "2", "--mu", "nan"], "error:"),
            (["sdp", "--n", "4", "--m", "3", "--mu", "inf"], "error:"),
            # --n is the determinant family's matrix order, which must be at
            # least 2, although the dimension n(n + 1)/2 is positive at -3, -4.
            (["hp", "--family", "determinant", "--n", "-4", "--m", "1"],
             "error: determinant family needs order >= 2"),
            (["hp", "--family", "determinant", "--n", "-3", "--m", "1"],
             "error: determinant family needs order >= 2"),
        ],
        ids=[
            "order-1", "order-negative", "esym-without-k", "hp-mu-nan", "sdp-mu-inf",
            "det-order-minus-4", "det-order-minus-3",
        ],
    )
    def test_generate_input_error_exit_code(self, tmp_path, args, message):
        r = CliRunner().invoke(
            main, ["generate", *args, "--seed", "0", "--out", str(tmp_path / "x")]
        )
        assert r.exit_code == 4, r.output
        assert message in r.output
        assert not list(tmp_path.iterdir())

    def test_generate_retry_exhausted_exit_code(self, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise RetryExhausted("no independent constraint set found")

        monkeypatch.setattr(swathscale.generate, "gen_central_path_sdp", exhausted)
        r = CliRunner().invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0",
                   "--out", str(tmp_path / "x")]
        )
        assert r.exit_code == 3, r.output

    @pytest.mark.parametrize("error", RAISED_ERRORS, ids=lambda e: e.__name__)
    @pytest.mark.parametrize(
        "command, module, name, solving", STAGES, ids=[f"{c}-{n}" for c, _, n, _ in STAGES]
    )
    def test_error_exit_code_rule(
        self, tmp_path, monkeypatch, command, module, name, solving, error
    ):
        # One rule for every command and stage: an OSError is 4; a
        # NumericalFailure or RetryExhausted is 3; any other typed error is
        # 4 before the solve starts and 2 after it.
        if error is OSError:
            code = 4
        elif issubclass(error, (NumericalFailure, RetryExhausted)):
            code = 3
        else:
            code = 2 if solving else 4
        inst = tmp_path / "inst.dat-s"
        runner = CliRunner()
        args = ["sdp", "--n", "3", "--m", "2", "--seed", "0", "--out", str(inst)]
        if command != "generate":
            assert runner.invoke(main, ["generate", *args]).exit_code == 0
            args = [str(inst), *INSTANCE_OPTIONS[command]]

        def failing(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(module, name, failing)
        r = runner.invoke(main, [command, *args])
        assert isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code == code, r.output
        assert "error: injected" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("args, shape", [
        (["sdp", "--n", "10000000000"], "(1, 10000000000, 10000000000)"),
        (["hp", "--family", "product", "--n", "10000000000000000000"],
         "(1, 10000000000000000000)"),
    ], ids=["sdp", "hp"])
    def test_generate_unallocatable_instance_is_input_error(self, tmp_path, args, shape):
        # numpy's size check refuses the array before any page is touched.
        r = CliRunner().invoke(
            main, ["generate", *args, "--m", "1", "--seed", "0", "--out", str(tmp_path / "x")]
        )
        assert isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code == 4, r.output
        assert f"error: instance too large: cannot allocate an array of shape {shape}" in r.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("cls, args", [
        (sw.SdpInstance, ["sdp", "--n", "4", "--m", "6"]),
        (sw.HpInstance, ["hp", "--family", "product", "--n", "6", "--m", "3"]),
    ], ids=["sdp", "hp"])
    def test_generate_out_of_retries_exit_code(self, tmp_path, monkeypatch, cls, args):
        def invalid(self):
            raise InvariantViolation("injected")

        monkeypatch.setattr(cls, "validate", invalid)
        r = CliRunner().invoke(
            main, ["generate", *args, "--seed", "0", "--out", str(tmp_path / "x")]
        )
        assert isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code == 3, r.output
        assert "in 10 draws" in r.output

    def test_validate_failing_check_exits_one(self, tmp_path, monkeypatch):
        out = tmp_path / "inst.dat-s"
        runner = CliRunner()
        runner.invoke(
            main, ["generate", "sdp", "--n", "3", "--m", "2", "--seed", "0", "--out", str(out)]
        )
        failing = swathscale.diagnostics.CheckReport("finite_difference", 1.0, 1.0, 9, 1e-5)
        monkeypatch.setattr(swathscale.diagnostics, "fd_check", lambda *args: failing)
        r = runner.invoke(main, ["validate", str(out), "--checks", "fd"])
        assert isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code == 1, r.output
        assert "finite_difference: FAIL" in r.output

    def test_reduce_alpha(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "2", "--out", str(out)]
        )
        r = runner.invoke(
            main, ["reduce-alpha", str(out), "--alpha0", "0.9", "--target", "0.3"]
        )
        assert r.exit_code == 0, r.output
        assert "in_swath(target)=True" in r.output

    def test_validate_all_pass(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "3", "--out", str(out)]
        )
        r = runner.invoke(main, ["validate", str(out), "--checks", "all"])
        assert r.exit_code == 0, r.output
        assert "FAIL" not in r.output
