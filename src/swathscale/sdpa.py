"""Reader and writer for the sparse SDPA text format (.dat-s).

Multi-block files are concatenated into one dense symmetric block; the
original block sizes are kept in the instance metadata so a write
followed by a parse round-trips.  Entries with matrix number 0 populate
the objective matrix C; numbers 1..m populate the constraint matrices.

Both directions work in bulk.  The reader converts entry lines a chunk
at a time with ``np.loadtxt`` and checks each chunk with array
operations; only a chunk that fails to convert is rescanned line by
line with the same reader, to name the offending line.  The header
numbers go through that reader too.  The writer formats one matrix at a
time from the nonzeros of its block upper triangles.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .errors import InvariantViolation, ParseError
from .sdp import SdpInstance

_COMMENT_PREFIXES = ('"', "*", "#")
# Braces, parentheses and commas separate values like spaces do.
_PUNCT = str.maketrans("{}(),", "     ")
# Entry lines are read in pieces of about this many characters (a few
# thousand lines), cut at an LF, so no whole-file line list exists.
_CHUNK_CHARS = 1 << 16
_ENTRY = np.dtype(
    [("mat", np.int64), ("blk", np.int64), ("i", np.int64), ("j", np.int64),
     ("val", np.float64)]
)


def _tokens(line: str) -> list[str]:
    return line.translate(_PUNCT).split()


def _content_chunks(text: str):
    """Yield (linenos, rows) per chunk: the stripped non-comment, non-blank
    lines of the chunk and their 1-based line numbers in ``text``.

    LF, CR and CRLF end a line, and no other character does.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start, lineno = 0, 1
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS)
        if stop < 0:
            stop = len(text)
        chunk = text[start:stop]
        rows = list(map(str.strip, chunk.split("\n")))
        linenos = list(range(lineno, lineno + len(rows)))
        start, lineno = stop + 1, lineno + len(rows)
        # A chunk with no blank line and no comment prefix character
        # anywhere keeps every line, and skips the per-line filter.
        if "" in rows or any(prefix in chunk for prefix in _COMMENT_PREFIXES):
            keep = [
                k for k, row in enumerate(rows)
                if row and not row.startswith(_COMMENT_PREFIXES)
            ]
            linenos = [linenos[k] for k in keep]
            rows = [rows[k] for k in keep]
        yield linenos, rows


def _convert(rows: list[str], dtype: np.dtype = _ENTRY) -> np.ndarray | None:
    """The rows as an array of ``dtype``, one element per row, or None if
    any row does not convert.

    This is the grammar of every number in the file: ASCII, no ``_``
    digit separators, and what ``np.loadtxt`` reads into ``dtype``.
    """
    text = "\n".join(rows).translate(_PUNCT)
    if not text.isascii() or "_" in text:
        return None
    try:
        # Older NumPy reads "1.0" into an integer field with only a
        # DeprecationWarning; turned into an error it is a ValueError.
        # A row of punctuation alone leaves no data, which loadtxt warns
        # about; the size test below rejects it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no", UserWarning)
            values = np.loadtxt(text.split("\n"), dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    # loadtxt skips rows that are blank once punctuation is removed.
    return values if values.size == len(rows) else None


def _header_numbers(row: str, dtype, message: str, lineno: int, leading=False):
    """The numbers of a header line, read as entry lines are: ASCII
    whitespace separates them, and numpy's reader converts them.

    With ``leading``, only the first token is read, and it must be there;
    text after it is a note, such as "= mDIM".
    """
    toks = _tokens(row)
    values = _convert(toks[:1] if leading else toks, dtype)
    if values is None or (leading and values.size != 1) or not (leading or row.isascii()):
        raise ParseError(message, line=lineno)
    return values.tolist()


def parse_sdpa(text: str) -> SdpInstance:
    """Parse sparse SDPA input into a single dense-block instance.

    Raises ParseError (carrying the offending line number) on malformed
    input and InvariantViolation when the parsed instance is degenerate
    (b = 0 or dependent constraints).
    """
    chunks = _content_chunks(text)
    linenos: list[int] = []
    rows: list[str] = []

    def next_line(what):
        nonlocal linenos, rows
        while not rows:
            try:
                linenos, rows = next(chunks)
            except StopIteration:
                raise ParseError(f"unexpected end of file while reading {what}")
        return linenos.pop(0), rows.pop(0)

    lineno, row = next_line("the number of constraints")
    (m,) = _header_numbers(
        row, np.int64, "expected the number of constraint matrices", lineno, leading=True
    )
    if m < 1:
        raise ParseError(f"need at least one constraint, got {m}", line=lineno)

    lineno, row = next_line("the number of blocks")
    (nblocks,) = _header_numbers(
        row, np.int64, "expected the number of blocks", lineno, leading=True
    )
    if nblocks < 1:
        raise ParseError(f"need at least one block, got {nblocks}", line=lineno)

    lineno, row = next_line("the block sizes")
    block_sizes = _header_numbers(row, np.int64, "block sizes must be integers", lineno)
    if len(block_sizes) != nblocks:
        raise ParseError(
            f"expected {nblocks} block sizes, got {len(block_sizes)}", line=lineno
        )
    if any(size == 0 for size in block_sizes):
        raise ParseError("block sizes must be nonzero", line=lineno)
    sizes = np.array(block_sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(np.abs(sizes))])
    n = int(offsets[-1])
    try:
        mats = np.zeros((m + 1, n, n))
    except (ValueError, MemoryError):
        message = f"block sizes too large: cannot allocate {m + 1} matrices of order {n}"
        raise ParseError(message, line=lineno) from None

    lineno, row = next_line("the right-hand-side vector")
    b = np.array(
        _header_numbers(row, np.float64, "right-hand-side entries must be numbers", lineno)
    )
    if b.size != m:
        raise ParseError(f"expected {m} right-hand-side values, got {b.size}", line=lineno)

    flat = mats.reshape(-1)
    touched = np.zeros(m + 1, dtype=bool)
    for linenos, rows in itertools.chain([(linenos, rows)], chunks):
        if not rows:
            continue
        entries = _convert(rows)
        # A chunk that does not convert is checked up to its first line
        # that does not convert alone, so an earlier range error still wins.
        stop = None
        if entries is None:
            stop = next(k for k, row in enumerate(rows) if _convert([row]) is None)
            entries = _convert(rows[:stop])
        mat, blk, i, j = (entries[f] for f in ("mat", "blk", "i", "j"))
        blk0 = np.clip(blk - 1, 0, nblocks - 1)
        width = np.abs(sizes[blk0])
        # The entry rules, in the order an error names them.
        rules = (
            ((mat < 0) | (mat > m), "matrix number {mat} outside 0..{m}"),
            ((blk < 1) | (blk > nblocks), "block number {blk} outside 1..{nblocks}"),
            (
                (i < 1) | (i > j) | (j > width),
                "indices ({i}, {j}) not upper-triangular within block size {width}",
            ),
            ((sizes[blk0] < 0) & (i != j), "diagonal block admits only diagonal entries"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in rules])
        if bad.any():
            k = int(np.argmax(bad))
            message = next(message for mask, message in rules if mask[k])
            row = dict(mat=mat[k], blk=blk[k], i=i[k], j=j[k], width=width[k])
            raise ParseError(message.format(m=m, nblocks=nblocks, **row), line=linenos[k])
        if stop is not None:
            if rows[stop].isascii() and len(_tokens(rows[stop])) != 5:
                message = "entry lines need 'matno blkno i j value'"
            else:
                message = "malformed entry line"
            raise ParseError(message, line=linenos[stop])
        r = offsets[blk0] + i - 1
        s = offsets[blk0] + j - 1
        upper = (mat * n + r) * n + s
        # Fancy assignment leaves the winner among repeated indices
        # unspecified, so keep only the last entry of each position.
        _, last = np.unique(upper[::-1], return_index=True)
        keep = upper.size - 1 - last
        vals = entries["val"][keep]
        flat[upper[keep]] = vals
        flat[((mat * n + s) * n + r)[keep]] = vals
        touched[mat] = True

    for k in range(1, m + 1):
        if not touched[k]:
            raise ParseError(f"constraint matrix {k} has no entries")

    inst = SdpInstance(
        C=mats[0],
        constraints=list(mats[1:]),
        b=b,
        metadata={"block_sizes": block_sizes},
    )
    inst.validate()
    return inst


def write_sdpa(inst: SdpInstance) -> str:
    """Serialize an instance in sparse SDPA form (the parser's inverse).

    Block structure from the metadata is honored when the sizes still sum
    to the matrix order; otherwise one dense block is emitted.
    """
    n = inst.n
    block_sizes = inst.metadata.get("block_sizes", [n])
    if sum(abs(size) for size in block_sizes) != n:
        block_sizes = [n]
    offsets = np.concatenate([[0], np.cumsum([abs(s) for s in block_sizes])])
    mats = [inst.C, *inst.constraints]

    # The positions a line may name, in file order (block, i, j >= i):
    # each block's upper triangle, or only the diagonal of a diagonal
    # block, whose strict upper triangle must be zero.
    rows, cols, blks, diag_blocks = [], [], [], []
    for blk, size in enumerate(block_sizes, start=1):
        lo, hi = int(offsets[blk - 1]), int(offsets[blk])
        if size < 0:
            i = j = np.arange(hi - lo)
            diag_blocks.append((lo, hi))
        else:
            i, j = np.triu_indices(hi - lo)
        rows.append(lo + i)
        cols.append(lo + j)
        blks.append(np.full(i.size, blk))
    rows, cols, blks = (np.concatenate(a) for a in (rows, cols, blks))
    for M in mats:
        if any(np.triu(M[lo:hi, lo:hi], 1).any() for lo, hi in diag_blocks):
            raise InvariantViolation("off-diagonal entry inside a diagonal block")

    # One "blk i j %.17g" template per position that some matrix uses.
    used = np.zeros(rows.size, dtype=bool)
    for M in mats:
        used |= M[rows, cols] != 0.0
    pos = np.flatnonzero(used)
    templates = [
        f"{blk} {r - lo + 1} {c - lo + 1} %.17g"
        for blk, r, c, lo in zip(
            blks[pos].tolist(), rows[pos].tolist(), cols[pos].tolist(),
            offsets[blks[pos] - 1].tolist(),
        )
    ]
    slot = np.cumsum(used) - 1

    out = [str(inst.m), str(len(block_sizes)), " ".join(str(s) for s in block_sizes)]
    out.append(" ".join(f"{v:.17g}" for v in inst.b))
    for matno, M in enumerate(mats):
        vals = M[rows, cols]
        nz = np.flatnonzero(vals)
        if nz.size:
            body = f"\n{matno} ".join([templates[t] for t in slot[nz].tolist()])
            out.append(f"{matno} " + body % tuple(vals[nz].tolist()))
    return "\n".join(out) + "\n"
