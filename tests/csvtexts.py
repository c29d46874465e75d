"""A hypothesis strategy for CSV texts that reach every path of the chunked
CSV readers: quoted cells and headers, CR, CRLF and mixed line ends, blank
lines, short and long rows, a byte-order mark, NUL characters and padded
cells, with the first quote after any number of quote-free rows; and a
context manager that lowers the csv module's cell limit, so that over-long
cells are short enough to draw."""

import csv
from contextlib import contextmanager

from hypothesis import strategies as st

# the line ends one file mixes
LINE_ENDS = st.sampled_from([("\n",), ("\r\n",), ("\r",), ("\n", "\r\n"), ("\n", "\r")])


@contextmanager
def cell_limit(limit: int):
    """``csv.field_size_limit`` set to ``limit`` for the block."""
    previous = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def csv_texts(draw, header: list[str], rows):
    """A CSV text: the ``header`` names, then rows drawn from ``rows``, a
    strategy for one row's cells. Rows before a drawn one hold no quote
    (unless a cell does), and from it on any cell may be quoted; a ragged
    file cuts or extends some of its rows, a blank-lined one puts blank
    lines between them."""
    quote_header, ragged, blank_lines, bom, last_end = (draw(st.booleans()) for _ in range(5))
    body = draw(st.lists(rows, max_size=24))
    quotes_from = draw(st.integers(0, len(body)))
    lines = [",".join(map(quoted, header) if quote_header else header)]
    for i, row in enumerate(body):
        if ragged and draw(st.integers(0, 3)) == 0:
            row = (row + ["extra"])[:draw(st.integers(0, len(row) + 1))]
        if i >= quotes_from:
            row = [quoted(cell) if draw(st.booleans()) else cell for cell in row]
        if blank_lines:
            lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(",".join(row))
    ends = draw(LINE_ENDS)
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if not last_end:
        text = text.rstrip("\r\n")
    return "\ufeff" * bom + text
