"""File loaders against the scalar cell loader they replaced.

``scalar_build_complex`` and ``scalar_load_cell_file`` are the per-line,
per-term Python loader the array loader replaced, kept as the reference:
on every seeded file both must give the same dimensions, values and
boundary columns, or the same error text.  The reference returns those
three as lists, since a complex is built from arrays only.
"""

import math
import random

import pytest

from perscoh import (ComplexError, Field, ParseError, build_complex, cube_points,
                     load_cell_file, load_points, load_simplicial_file,
                     rips_filtration)
from perscoh import complexes
from perscoh.complexes import FilteredComplex, SparseMatrix


def scalar_build_complex(cells, field):
    p = field.p
    dims: list[int] = []
    values: list[float] = []
    D = SparseMatrix(len(cells))
    for j, (dim, value, raw_boundary) in enumerate(cells, start=1):
        if dim < 0:
            raise ComplexError(j, f"negative dimension {dim}")
        if math.isnan(value):
            raise ComplexError(j, "filtration value is NaN")
        if j > 1 and value < values[-1]:
            raise ComplexError(
                j, f"filtration value {value} drops below {values[-1]}")
        terms: dict[int, int] = {}
        for idx, coef in raw_boundary:
            if not 1 <= idx < j:
                raise ComplexError(
                    j, f"boundary term {idx} is not an earlier cell")
            terms[idx] = (terms.get(idx, 0) + coef) % p
        boundary = sorted((i, c) for i, c in terms.items() if c)
        for idx, _ in boundary:
            if dims[idx - 1] != dim - 1:
                raise ComplexError(
                    j, f"boundary term {idx} has dimension {dims[idx - 1]}, "
                       f"expected {dim - 1}")
        dims.append(dim)
        values.append(float(value))
        D.cols[j] = boundary

    # composite boundary must vanish
    for j in range(1, D.n + 1):
        acc: dict[int, int] = {}
        for idx, coef in D.cols[j]:
            for idx2, coef2 in D.cols[idx]:
                acc[idx2] = (acc.get(idx2, 0) + coef * coef2) % p
        bad = [i for i, c in acc.items() if c]
        if bad:
            raise ComplexError(j, f"boundary of boundary is nonzero at cell {min(bad)}")
    return dims, values, D


def _tokenize(path: str):
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            yield lineno, stripped.split()


def scalar_load_cell_file(path: str, field: Field) -> tuple[list, list, SparseMatrix]:
    """Read the cell format (``<dim> <value> [<face>:<coef> ...]``)."""
    rows: list[tuple[int, float, list[tuple[int, int]]]] = []
    for lineno, tokens in _tokenize(path):
        try:
            dim = int(tokens[0])
            value = float(tokens[1])
        except (ValueError, IndexError):
            raise ParseError(f"{path}:{lineno}: expected '<dim> <value> ...'") from None
        terms: list[tuple[int, int]] = []
        for tok in tokens[2:]:
            idx_s, sep, coef_s = tok.partition(":")
            if not sep:
                raise ParseError(
                    f"{path}:{lineno}: boundary term {tok!r} is not '<index>:<coef>'")
            try:
                terms.append((int(idx_s), int(coef_s)))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: boundary term {tok!r} is not '<index>:<coef>'") from None
        rows.append((dim, value, terms))
    if not rows:
        raise ParseError(f"{path}:1: empty complex")
    try:
        return scalar_build_complex(rows, field)
    except ComplexError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def outcome(load, *args):
    """The dims, values and boundary columns of the complex ``load``
    gives, as a complex or as those three, or the error it raises, by
    ``repr``."""
    try:
        got = load(*args)
    except (ParseError, ComplexError) as exc:
        return repr(exc)
    if not isinstance(got, tuple):
        got = got.dim_array.tolist(), got.value_table[1:-1].tolist(), got.csc.to_sparse()
    dims, values, D = got
    return dims, values, D.cols


HUGE = 10**30
INT64_EDGES = [2**63 - 1, -(2**63 - 1), -2**63, 2**63, -2**63 - 1]


def cell_rows(rng: random.Random, K: FilteredComplex) -> list[list[str]]:
    """The tokens of a cells file for ``K``: each coefficient written as one
    to three terms that sum to it mod p, some negative, some at least p,
    some beyond int64; some cancelling pairs on any earlier cell; faces
    with a sign or leading zeros; terms in random order."""
    p = K.field.p
    rows = []
    D, dims, values = K.csc.to_sparse(), K.dim_array.tolist(), K.value_table.tolist()
    for j in range(1, K.n + 1):
        terms = []
        for i, c in D.cols[j]:
            parts = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(3))]
            parts.append(c - sum(parts) + p * rng.choice([0, 0, -1, 2, HUGE]))
            terms += [(i, part) for part in parts]
        if j > 1 and rng.random() < 0.3:
            i, a = rng.randrange(1, j), rng.randrange(1, p + 3)
            terms += [(i, a), (i, -a + p * rng.randrange(-2, 3))]
        rng.shuffle(terms)
        faces = [rng.choice([str(i), f"+{i}", f"00{i}"]) for i, _ in terms]
        rows.append([str(dims[j - 1]), repr(values[j])]
                    + [f"{i}:{c}" for i, (_, c) in zip(faces, terms)])
    return rows


def render(rng: random.Random, rows: list[list[str]]) -> str:
    """``rows`` as file text, with random separators, comments, blank lines
    and line ends."""
    lines = []
    for tokens in rows:
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# note", "   ", "\t", "#"]))
        line = rng.choice([" ", "\t", "  ", " \t "]).join(tokens)
        if rng.random() < 0.1:
            line += rng.choice(["  # comment", "#x:y", "\t"])
        lines.append(rng.choice(["", " ", "\t"]) + line)
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice([end, ""])


def seeded_complex(seed: int, p: int) -> FilteredComplex:
    rng = random.Random(seed)
    count, dim = rng.randrange(3, 9), rng.randrange(1, 4)
    points = cube_points(count, dim, seed)
    if seed % 3 == 0:  # grid points: tied values
        points = [tuple(round(x * 3) / 3 for x in pt) for pt in points]
    return rips_filtration(points, rng.choice([0.5, 0.8, math.inf]),
                           rng.randrange(1, 4), Field(p))


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, newline="")
    return str(path)


# the composite boundary is checked a block of products at a time; blocks
# of 5 put block ends inside most complexes, and single cells past them
BLOCKS = [complexes._PRODUCTS, 5]


@pytest.mark.parametrize("products", BLOCKS)
@pytest.mark.parametrize("p", [2, 11])
def test_valid_files_match_scalar_loader(tmp_path, monkeypatch, p, products):
    monkeypatch.setattr(complexes, "_PRODUCTS", products)
    field = Field(p)
    for seed in range(60):
        rng = random.Random(seed)
        path = write(tmp_path, f"ok{seed}.cells",
                     render(rng, cell_rows(rng, seeded_complex(seed, p))))
        expected = outcome(scalar_load_cell_file, path, field)
        assert not isinstance(expected, str), expected
        assert outcome(load_cell_file, path, field) == expected


def _negative_dim(rng, rows, j):
    rows[j][0] = rng.choice(["-1", "-2", str(-HUGE)])


def _bad_value(rng, rows, j):
    rows[j][1:2] = [rng.choice(["nan", "-inf", "-0.5"])]  # values start at 0


def _not_earlier(rng, rows, j):
    face = rng.choice([0, -1, j + 1, j + 2, len(rows) + 5, HUGE, -HUGE])
    rows[j].insert(rng.randint(min(2, len(rows[j])), len(rows[j])),
                   f"{face}:{rng.randrange(1, 5)}")


def _wrong_dim(rng, rows, j):
    if rows[j][0].isdigit():
        rows[j][0] = str(int(rows[j][0]) + rng.choice([1, -1, 2, HUGE]))


def _wrong_face(rng, rows, j):
    if j:
        rows[j].append(f"{rng.randrange(1, j + 1)}:{rng.choice([1, -1, 3, HUGE])}")


def _drop_term(rng, rows, j):
    if len(rows[j]) > 2:
        del rows[j][rng.randrange(2, len(rows[j]))]


def _bad_header(rng, rows, j):
    rows[j][:2] = rng.choice([["x", "1"], ["1"], ["1", "y"], ["1.5", "2"], ["0", "1:1"]])


def _bad_term(rng, rows, j):
    rows[j].append(rng.choice(["3", "a:b", "1:2:3", ":1", "1:", "1::2", "1:x", "x:1", ":"]))


MUTATIONS = [_negative_dim, _bad_value, _not_earlier, _wrong_dim, _wrong_face,
             _drop_term, _bad_header, _bad_term]


@pytest.mark.parametrize("products", BLOCKS)
@pytest.mark.parametrize("p", [2, 11])
def test_malformed_files_give_scalar_errors(tmp_path, monkeypatch, p, products):
    """One or two faults per file; the same fault is named first."""
    monkeypatch.setattr(complexes, "_PRODUCTS", products)
    field = Field(p)
    errors = 0
    for seed in range(300):
        rng = random.Random(1000 + seed)
        rows = cell_rows(rng, seeded_complex(seed, p))
        for _ in range(1 + seed % 2):
            rng.choice(MUTATIONS)(rng, rows, rng.randrange(len(rows)))
        path = write(tmp_path, f"bad{seed}.cells", render(rng, rows))
        expected = outcome(scalar_load_cell_file, path, field)
        errors += isinstance(expected, str)
        assert outcome(load_cell_file, path, field) == expected
    assert errors > 240


@pytest.mark.parametrize("text", [
    "0 0\n1 1 1:1000000000000000000000000000000\n",  # reduces mod p, a face of a vertex
    "0 0\n0 0\n1 1 1:1000000000000000000000000000001 2:-1\n",
    "0 0\n1 1 1000000000000000000000000000000:1\n",  # not an earlier cell
    "0 0\n1 1 -1000000000000000000000000000000:1\n",
    "1000000000000000000000000000000 0\n",  # loads
    "0 0\n1000000000000000000000000000000 1\n1000000000000000000000000000001 2 2:1\n",
    "0 0\n1000000000000000000000000000000 1 1:1\n",  # wrong dimension
    "-1000000000000000000000000000000 0\n",
    "0 0\n0 0\n1 1 1 2:2:-1\n",  # as many colons as terms, not one a term
    "0 0\n0 0\n1 1 1:1:2 -1\n",
    # a triangle, then a cell whose boundary's boundary is nonzero, its
    # products in a block of their own when blocks hold 5
    "0 0\n0 0\n0 0\n1 1 1:1 2:-1\n1 1 2:1 3:-1\n1 1 1:1 3:-1\n"
    "2 2 4:1 5:1 6:-1\n2 3 4:1 5:1\n",
    # dimensions, faces and coefficients at and past the bounds of int64,
    # which a bulk parse clamps to them
    *(f"{big} 0\n" for big in INT64_EDGES),
    *(f"0 0\n1 1 {big}:1\n" for big in INT64_EDGES),
    *(f"0 0\n1 1 1:{big}\n" for big in INT64_EDGES),
    "0 0\n" * 10 + "1 1 010:+7 +7:-1\n1 1 10:1 1:-1\n",  # decimal, not octal
    "0 0\n" * 10 + "1 1 1_0:1 0_1:-1\n",  # underscores, which int accepts
    "0 ٣\n١ ٤ １:١\n",  # Unicode digits, which int accepts
    "0 -0.0\n0 0\n0 1_0.5\n0 1e400\n0 infinity\n1 1e400 1:1 2:-1\n",
    "0 0x1p3\n",
    "0 nan(1)\n",
    "+ 0\n",  # bare signs
    "0 0\n1 1 1:-\n",
    "0 0\n1 1 -:1\n",
    "0 0\n0 0\n1 1 1: :2\n",  # one colon a term, an empty piece each
    "0 0\n0 0\n1 1 1:2:3 4\n",  # as many colons as terms, not one a term
])
@pytest.mark.parametrize("products", BLOCKS)
@pytest.mark.parametrize("p", [2, 11])
def test_edge_files_match_scalar_loader(tmp_path, monkeypatch, text, p, products):
    monkeypatch.setattr(complexes, "_PRODUCTS", products)
    path = write(tmp_path, "edge.cells", text)
    assert outcome(load_cell_file, path, Field(p)) == outcome(
        scalar_load_cell_file, path, Field(p))


@pytest.mark.parametrize("rows", [
    [(0, float(2**53 + 4), []), (0, 2**53 + 3, [])],  # an int below a float it rounds to
    [(0, 2**53 + 3, []), (0, float(2**53 + 4), [])],
    [(0, 1, []), (0, 1.5, []), (1, 2, [(1, 1), (2, -1)])],
    [(0, 1.0, []), (0, math.nan, []), (0, 0.5, [])],
    [(0, 1.0, []), (0, 0.5, []), (0, math.nan, [])],
    [(0, 0.0, []), (1, 1.0, [(1, 1), (1, -1), (5, 0)])],
    [(0, 0.0, []), (0, 0.0, []), (1, 1.0, [(2, 1), (1, -1)]), (2, 2.0, [(3, 2)])],
    [],
])
def test_build_complex_matches_scalar(rows):
    field = Field(11)
    assert outcome(build_complex, rows, field) == outcome(scalar_build_complex, rows, field)


FORM_FEED_FILES = [
    # (loader, a file whose second and third lines hold a form feed and a
    # line separator and whose fourth line is bad, the message of that line)
    (load_cell_file, "0 0\n0\f0\n1 1 1:1\u20282:-1\n1 x\n",
     "expected '<dim> <value> ...'"),
    (load_simplicial_file, "0 a\n0\fb\n1 a\u2028b\nx a b\n", "bad value 'x'"),
    (load_points, "0 0\n1\f2\n3\u20284\nx 0\n", "bad coordinate"),
]


@pytest.mark.parametrize("load, text, message", FORM_FEED_FILES)
def test_lines_end_only_at_newlines(tmp_path, load, text, message):
    """A form feed or a \\u2028 separates tokens but does not end a line."""
    args = () if load is load_points else (Field(11),)
    good = tmp_path / "good"
    good.write_text(text.rsplit("\n", 2)[0] + "\n")
    loaded = load(str(good), *args)
    assert len(loaded if load is load_points else loaded.dim_array) == 3
    bad = tmp_path / "bad"
    bad.write_text(text)
    with pytest.raises(ParseError) as exc:
        load(str(bad), *args)
    assert str(exc.value) == f"{bad}:4: {message}"
