"""Reference results and output checks.

A reference barcode is derived once per run for every (input, module)
that a timed call uses: ``barcode --indices`` must agree across phcol,
phrow and pcoh, and one value-level call then gives the lines that every
timed output is compared with.  Generator tables must list exactly the
reference intervals; every ``abs_hom`` generator must be a cycle over
Z/p and the boundary of its killer must equal it, both checked against
the benchmark's own boundary table.  ``oracle-check`` must report the
reference number of intervals (zero-length ones included).
"""

from __future__ import annotations

import re
from collections import Counter

ALGORITHMS = ("phcol", "phrow", "pcoh")
ORACLE_LINE = re.compile(r"ok: (\d+) cells, (\d+) intervals")


class CheckError(Exception):
    """An output, or the reference it is checked against, is wrong."""


class References:
    """Reference barcodes, derived on first use through ``call(argv)``.

    ``call`` runs the CLI and returns ``(exit code, stdout)``.
    """

    def __init__(self, call):
        self.call = call
        self._lines: dict[tuple, Counter] = {}

    def _run(self, argv: list[str]) -> str:
        rc, out = self.call(argv)
        if rc != 0:
            raise CheckError(f"reference call {' '.join(argv)} exited {rc}")
        return out

    def _index_level(self, inp, module: str, keep_zero: bool) -> Counter:
        key = (inp.path, module, keep_zero, "indices")
        if key not in self._lines:
            base = ["barcode", inp.path, *inp.args, "--module", module, "--indices"]
            if keep_zero:
                base.append("--keep-zero-length")
            found = {alg: Counter(self._run(base + ["--algorithm", alg]).splitlines())
                     for alg in ALGORITHMS}
            if found["phcol"] != found["phrow"] or found["phcol"] != found["pcoh"]:
                raise CheckError(f"phcol, phrow and pcoh disagree on the {module} "
                                 f"index barcode of {inp.path}")
            self._lines[key] = found["phcol"]
        return self._lines[key]

    def barcode(self, inp, module: str) -> Counter:
        """Value-level lines of the ``module`` barcode of ``inp``."""
        key = (inp.path, module, False, "values")
        if key not in self._lines:
            indices = self._index_level(inp, module, False)
            values = Counter(self._run(["barcode", inp.path, *inp.args, "--module",
                                        module, "--algorithm", "phcol"]).splitlines())
            if sum(values.values()) != sum(indices.values()):
                raise CheckError(f"value and index barcodes of {inp.path} differ in size")
            self._lines[key] = values
        return self._lines[key]

    def interval_count(self, inp) -> int:
        """Intervals of the abs_hom barcode, zero-length ones included."""
        return sum(self._index_level(inp, "abs_hom", True).values())

    def prepare(self, inv) -> None:
        """Derive every reference ``inv`` is checked against."""
        if inv.command == "oracle-check":
            self.interval_count(inv.input)
        else:
            self.barcode(inv.input, inv.module)


def _parse_chain(text: str) -> dict[int, int]:
    if text == "0":
        return {}
    chain = {}
    for term in text.split():
        idx, coef = term.split(":")
        chain[int(idx)] = int(coef)
    return chain


def _boundary(chain: dict[int, int], table, p: int) -> dict[int, int]:
    acc: dict[int, int] = {}
    for idx, coef in chain.items():
        for face, sign in table[idx - 1]:
            acc[face] = (acc.get(face, 0) + coef * sign) % p
    return {i: c for i, c in acc.items() if c}


def check_generators(out: str, inv, refs: References) -> None:
    heads = Counter()
    table, p = inv.input.boundary, inv.input.p
    for block in filter(None, out.split("\n\n")):
        lines = block.splitlines()
        heads[lines[0]] += 1
        if inv.module != "abs_hom":
            continue
        gen = _parse_chain(lines[1].split("generator:", 1)[1].strip())
        if _boundary(gen, table, p):
            raise CheckError(f"generator of {lines[0]!r} is not a cycle")
        if len(lines) > 2:
            killer = _parse_chain(lines[2].split("killer:", 1)[1].strip())
            if _boundary(killer, table, p) != {i: c % p for i, c in gen.items()}:
                raise CheckError(f"killer of {lines[0]!r} does not bound its generator")
    if heads != refs.barcode(inv.input, inv.module):
        raise CheckError(f"{inv.module} generator intervals differ from the reference")


def check(inv, rc, out: str, refs: References) -> None:
    """Raise :class:`CheckError` unless ``inv`` exited 0 with the reference output."""
    if rc != 0:
        raise CheckError(f"{' '.join(inv.argv())} exited {rc}")
    if inv.command == "barcode":
        if Counter(out.splitlines()) != refs.barcode(inv.input, inv.module):
            raise CheckError(f"{inv.kind} barcode differs from the reference")
    elif inv.command == "generators":
        try:
            check_generators(out, inv, refs)
        except (IndexError, ValueError) as exc:
            raise CheckError(f"unreadable generator output: {exc}") from None
    else:
        m = ORACLE_LINE.match(out)
        if not m or int(m.group(2)) != refs.interval_count(inv.input):
            raise CheckError(f"oracle-check reported {out.strip()!r}")
