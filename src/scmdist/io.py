"""File ingestion and result serialization.

Formats:
  datasets   strict CSV, mandatory header of unique variable names, numeric
             finite body, comma separator, '.' decimal point
  graphs     edge-list text: one ``parent -> child`` per line, ``#`` comments,
             bare names declare isolated nodes
  reports    JSON (deterministic key order) or CSV (pairwise matrices carry a
             header row/column of environment ids)

Both readers take UTF-8 and skip a leading byte-order mark.  All parsing is
strict: malformed input raises with the offending line/cell rather than
being coerced.

``save_dataset`` writes each cell as the float's shortest round-trip
``repr``, ends every line with ``\r\n`` and quotes the header by csv rules
(a name holding a comma, a quote or a line break), so ``load_dataset`` reads
back the same names and the same values bit for bit.  Each writer refuses,
with ``ValidationError``, the names its reader would not read back:
  save_dataset   an empty name, and a name with leading or trailing whitespace
  save_graph     an empty name, a name with leading or trailing whitespace,
                 a name holding ``#``, ``->`` or a line break, and an
                 isolated node whose name holds whitespace
and both refuse a first name written that begins with U+FEFF (read as a
byte-order mark).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from importlib import resources
from io import StringIO
from pathlib import Path

from ._version import __version__
from .dataset import Dataset
from .distance import DistanceReport, PairwiseMatrix
from .errors import ValidationError
from .graph import Dag

__all__ = [
    "load_dataset",
    "save_dataset",
    "load_graph",
    "save_graph",
    "write_report",
    "sachs_expert_graph",
]

# rows formatted and written per write call: the temporaries stay O(block)
_ROWS_PER_BLOCK = 256


def load_dataset(path, id: str | None = None) -> Dataset:
    """Read a dataset from CSV; the id defaults to the file stem."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, expected a header row") from None
        names = [h.strip() for h in header]
        if any(not n for n in names):
            raise ValidationError(f"{path}: header has an empty column name")
        if len(set(names)) != len(names):
            raise ValidationError(f"{path}: duplicate variable names in header")
        columns = {n: [] for n in names}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise ValidationError(
                    f"{path}: line {lineno} has {len(row)} cells, expected {len(names)}")
            for name, cell in zip(names, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}, column {name!r}: "
                        f"non-numeric cell {cell.strip()!r}") from None
                if not math.isfinite(value):
                    raise ValidationError(
                        f"{path}: line {lineno}, column {name!r}: "
                        f"non-finite cell {cell.strip()!r}")
                columns[name].append(value)
        if not columns[names[0]]:
            raise ValidationError(f"{path}: no data rows")
    return Dataset(columns, id=id if id is not None else path.stem, variable_names=names)


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset as CSV at full float precision."""
    names = data.variable_names
    for name in names:
        if not name or name != name.strip():
            raise ValidationError(
                f"variable name {name!r} is empty or has surrounding whitespace, "
                f"which load_dataset strips")
    if names[0].startswith("\ufeff"):
        raise ValidationError(
            f"first variable name {names[0]!r} begins with U+FEFF, "
            f"which load_dataset reads as a byte-order mark")
    cols = [data.column(v) for v in names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        # a finite float's repr holds no character csv would quote, and
        # csv.writer ends its lines with \r\n: the bytes of a per-row writer
        for start in range(0, data.n, _ROWS_PER_BLOCK):
            cells = [map(repr, c[start:start + _ROWS_PER_BLOCK].tolist()) for c in cols]
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")


def load_graph(path, nodes=None) -> Dag:
    """Read an edge-list graph file; optionally check the exact node set."""
    path = Path(path)
    seen_nodes: list[str] = []
    seen_set: set[str] = set()
    edges: list[tuple[str, str]] = []

    def note(name: str):
        if name not in seen_set:
            seen_set.add(name)
            seen_nodes.append(name)

    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" in line:
                parts = [p.strip() for p in line.split("->")]
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ValidationError(
                        f"{path}: line {lineno}: expected 'parent -> child', got {raw.strip()!r}")
                note(parts[0])
                note(parts[1])
                edges.append((parts[0], parts[1]))
            else:
                if any(ch.isspace() for ch in line):
                    raise ValidationError(
                        f"{path}: line {lineno}: expected 'parent -> child' or a "
                        f"single node name, got {raw.strip()!r}")
                note(line)
    if nodes is not None:
        expected = set(nodes)
        if expected != seen_set:
            missing = sorted(expected - seen_set)
            extra = sorted(seen_set - expected)
            raise ValidationError(
                f"{path}: node set mismatch (missing {missing}, unexpected {extra})")
    return Dag(seen_nodes, edges)


def save_graph(g: Dag, path) -> None:
    """Write an edge-list graph file that ``load_graph`` reads back as ``g``."""
    linked = {n for edge in g.edges for n in edge}
    for n in g.nodes:
        if not n or n != n.strip() or any(s in n for s in ("#", "->", "\n", "\r")):
            raise ValidationError(
                f"node name {n!r} is empty, has surrounding whitespace, or holds "
                f"'#', '->' or a line break, which load_graph cannot read back")
        if n not in linked and any(ch.isspace() for ch in n):
            raise ValidationError(
                f"isolated node name {n!r} holds whitespace, which load_graph "
                f"cannot read back")
    lines = [f"{u} -> {v}\n" for u, v in sorted(g.edges)]
    lines += [f"{n}\n" for n in g.nodes if n not in linked]
    if lines and lines[0].startswith("\ufeff"):
        raise ValidationError(
            f"first line {lines[0].strip()!r} begins with U+FEFF, "
            f"which load_graph reads as a byte-order mark")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def sachs_expert_graph() -> Dag:
    """The bundled 11-node expert consensus protein-signaling network."""
    ref = resources.files("scmdist").joinpath("resources/sachs_expert_graph.txt")
    with resources.as_file(ref) as path:
        return load_graph(path)


def _pair_key(i: str, j: str) -> str:
    return f"{i}->{j}"


def report_to_dict(report: DistanceReport) -> dict:
    return {
        "kind": report.kind,
        "value": report.value,
        "dataset_ids": list(report.dataset_ids),
        "pair_terms": {_pair_key(i, j): v for (i, j), v in sorted(report.pair_terms.items())},
        "config": dict(report.config_echo),
        "version": __version__,
    }


def matrix_to_dict(matrix: PairwiseMatrix) -> dict:
    return {
        "kind": "pairwise",
        "metric": matrix.metric,
        "ids": list(matrix.ids),
        "values": matrix.values.tolist(),
        "version": __version__,
    }


def _json_number(obj):
    """json.dumps's hook for objects it cannot encode: a numpy scalar becomes
    the Python number it holds."""
    if isinstance(obj, numbers.Number) and hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_report(result: DistanceReport | PairwiseMatrix, format: str = "json") -> str:
    """Serialize a result to a deterministic JSON or CSV string."""
    if format not in ("json", "csv"):
        raise ValidationError(f"format must be 'json' or 'csv', got {format!r}")
    if format == "json":
        payload = (matrix_to_dict(result) if isinstance(result, PairwiseMatrix)
                   else report_to_dict(result))
        return json.dumps(payload, sort_keys=True, indent=2, default=_json_number) + "\n"
    # csv.writer quotes a field holding a comma, a quote or a line break
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(result, PairwiseMatrix):
        writer.writerow(["id", *result.ids])
        for label, row in zip(result.ids, result.values):
            writer.writerow([label, *map(repr, row.tolist())])
    else:
        writer.writerow(["term", "value"])
        writer.writerow([result.kind, repr(float(result.value))])
        for (i, j), v in sorted(result.pair_terms.items()):
            writer.writerow([_pair_key(i, j), repr(float(v))])
    return out.getvalue()


def write_report(result: DistanceReport | PairwiseMatrix, path, format: str = "json") -> None:
    """Write a distance report or pairwise matrix to disk."""
    Path(path).write_text(render_report(result, format), encoding="utf-8")
