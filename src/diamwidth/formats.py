"""Graph serialization: graph6, plain edge-list text, JSON label sidecars.

graph6 follows the published byte format: N(n) is a single byte n+63 for
n <= 62, or '~' followed by three bytes encoding 18 bits for n <= 258047;
the upper triangle x(0,1), x(0,2), x(1,2), x(0,3), ... is packed into
6-bit groups, most significant bit first, zero-padded, each group +63.
The optional ``>>graph6<<`` header is accepted on input.
"""

from __future__ import annotations

import json

from .graphs import Graph, graph_from_edges

GRAPH6_HEADER = ">>graph6<<"


class FormatError(ValueError):
    """Malformed serialized graph; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    raise ValueError(f"graph6 supports at most 258047 vertices, got {n}")


def _decode_n(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise FormatError("missing size byte", pos)
    b = data[pos]
    if b == 126:
        if pos + 3 >= len(data):
            raise FormatError("truncated extended size", len(data))
        if data[pos + 1] == 126:
            raise FormatError("graph6 sizes above 258047 not supported", pos)
        chunk = data[pos + 1 : pos + 4]
        for i, c in enumerate(chunk):
            if not 63 <= c <= 126:
                raise FormatError(f"invalid size byte {c}", pos + 1 + i)
        n = ((chunk[0] - 63) << 12) | ((chunk[1] - 63) << 6) | (chunk[2] - 63)
        return n, pos + 4
    if not 63 <= b <= 125:
        raise FormatError(f"invalid size byte {b}", pos)
    return b - 63, pos + 1


def to_graph6(g: Graph) -> str:
    out = bytearray(_encode_n(g.n))
    bits = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            bits = (bits << 1) | ((g.adj[u] >> v) & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return out.decode("ascii")


def from_graph6(text: str | bytes) -> Graph:
    try:
        data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:
        raise FormatError("non-ASCII byte in graph6 input", exc.start) from exc
    pos = 0
    if data.startswith(GRAPH6_HEADER.encode("ascii")):
        pos = len(GRAPH6_HEADER)
    data = data.rstrip(b"\r\n")
    n, pos = _decode_n(data, pos)
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[pos : pos + need]
    if len(body) < need:
        raise FormatError("truncated adjacency bits", len(data))
    if len(data) > pos + need:
        raise FormatError("trailing bytes after graph6 body", pos + need)
    adj = [0] * n
    idx = 0
    for off, byte in enumerate(body):
        if not 63 <= byte <= 126:
            raise FormatError(f"invalid body byte {byte}", pos + off)
        group = byte - 63
        for k in range(5, -1, -1):
            if idx >= n * (n - 1) // 2:
                if (group >> k) & 1:
                    raise FormatError("nonzero padding bit", pos + off)
                continue
            if (group >> k) & 1:
                u, v = _pair_at(idx)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(adj))


def _pair_at(idx: int) -> tuple[int, int]:
    # idx-th upper-triangle cell in column-major order: (0,1),(0,2),(1,2),...
    v = 1
    while v * (v - 1) // 2 <= idx:
        v += 1
    v -= 1
    return idx - v * (v - 1) // 2, v


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> Graph:
    rows = []  # (byte offset, fields) of each line that is not blank or a comment
    offset = 0
    for ln in text.splitlines(keepends=True):
        if ln.strip() and not ln.startswith("#"):
            rows.append((offset, ln.split()))
        offset += len(ln.encode("utf-8"))
    if not rows:
        raise FormatError("empty edge list", 0)
    n, m = _int_pair(*rows[0], "header must be 'n m'")
    if len(rows) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(rows) - 1}", 0)
    return graph_from_edges(n, [_int_pair(*row, "edge line must be 'u v'") for row in rows[1:]])


def _int_pair(offset: int, fields: list[str], message: str) -> tuple[int, int]:
    try:
        a, b = map(int, fields)
    except ValueError:
        raise FormatError(message, offset) from None
    return a, b


def labels_to_json(g: Graph) -> str:
    return json.dumps({str(v): lab for v, lab in g.labels}, indent=0, sort_keys=True)


def labels_from_json(text: str) -> dict[int, str]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", len(text[: exc.pos].encode())) from None
    if not isinstance(raw, dict) or not all(k.lstrip("-").isdecimal() for k in raw):
        raise FormatError("labels must be a JSON object of vertex id -> label", 0)
    return {int(k): str(v) for k, v in raw.items()}


def write_graph(path: str, g: Graph, fmt: str, labels_path: str | None = None) -> None:
    if fmt == "graph6":
        payload = to_graph6(g) + "\n"
    elif fmt == "edgelist":
        payload = to_edgelist(g)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(payload)
    if labels_path:
        with open(labels_path, "w", encoding="utf-8") as fh:
            fh.write(labels_to_json(g))


def read_graph(path: str, fmt: str | None = None, labels_path: str | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt is None:
        fmt = "edgelist" if path.endswith((".el", ".edges", ".txt")) else "graph6"
    g = from_graph6(text.strip()) if fmt == "graph6" else from_edgelist(text)
    if labels_path:
        with open(labels_path, "r", encoding="utf-8") as fh:
            g = g.with_labels(labels_from_json(fh.read()))
    return g
