"""Z2 cellular homology on lattices and their duals.

Edges are stored as tuples of incident vertices. In relative complexes
(planar codes, where the rough-boundary columns are quotiented away) an
edge may keep fewer than two endpoints; its boundary is the sum of the
survivors. Orientations are irrelevant over Z2.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from . import gf2
from ._record import Record
from .gf2 import BitMatrix, BitVector
from .pauli import PauliWord
from .stabilizer import LogicalOperators


class CellComplex(Record):
    _fields = ("n_vertices", "edges", "faces")
    __slots__ = _fields + ("__dict__",)  # the dict holds the cached boundaries

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, ...], ...],
                 faces: tuple[tuple[int, ...], ...]):
        self._fill(n_vertices, edges, faces)

    @cached_property
    def boundary1(self) -> BitMatrix:
        """vertices x edges incidence over Z2."""
        return BitMatrix.from_rows(_chains(self.edges, self.n_vertices).T, len(self.edges))

    @cached_property
    def boundary2(self) -> BitMatrix:
        """edges x faces incidence over Z2."""
        return BitMatrix.from_rows(_chains(self.faces, len(self.edges)).T, len(self.faces))

    def violations(self) -> list[str]:
        out = []
        for f, col in enumerate(_chains(self.faces, len(self.edges))):
            image = self.boundary1.mat_vec(BitVector.from_bits(col))
            if not image.is_zero():
                out.append(f"face {f} is not a closed walk (boundary nonzero)")
        return out


def _chains(cells, length: int) -> np.ndarray:
    """Z2 indicator rows: row j sums the unit vectors of the indices in
    cells[j], so an index listed twice cancels."""
    rows = np.array([j for j, cell in enumerate(cells) for _ in cell], dtype=np.intp)
    cols = np.array([i for cell in cells for i in cell], dtype=np.intp)
    counts = np.zeros((len(cells), length), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts & 1


def homology_rank(complex_: CellComplex, degree: int) -> int:
    """Z2 Betti number: dim ker(d_degree) - rank(d_degree+1), with d_0 = 0."""
    if degree == 0:
        return complex_.n_vertices - gf2.rank(complex_.boundary1)
    if degree == 1:
        ker = len(complex_.edges) - gf2.rank(complex_.boundary1)
        return ker - gf2.rank(complex_.boundary2)
    raise ValueError("degree must be 0 or 1")


def dual_complex(c: CellComplex) -> CellComplex:
    """Swap the roles of vertices and faces; edges map one-to-one.

    A dual edge keeps one endpoint per primal face containing it, so open
    (relative) complexes dualize to open complexes and dual-of-dual
    restores the original incidence structure.
    """
    edge_faces: list[list[int]] = [[] for _ in c.edges]
    for f, face in enumerate(c.faces):
        for e in face:
            edge_faces[e].append(f)
    vertex_edges: list[list[int]] = [[] for _ in range(c.n_vertices)]
    for j, ends in enumerate(c.edges):
        for v in set(ends):
            vertex_edges[v].append(j)
    return CellComplex(
        n_vertices=len(c.faces),
        edges=tuple(tuple(fs) for fs in edge_faces),
        faces=tuple(tuple(es) for es in vertex_edges),
    )


class Lattice(Record):
    """`boundary_kind` is "toric" or "planar"; `qubit_edges` maps edge index
    to qubit index."""

    __slots__ = _fields = ("rows", "cols", "boundary_kind", "complex", "dual", "qubit_edges")

    def __init__(self, rows: int, cols: int, boundary_kind: str, complex: CellComplex,
                 dual: CellComplex, qubit_edges: tuple[int, ...]):
        self._fill(rows, cols, boundary_kind, complex, dual, qubit_edges)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_edges)


# toric edge indexing: row blocks of n horizontals then n verticals
def _th(m: int, n: int, r: int, c: int) -> int:
    return 2 * n * (r % m) + (c % n)


def _tv(m: int, n: int, r: int, c: int) -> int:
    return 2 * n * (r % m) + n + (c % n)


def build_toric(m: int, n: int) -> Lattice:
    """Periodic m x n lattice; 2mn edge qubits, mn faces, mn vertices."""
    if m < 2 or n < 2:
        raise ValueError("toric lattice needs m, n >= 2 (smaller sizes produce repeated edges)")
    vid = lambda r, c: (r % m) * n + (c % n)
    edges: list[tuple[int, ...]] = [()] * (2 * m * n)
    for r in range(m):
        for c in range(n):
            edges[_th(m, n, r, c)] = (vid(r, c), vid(r, c + 1))
            edges[_tv(m, n, r, c)] = (vid(r, c), vid(r + 1, c))
    faces = []
    for r in range(m):
        for c in range(n):
            faces.append((
                _th(m, n, r, c),
                _tv(m, n, r, c + 1),
                _th(m, n, r + 1, c),
                _tv(m, n, r, c),
            ))
    cx = CellComplex(m * n, tuple(edges), tuple(faces))
    return Lattice(m, n, "toric", cx, dual_complex(cx), tuple(range(2 * m * n)))


# planar edge indexing: row blocks of n horizontals then n-1 interior verticals
def _ph(n: int, r: int, c: int) -> int:
    return r * (2 * n - 1) + c


def _pv(n: int, r: int, c: int) -> int:
    return r * (2 * n - 1) + n + (c - 1)


def build_planar(m: int, n: int) -> Lattice:
    """Open m x n lattice with qubits on every edge except the vertical
    boundary edges; the rough-boundary columns are quotiented away, so the
    stored complex is the relative one."""
    if m < 1 or n < 1:
        raise ValueError("planar lattice needs m, n >= 1")
    n_qubits = 2 * m * n + n - m

    def vid(r: int, c: int) -> int | None:
        # surviving (interior-column) vertices only
        if 1 <= c <= n - 1:
            return r * (n - 1) + (c - 1)
        return None

    edges: list[tuple[int, ...]] = [()] * n_qubits
    for r in range(m + 1):
        for c in range(n):
            ends = tuple(v for v in (vid(r, c), vid(r, c + 1)) if v is not None)
            edges[_ph(n, r, c)] = ends
    for r in range(m):
        for c in range(1, n):
            edges[_pv(n, r, c)] = (vid(r, c), vid(r + 1, c))
    faces = []
    for r in range(m):
        for c in range(n):
            face = [_ph(n, r, c), _ph(n, r + 1, c)]
            if c >= 1:
                face.append(_pv(n, r, c))
            if c + 1 <= n - 1:
                face.append(_pv(n, r, c + 1))
            faces.append(tuple(face))
    cx = CellComplex((m + 1) * (n - 1), tuple(edges), tuple(faces))
    return Lattice(m, n, "planar", cx, dual_complex(cx), tuple(range(n_qubits)))


def _word_on_edges(n_qubits: int, edge_ids, letter: str) -> PauliWord:
    bits = np.zeros(n_qubits, dtype=np.uint8)
    bits[list(edge_ids)] = 1
    on, off = BitVector.from_bits(bits), BitVector(n_qubits)
    return PauliWord(n_qubits, on, off) if letter == "X" else PauliWord(n_qubits, off, on)


def stabilizers_from_lattice(lat: Lattice) -> list[PauliWord]:
    """Plaquette-Z words (primal faces) then star-X words (dual faces).

    For toric lattices the product of all plaquettes (and of all stars) is
    the identity, so the highest-index face and star are dropped.
    """
    nq = lat.n_qubits
    z_faces = list(lat.complex.faces)
    x_faces = list(lat.dual.faces)
    if lat.boundary_kind == "toric":
        z_faces = z_faces[:-1]
        x_faces = x_faces[:-1]
    words = [_word_on_edges(nq, face, "Z") for face in z_faces]
    words += [_word_on_edges(nq, face, "X") for face in x_faces]
    return words


def logical_cycles(lat: Lattice) -> LogicalOperators:
    """Canonical logical pairs from non-bounding cycles.

    Toric: two pairs, routed through row 0 and column 0, of weight m, n,
    m and n. Planar: one pair, the row-0 horizontal Z chain
    (weight n) and the column-0 vertical dual X chain, which crosses the
    m+1 horizontal edges of column 0.
    """
    m, n, nq = lat.rows, lat.cols, lat.n_qubits
    if lat.boundary_kind == "toric":
        z_row = [_th(m, n, 0, c) for c in range(n)]           # primal cycle c_h
        z_col = [_tv(m, n, r, 0) for r in range(m)]           # primal cycle c_v
        x_col = [_th(m, n, r, 0) for r in range(m)]           # dual cycle d_v
        x_row = [_tv(m, n, 0, c) for c in range(n)]           # dual cycle d_h
        pairs = (
            (_word_on_edges(nq, x_col, "X"), _word_on_edges(nq, z_row, "Z")),
            (_word_on_edges(nq, x_row, "X"), _word_on_edges(nq, z_col, "Z")),
        )
        return LogicalOperators(pairs)
    z_row = [_ph(n, 0, c) for c in range(n)]
    x_col = [_ph(n, r, 0) for r in range(m + 1)]
    return LogicalOperators(((
        _word_on_edges(nq, x_col, "X"),
        _word_on_edges(nq, z_row, "Z"),
    ),))
