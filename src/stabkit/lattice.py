"""Z2 cellular homology on lattices and their duals.

Edges are stored as tuples of incident vertices. In relative complexes
(planar codes, where the rough-boundary columns are quotiented away) an
edge may keep fewer than two endpoints; its boundary is the sum of the
survivors. Orientations are irrelevant over Z2.

Both lattices are a product X x Y of two 1-D complexes, each given as a
vertex count and its edges' endpoint tuples. Toric is cycle(m) x cycle(n);
planar is path(m) x path(n) relative to its two end vertices (the rough
boundary). Vertices are X0 x Y0. Edges are the horizontals X0 x Y1 and the
verticals X1 x Y0, row by row, each row's horizontals first. Faces are
X1 x Y1, with boundary d(a x b) = da x b + a x db. The logical pairs come
from Kuenneth, H1 = H0(X) x H1(Y) + H1(X) x H0(Y): for each closed factor,
Z runs along its cycle at the other factor's vertex 0, and X sits on its
edge 0 at every vertex of the other factor.
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
        chains = _chains(self.edges, self.n_vertices)
        return BitMatrix(self.n_vertices, len(self.edges), gf2._pack(chains.T))

    @cached_property
    def boundary2(self) -> BitMatrix:
        """edges x faces incidence over Z2."""
        chains = _chains(self.faces, len(self.edges))
        return BitMatrix(len(self.edges), len(self.faces), gf2._pack(chains.T))

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
    counts = np.zeros((len(cells), length), dtype=np.uint8)  # parity survives wrap-around
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
    to qubit index and is the identity for both builders."""

    __slots__ = _fields = ("rows", "cols", "boundary_kind", "complex", "dual", "qubit_edges")

    def __init__(self, rows: int, cols: int, boundary_kind: str, complex: CellComplex,
                 dual: CellComplex, qubit_edges: tuple[int, ...]):
        self._fill(rows, cols, boundary_kind, complex, dual, qubit_edges)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_edges)


def _factors(m: int, n: int, kind: str):
    """The row factor X and the column factor Y of an m x n lattice."""
    if kind == "toric":
        return tuple((k, tuple((i, (i + 1) % k) for i in range(k))) for k in (m, n))
    path = (m + 1, tuple((i, i + 1) for i in range(m)))
    # path of n edges with both end vertices dropped; vertex c is old vertex c + 1
    relative = (n - 1, tuple(tuple(v for v in (c - 1, c) if 0 <= v < n - 1) for c in range(n)))
    return path, relative


def _h(y, a: int, b: int) -> int:
    """Edge id of the horizontal edge a x b: vertex a of X, edge b of Y."""
    return a * (y[0] + len(y[1])) + b


def _v(y, a: int, c: int) -> int:
    """Edge id of the vertical edge a x c: edge a of X, vertex c of Y."""
    return a * (y[0] + len(y[1])) + len(y[1]) + c


def _product(m: int, n: int, kind: str) -> Lattice:
    x, y = _factors(m, n, kind)
    (nx, x_edges), (ny, y_edges) = x, y
    edges: list[tuple[int, ...]] = []
    for a in range(nx):  # X has as many vertices as edges, or one more
        edges += [tuple(a * ny + c for c in ends) for ends in y_edges]
        if a < len(x_edges):
            edges += [tuple(u * ny + c for u in x_edges[a]) for c in range(ny)]
    faces = tuple(
        tuple(_h(y, u, b) for u in a_ends) + tuple(_v(y, a, c) for c in b_ends)
        for a, a_ends in enumerate(x_edges)
        for b, b_ends in enumerate(y_edges)
    )
    cx = CellComplex(nx * ny, tuple(edges), faces)
    return Lattice(m, n, kind, cx, dual_complex(cx), tuple(range(len(edges))))


def build_toric(m: int, n: int) -> Lattice:
    """Periodic m x n lattice; 2mn edge qubits, mn faces, mn vertices."""
    if m < 2 or n < 2:
        raise ValueError("toric lattice needs m, n >= 2 (smaller sizes produce repeated edges)")
    return _product(m, n, "toric")


def build_planar(m: int, n: int) -> Lattice:
    """Open m x n lattice with qubits on every edge except the vertical
    boundary edges, which the relative complex quotients away."""
    if m < 1 or n < 1:
        raise ValueError("planar lattice needs m, n >= 1")
    return _product(m, n, "planar")


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
    """Canonical logical pairs by Kuenneth, Y's pair first: toric has two, of
    weight m, n, m and n; planar has one, X of weight m+1 and Z of weight n."""
    x, y = _factors(lat.rows, lat.cols, lat.boundary_kind)
    nq = lat.n_qubits
    pairs = []
    # a pair for each factor f whose edges sum to a (relative) cycle;
    # cell(u, e) is the edge id of vertex u of the other factor times edge e of f
    for f, other, cell in ((y, x, lambda u, e: _h(y, u, e)), (x, y, lambda u, e: _v(y, e, u))):
        if not _chains(([v for ends in f[1] for v in ends],), f[0]).any():
            pairs.append((_word_on_edges(nq, [cell(u, 0) for u in range(other[0])], "X"),
                          _word_on_edges(nq, [cell(0, e) for e in range(len(f[1]))], "Z")))
    return LogicalOperators(tuple(pairs))
