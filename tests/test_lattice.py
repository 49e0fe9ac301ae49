import hashlib

import pytest

from stabkit import catalog, gf2, pauli, stabilizer as stab
from stabkit.lattice import (
    CellComplex,
    build_planar,
    build_toric,
    dual_complex,
    homology_rank,
    logical_cycles,
    stabilizers_from_lattice,
)

# the 4-vertex disk: edges e12, e23, e34, e41, e24 and two triangular faces
DISK = CellComplex(4, ((0, 1), (1, 2), (2, 3), (3, 0), (1, 3)), ((3, 0, 4), (1, 2, 4)))

# same complex after the torus identifications: one vertex, three loops,
# two faces with equal Z2 boundary
TORUS = CellComplex(1, ((0, 0), (0, 0), (0, 0)), ((0, 2, 1), (1, 0, 2)))

# tori with a side of 2 and with unequal sides; planar strips one column
# wide (1x1, 3x1), whose relative path has no vertices and so no X checks
LATTICES = [
    ("toric", 2, 2), ("toric", 2, 3), ("toric", 2, 5), ("toric", 3, 3), ("toric", 4, 3),
    ("planar", 1, 1), ("planar", 1, 2), ("planar", 2, 3), ("planar", 3, 1), ("planar", 2, 4),
]


def _build(kind, m, n):
    return (build_toric if kind == "toric" else build_planar)(m, n)


def test_disk_homology():
    assert homology_rank(DISK, 1) == 0
    assert homology_rank(DISK, 0) == 1


def test_torus_homology():
    assert homology_rank(TORUS, 1) == 2
    assert homology_rank(TORUS, 0) == 1


def test_homology_rejects_degree_2():
    with pytest.raises(ValueError):
        homology_rank(DISK, 2)


def test_disk_faces_closed():
    assert DISK.violations() == []


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (5, 5)])
def test_toric_counts(m, n):
    lat = build_toric(m, n)
    assert lat.n_qubits == 2 * m * n
    assert len(lat.complex.faces) == m * n
    assert lat.complex.n_vertices == m * n
    gens = stabilizers_from_lattice(lat)
    assert len(gens) == 2 * m * n - 2
    code = stab.StabilizerCode(f"toric:{m}x{n}", gens)
    assert stab.validate(code) == []
    assert code.num_logical_qubits() == 2


def test_toric_5x5_paper_counts():
    lat = build_toric(5, 5)
    assert lat.n_qubits == 50
    assert len(stabilizers_from_lattice(lat)) == 48


def test_toric_rejects_small():
    with pytest.raises(ValueError):
        build_toric(1, 4)
    with pytest.raises(ValueError):
        build_toric(3, 1)


@pytest.mark.parametrize(
    "m,n", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 5), (2, 1), (5, 1)]
)
def test_planar_counts(m, n):
    lat = build_planar(m, n)
    assert lat.n_qubits == 2 * m * n + n - m
    gens = stabilizers_from_lattice(lat)
    z_gens = [g for g in gens if g.x_bits.is_zero()]
    x_gens = [g for g in gens if g.z_bits.is_zero() and not g.x_bits.is_zero()]
    assert len(z_gens) == m * n
    assert len(x_gens) == (m + 1) * (n - 1)
    code = stab.StabilizerCode(f"planar:{m}x{n}", gens)
    assert stab.validate(code) == []
    assert code.num_logical_qubits() == 1


def test_planar_1x2_paper_example():
    lat = build_planar(1, 2)
    gens = stabilizers_from_lattice(lat)
    assert [pauli.format_word(g) for g in gens] == ["ZIZZI", "IZZIZ", "XXXII", "IIXXX"]
    ops = logical_cycles(lat)
    (xbar, zbar) = ops.pairs[0]
    assert pauli.format_word(xbar) == "XIIXI"  # X0 X3
    assert pauli.format_word(zbar) == "ZZIII"  # Z0 Z1


@pytest.mark.parametrize(
    "cx", [DISK, TORUS] + [getattr(_build(*p), side) for p in LATTICES for side in ("complex", "dual")]
)
def test_boundary_composition_vanishes(cx):
    d1, d2 = cx.boundary1, cx.boundary2
    for f in range(d2.cols):
        col = gf2.BitVector(d2.rows)
        for e in range(d2.rows):
            col.set(e, d2.get(e, f))
        assert d1.mat_vec(col).is_zero()


def test_faces_closed_walks():
    for cx in (build_toric(3, 2).complex, build_planar(2, 2).complex):
        assert cx.violations() == []


@pytest.mark.parametrize("cx", [DISK, TORUS, build_toric(3, 4).complex, build_planar(2, 3).complex])
def test_dual_faces_list_incident_edges_once_in_edge_order(cx):
    expected = tuple(
        tuple(j for j, ends in enumerate(cx.edges) if v in ends) for v in range(cx.n_vertices)
    )
    assert dual_complex(cx).faces == expected


@pytest.mark.parametrize("build,args", [(build_toric, (2, 3)), (build_planar, (2, 3))])
def test_dual_of_dual_restores_incidence(build, args):
    lat = build(*args)
    dd = dual_complex(lat.dual)
    assert dd.n_vertices == lat.complex.n_vertices
    assert len(dd.edges) == len(lat.complex.edges)
    assert all(sorted(a) == sorted(b) for a, b in zip(dd.edges, lat.complex.edges))
    assert all(sorted(a) == sorted(b) for a, b in zip(dd.faces, lat.complex.faces))


@pytest.mark.parametrize("build,args", [(build_toric, (3, 3)), (build_planar, (2, 3))])
def test_star_words_equal_dual_plaquettes(build, args):
    lat = build(*args)
    gens = stabilizers_from_lattice(lat)
    x_words = [g for g in gens if g.z_bits.is_zero() and not g.x_bits.is_zero()]
    dual_faces = list(lat.dual.faces)
    if lat.boundary_kind == "toric":
        dual_faces = dual_faces[:-1]
    assert len(x_words) == len(dual_faces)
    for word, face in zip(x_words, dual_faces):
        assert sorted(word.support()) == sorted(face)


def test_stabilizers_pairwise_commute():
    for lat in (build_toric(2, 3), build_planar(3, 2)):
        gens = stabilizers_from_lattice(lat)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert pauli.commutes(gens[i], gens[j])


def test_toric_logical_weights():
    for m, n in ((2, 2), (2, 3), (3, 4)):
        ops = logical_cycles(build_toric(m, n))
        weights = sorted(pauli.weight(w) for pair in ops.pairs for w in pair)
        assert weights == sorted([m, n, m, n])


def test_planar_logical_weights():
    for m, n in ((1, 2), (2, 2), (2, 3)):
        ops = logical_cycles(build_planar(m, n))
        (xbar, zbar) = ops.pairs[0]
        assert pauli.weight(zbar) == n
        assert pauli.weight(xbar) == m + 1


def test_logicals_commute_with_stabilizers():
    for lat in (build_toric(2, 3), build_planar(2, 3)):
        gens = stabilizers_from_lattice(lat)
        code = stab.StabilizerCode("lat", gens)
        assert logical_cycles(lat).violations(code) == []


@pytest.mark.parametrize("kind,m,n", LATTICES)
def test_homology_equals_logical_count(kind, m, n):
    lat = _build(kind, m, n)
    k = stab.StabilizerCode("lat", stabilizers_from_lattice(lat)).num_logical_qubits()
    assert k == (2 if kind == "toric" else 1)
    assert homology_rank(lat.complex, 1) == homology_rank(lat.dual, 1) == k == len(logical_cycles(lat).pairs)


def test_generator_and_logical_order_pinned():
    """Any move in edge, generator or logical order changes this digest of
    every toric m x n (2 <= m, n <= 8) and planar m x n (1 <= m, n <= 8)."""
    h = hashlib.sha256()
    for build, sizes in ((build_toric, range(2, 9)), (build_planar, range(1, 9))):
        for m in sizes:
            for n in sizes:
                lat = build(m, n)
                pairs = logical_cycles(lat).pairs
                words = stabilizers_from_lattice(lat) + [w for pair in pairs for w in pair]
                h.update((" ".join(pauli.format_word(w) for w in words) + "\n").encode())
    assert h.hexdigest() == "6e4c6cedce8ed8c62d0981b3d54c2130ffbfca5c25ae2da03e24889a634b81f5"


@pytest.mark.parametrize(
    "bundle,expected",
    [
        (catalog.make_toric(2, 2), 2),
        (catalog.make_planar(1, 2), 2),
        (catalog.make_planar(2, 2), 2),
    ],
)
def test_distance_by_construction(bundle, expected):
    assert bundle.params[2] == expected
    assert stab.distance(bundle.code, 4) == expected
