import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import gf2
from stabkit.gf2 import BitMatrix, BitVector

# boundary matrix of the 4-vertex / 5-edge / 2-face disk complex
# (edges e12, e23, e34, e41, e24; rows are vertices v1..v4)
DISK_D1 = [
    [1, 0, 0, 1, 0],
    [1, 1, 0, 0, 1],
    [0, 1, 1, 0, 0],
    [0, 0, 1, 1, 1],
]

FIVE_QUBIT_PARITY = [
    # (X|Z) rows of XZZXI, IXZZX, XIXZZ, ZXIXZ
    [1, 0, 0, 1, 0, 0, 1, 1, 0, 0],
    [0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
    [1, 0, 1, 0, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 0, 0, 1],
]


def test_rank_identity():
    assert gf2.rank(BitMatrix.identity(4)) == 4


def test_rank_disk_boundary():
    assert gf2.rank(BitMatrix.from_rows(DISK_D1)) == 3


def test_rank_zero_matrix():
    assert gf2.rank(BitMatrix(3, 7)) == 0


def test_kernel_identity_empty():
    assert gf2.kernel_basis(BitMatrix.identity(3)) == []


def test_kernel_disk_boundary():
    m = BitMatrix.from_rows(DISK_D1)
    basis = gf2.kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert m.mat_vec(v).is_zero()


def test_kernel_single_row():
    basis = gf2.kernel_basis(BitMatrix.from_rows([[1, 1]]))
    assert [v.to_bits() for v in basis] == [[1, 1]]


def test_row_reduce_dependent_rows():
    rref, pivots = gf2.row_reduce(BitMatrix.from_rows([[1, 1], [1, 1]]))
    assert rref.to_lists() == [[1, 1], [0, 0]]
    assert pivots == [0]


def test_row_reduce_identity():
    n = 6
    rref, pivots = gf2.row_reduce(BitMatrix.identity(n))
    assert rref == BitMatrix.identity(n)
    assert pivots == list(range(n))


def test_row_reduce_five_qubit_parity_full_rank():
    rref, pivots = gf2.row_reduce(BitMatrix.from_rows(FIVE_QUBIT_PARITY))
    assert len(pivots) == 4
    assert pivots == sorted(pivots)


def test_in_rowspace_zero_vector():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert gf2.in_rowspace(m, BitVector(3))


def test_in_rowspace_combination():
    m = BitMatrix.from_rows([[1, 0], [0, 1]])
    assert gf2.in_rowspace(m, BitVector.from_bits([1, 1]))


def test_in_rowspace_rejects():
    m = BitMatrix.from_rows([[1, 1, 0]])
    assert not gf2.in_rowspace(m, BitVector.from_bits([1, 0, 0]))


def test_in_rowspace_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.in_rowspace(BitMatrix.identity(3), BitVector(4))


def test_shor_z1z2_in_rowspace():
    # Z1Z2 is itself the first Z-type Shor check, so its image is in the span
    from stabkit import catalog

    code = catalog.make_shor().code
    z1z2 = code.generators[0].symplectic()
    assert gf2.in_rowspace(code.parity_check, z1z2)


def test_padding_bits_stay_zero_across_word_boundary():
    v = BitVector(70)
    v.set(69, 1)
    w = BitVector(70)
    w.set(0, 1)
    x = v ^ w
    assert x.popcount() == 2
    assert x.get(69) == 1 and x.get(0) == 1


@st.composite
def bit_matrices(draw):
    rows = draw(st.integers(1, 16))
    cols = draw(st.integers(1, 128))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return BitMatrix.from_rows(bits, cols)


@settings(max_examples=60, deadline=None)
@given(bit_matrices())
def test_rank_nullity(m):
    assert gf2.rank(m) + len(gf2.kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(bit_matrices())
def test_kernel_vectors_annihilate(m):
    for v in gf2.kernel_basis(m):
        assert m.mat_vec(v).is_zero()


@settings(max_examples=60, deadline=None)
@given(bit_matrices())
def test_rows_in_own_rowspace(m):
    rs = gf2.RowSpace(m)
    for i in range(m.rows):
        assert rs.contains(m.row(i))


@settings(max_examples=40, deadline=None)
@given(bit_matrices())
def test_rank_matches_numpy_gauss(m):
    # independent dense elimination over GF(2)
    a = np.array(m.to_lists(), dtype=np.uint8)
    rank = 0
    for col in range(a.shape[1]):
        piv = None
        for r in range(rank, a.shape[0]):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(a.shape[0]):
            if r != rank and a[r, col]:
                a[r] ^= a[rank]
        rank += 1
    assert gf2.rank(m) == rank


def per_pivot_reduce(rref, pivots, v):
    """Reference: clear v's bit at each pivot in turn with that pivot's row."""
    r = v.copy()
    for prow, pcol in enumerate(pivots):
        if r.get(pcol):
            r.data ^= rref.data[prow]
    return r


@settings(max_examples=60, deadline=None)
@given(bit_matrices(), st.data())
def test_reduce_against_matches_per_pivot_loop(m, data):
    rref, pivots = gf2.row_reduce(m)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=m.cols, max_size=m.cols))
    # a random vector, and one built from the rows so that it reduces to zero
    picks = data.draw(st.lists(st.integers(0, 1), min_size=m.rows, max_size=m.rows))
    member = BitVector(m.cols)
    for i in np.flatnonzero(picks):
        member ^= m.row(int(i))
    for v in (BitVector.from_bits(bits), member):
        got = gf2._reduce_against(rref, pivots, v)
        assert got == per_pivot_reduce(rref, pivots, v)
    assert gf2._reduce_against(rref, pivots, member).is_zero()
