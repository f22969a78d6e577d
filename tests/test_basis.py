import numpy as np
import pytest

from geamkit import (ValidationError, conjugate_basis, frame_operators,
                     gell_mann_basis, gell_mann_hermitian_basis, haar_unitary,
                     partition_basis, random_rank_k_coefficients)
from geamkit.linalg import random_hermitian

from conftest import LAYOUTS, assert_close

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def gram(flat):
    stack = np.array(flat).reshape(len(flat), -1)
    return (stack.conj() @ stack.T).real


def test_qubit_basis_is_paulis_over_sqrt2():
    g = gell_mann_basis(2)
    assert len(g) == 3
    assert_close(g[0], SX / np.sqrt(2), 1e-15, "sigma_x")
    assert_close(g[1], SY / np.sqrt(2), 1e-15, "sigma_y")
    assert_close(g[2], SZ / np.sqrt(2), 1e-15, "sigma_z")
    assert abs(np.trace(g[0] @ g[1])) < 1e-15


def test_qutrit_basis_normalization():
    g = gell_mann_basis(3)
    assert len(g) == 8
    for x in g:
        assert abs(np.trace(x @ x).real - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_full_gram_matrix_is_identity(d):
    flat = [np.eye(d, dtype=complex) / np.sqrt(d)] + gell_mann_basis(d)
    assert_close(gram(flat), np.eye(d * d), 1e-10, f"gram d={d}")


def test_invalid_dimension_rejected():
    with pytest.raises(ValidationError):
        gell_mann_basis(1)


def test_partition_layouts():
    basis = partition_basis(gell_mann_basis(2), [2, 2, 2])
    assert basis.m_sizes == (2, 2, 2)
    assert [g.shape[0] for g in basis.groups] == [1, 1, 1]

    basis = partition_basis(gell_mann_basis(3), [9])
    assert basis.n_groups == 1 and basis.groups[0].shape[0] == 8

    basis = partition_basis(gell_mann_basis(3), [3, 3, 3, 3])
    assert [g.shape[0] for g in basis.groups] == [2, 2, 2, 2]


def test_partition_accepts_array_basis():
    listed = partition_basis(gell_mann_basis(2), (2, 2, 2))
    stacked = partition_basis(np.array(gell_mann_basis(2)), (2, 2, 2))
    assert stacked.m_sizes == listed.m_sizes
    for a, b in zip(stacked.groups, listed.groups):
        assert np.array_equal(a, b)


def test_partition_errors():
    flat = gell_mann_basis(2)
    with pytest.raises(ValidationError):
        partition_basis(flat, [2, 2])          # covers 2 of 3 elements
    with pytest.raises(ValidationError):
        partition_basis(flat, [5])             # would need 4 elements
    with pytest.raises(ValidationError):
        partition_basis(flat, [1, 2, 2])       # M >= 2 required
    with pytest.raises(ValidationError):
        partition_basis(flat, [2, 2, 2.5])     # sizes are integers
    with pytest.raises(ValidationError):
        partition_basis([flat[0], flat[0], flat[2]], [2, 2, 2])  # not orthonormal


def test_qubit_frame_operators_match_closed_form():
    basis = partition_basis(gell_mann_basis(2), [2, 2, 2])
    frames = frame_operators(basis)
    g1 = SX / np.sqrt(2)
    r2 = np.sqrt(2)
    assert_close(frames[0][0], (1 - r2 * (1 + r2)) * g1, 1e-12, "H_11")
    assert_close(frames[0][1], (1 + r2) * g1, 1e-12, "H_12")
    # cross-group frame operators live on disjoint orthonormal supports
    assert abs(np.trace(frames[0][0] @ frames[1][0])) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frame_trace_identities(d):
    for layout in LAYOUTS[d]:
        basis = partition_basis(gell_mann_basis(d), layout)
        frames = frame_operators(basis)
        for al, h in enumerate(frames):
            m = layout[al]
            scale = (np.sqrt(m) + 1) ** 2
            overlaps = np.einsum("kij,lji->kl", h, h).real
            expected = -scale * np.ones((m, m)) + scale * m * np.eye(m)
            assert_close(overlaps, expected, 1e-9, f"d={d} layout={layout} group={al}")
            # the full frame sums to zero
            assert np.abs(h.sum(axis=0)).max() < 1e-10
            # last element trace: (M-1)(1+sqrt(M))^2
            assert abs(np.trace(h[-1] @ h[-1]).real - (m - 1) * scale) < 1e-9
        for al in range(len(frames)):
            for be in range(al + 1, len(frames)):
                cross = np.einsum("kij,lji->kl", frames[al], frames[be]).real
                assert np.abs(cross).max() < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reconstruction_of_random_hermitian(d):
    rng = np.random.default_rng(17)
    flat = gell_mann_basis(d)
    g0 = np.eye(d, dtype=complex) / np.sqrt(d)
    for _ in range(5):
        x = random_hermitian(d, rng)
        rebuilt = np.trace(x @ g0) * g0
        for g in flat:
            rebuilt = rebuilt + np.trace(x @ g) * g
        assert_close(rebuilt, x, 1e-10, f"reconstruction d={d}")


def test_conjugated_basis_keeps_invariants():
    basis = gell_mann_hermitian_basis(3, [3, 3, 3, 3], unitary_seed=42)
    assert basis.meta == {"kind": "gell_mann", "unitary_seed": 42}
    flat = basis.flat()
    assert_close(gram(flat), np.eye(8), 1e-10, "conjugated gram")
    for g in flat:
        assert abs(np.trace(g)) < 1e-12
        assert np.abs(g - g.conj().T).max() < 1e-12
    # and it differs from the unrotated realization
    plain = gell_mann_basis(3)
    assert np.abs(flat[0] - plain[0]).max() > 1e-3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_haar_unitary_stack_matches_sequential_calls(d):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        single = np.array([haar_unitary(d, rng) for _ in range(7)])
        stack = haar_unitary(d, np.random.default_rng(seed), 7)
        assert np.array_equal(stack, single), seed
        # the stream continues where the single calls left it
        longer = haar_unitary(d, np.random.default_rng(seed), 8)
        assert np.array_equal(haar_unitary(d, rng), longer[7]), seed
        # the rank-k draws follow the same one-stream convention
        for k in range(1, d + 1):
            rng = np.random.default_rng(seed)
            pair = [random_rank_k_coefficients(d, k, rng, n) for n in (3, 4)]
            longer = random_rank_k_coefficients(d, k, np.random.default_rng(seed), 8)
            assert np.array_equal(np.concatenate(pair), longer[:7]), (seed, k)
            assert np.abs(np.linalg.norm(longer, axis=(1, 2)) - 1).max() < 1e-14, (seed, k)
            assert (np.linalg.svd(longer, compute_uv=False)[:, k:] <= 1e-12).all(), (seed, k)


def test_conjugate_basis_by_explicit_unitary():
    rng = np.random.default_rng(3)
    u = haar_unitary(4, rng)
    flat = conjugate_basis(gell_mann_basis(4), u)
    assert_close(gram(flat), np.eye(15), 1e-10, "unitary conjugation gram")
