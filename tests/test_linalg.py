import numpy as np
import pytest

from crolab.linalg import (
    _dephase_mask,
    assert_density_matrix,
    dephase,
    hermitianize,
    is_hermitian,
    kron,
    partial_trace,
)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestKronAndPartialTrace:
    def test_kron_matches_numpy(self):
        a = np.arange(4).reshape(2, 2)
        b = np.eye(3)
        np.testing.assert_allclose(kron(a, b), np.kron(a, b))

    def test_kron_variadic(self):
        a, b, c = np.eye(2), np.ones((2, 2)), np.diag([1.0, 2.0])
        np.testing.assert_allclose(kron(a, b, c), np.kron(a, np.kron(b, c)))

    def test_kron_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            kron()

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(7)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        np.testing.assert_allclose(partial_trace(np.kron(a, b), [2, 3], 0), a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(np.kron(a, b), [2, 3], 1), b, atol=1e-12)

    def test_partial_trace_scaling(self):
        """Tracing a non-normalized factor multiplies by its trace."""
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        np.testing.assert_allclose(partial_trace(np.kron(a, b), [2, 2], 0), 7.0 * a)

    def test_partial_trace_keeps_pairs(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_density(rng, 2) for _ in range(3))
        full = np.kron(a, np.kron(b, c))
        kept = partial_trace(full, [2, 2, 2], [0, 2])
        np.testing.assert_allclose(kept, np.kron(a, c), atol=1e-12)

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(11)
        m = random_density(rng, 6)
        reduced = partial_trace(m, [2, 3], 1)
        assert np.trace(reduced) == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match dims"):
            partial_trace(np.eye(5), [2, 3], 0)

    def test_partial_trace_bad_keep(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(6), [2, 3], 4)


class TestDephase:
    def test_full_dephase_is_diagonal_part(self):
        rng = np.random.default_rng(2)
        m = random_hermitian(rng, 4)
        np.testing.assert_allclose(dephase(m, [4], (0,)), np.diag(np.diag(m)))

    def test_subsystem_dephase_keeps_blocks(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 4)
        out = dephase(m, [2, 2], (1,))
        # entries with equal fast index survive, others vanish
        for i in range(4):
            for j in range(4):
                if i % 2 == j % 2:
                    assert out[i, j] == m[i, j]
                else:
                    assert out[i, j] == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 8)
        once = dephase(m, [2, 2, 2], (0, 2))
        np.testing.assert_allclose(dephase(once, [2, 2, 2], (0, 2)), once)

    def test_composition_of_masks(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 4)
        both = dephase(m, [2, 2], (0, 1))
        np.testing.assert_allclose(both, np.diag(np.diag(m)))
        np.testing.assert_allclose(dephase(dephase(m, [2, 2], (0,)), [2, 2], (1,)), both)

    def test_bad_subsystem(self):
        with pytest.raises(ValueError, match="out of range"):
            dephase(np.eye(4), [2, 2], (3,))

    def test_mask_is_cached_and_read_only(self):
        mask = _dephase_mask((2, 2), (1,))
        assert mask is _dephase_mask((2, 2), (1,))
        assert not mask.flags.writeable
        assert dephase(np.eye(4), [2, 2], (1,)).flags.writeable


class TestDensityValidation:
    def test_accepts_valid(self):
        rng = np.random.default_rng(10)
        assert_density_matrix(random_density(rng, 5))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            assert_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_stack_names_the_failing_state(self):
        rng = np.random.default_rng(11)
        stack = np.array([random_density(rng, 3) for _ in range(3)])
        assert_density_matrix(stack)
        stack[2, 0, 1] += 0.1
        with pytest.raises(ValueError, match="state 2 is not Hermitian"):
            assert_density_matrix(stack)
        stack[1] *= 2.0
        with pytest.raises(ValueError, match="state 1 trace"):
            assert_density_matrix(stack)

    def test_hermitianize(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        h = hermitianize(m)
        assert is_hermitian(h, 0.0)

    def test_is_hermitian_shape_guard(self):
        assert not is_hermitian(np.ones((2, 3)))
