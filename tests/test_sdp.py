"""Tests for the semidefinite programming layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crolab import measures
from crolab.channels import choi_dephase_output, random_channel
from crolab.linalg import dephase, partial_trace
from crolab.sdp import MAX_BLOCK_SIDE, SolverOptions, _row_space, _upper_indices, solve, svec, unsvec
from oracles import SdpProblem, canonical


class TestSvec:
    """Real coordinate embedding of Hermitian matrices."""

    def test_roundtrip_and_isometry(self):
        """Sides up to 8, each twice, so the second pass reads the per-side
        cache of read-only triangle indices.  A stack of three matrices maps
        row by row to the single-matrix svecs and back exactly."""
        rng = np.random.default_rng(5)
        for side in (1, 2, 3, 4, 5, 8) * 2:
            raw = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            m = raw + raw.conj().T
            x = svec(m)
            assert x.dtype == np.float64
            assert x.shape == (side * side,)
            back = unsvec(x, side)
            assert np.allclose(back, m, atol=1e-12)
            assert np.linalg.norm(x) == pytest.approx(
                np.linalg.norm(m), abs=1e-12
            )
            rows, cols = _upper_indices(side)
            assert not rows.flags.writeable and not cols.flags.writeable

            # one matrix at a time: unsvec images round-trip exactly
            raw = rng.normal(size=(3, side, side)) + 1j * rng.normal(size=(3, side, side))
            stack = np.array([unsvec(svec(h + h.conj().T), side) for h in raw])
            xs = svec(stack)
            assert xs.shape == (3, side * side)
            for row, single in zip(xs, stack):
                assert np.array_equal(row, svec(single))
            assert np.array_equal(unsvec(xs, side), stack)

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a + a.conj().T
        b = b + b.conj().T
        direct = np.real(np.trace(a @ b))
        assert float(svec(a) @ svec(b)) == pytest.approx(direct, abs=1e-10)


class TestConeProjection:
    """The stacked projection onto the product cone of the ADMM oracle."""

    def test_each_block_clipped_free_untouched(self):
        # A free side-1 variable, a bare side-2 block and a side-3 slack:
        # the projection acts on the two PSD blocks only.
        problem = SdpProblem()
        problem.add_var("t", 1)
        problem.add_var("x", 2)
        problem.minimize({"t": np.eye(1), "x": np.eye(2)})
        problem.add_psd([("x", None, 2)])
        problem.add_psd(
            [("t", lambda s: s[0, 0] * np.eye(3), 3)], offset=np.eye(3)
        )
        canon = canonical(problem)
        assert sorted(canon.cones) == [2, 3]
        assert canon.free.tolist() == [0]
        v = np.random.default_rng(8).normal(size=canon.n)
        projected = oracles._cone_project(canon, v)
        assert np.array_equal(projected[canon.free], v[canon.free])
        for block, side in canon.psd:
            w, vecs = np.linalg.eigh(unsvec(v[block], side))
            clipped = (vecs * np.clip(w, 0.0, None)) @ vecs.conj().T
            assert np.max(np.abs(projected[block] - svec(clipped))) < 1e-12
            assert np.linalg.eigvalsh(unsvec(projected[block], side))[0] > -1e-12


class TestRowSpaceStep:
    """The row-space affine step against the Gram projection it replaced."""

    def test_step_and_dual_match_gram_oracle(self):
        """On the canonical forms of the ADMM robustness block program of
        ``oracles`` (d = 2, 3, 4) and of both structured cross-check programs
        (d = 2), the step
        x = w - Q(Q^T w - t), the slack c + rho (w - x) and the dual value
        offset - rho x.(w - x) equal the oracle's projection, c - A^T y and
        b^T y + offset with y = -rho mu, for random w and rho."""
        rng = np.random.default_rng(31)
        programs = [
            canonical(oracles.admm_block_problem(random_channel(d, seed=d).choi, d))
            for d in (2, 3, 4)
        ]
        channel = random_channel(2, seed=7)
        programs += [
            measures._structured_program(channel.choi, 2, False),
            measures._structured_program(choi_dephase_output(channel.choi, 2), 2, True),
        ]
        for canon in programs:
            q, t = _row_space(canon.a, canon.b)
            assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
            for _ in range(3):
                w = rng.normal(size=canon.n)
                rho = 10.0 ** rng.uniform(-3, 3)
                x = w - q @ (q.T @ w - t)
                s = canon.c + rho * (w - x)
                dual = canon.offset - rho * float(x @ (w - x))

                x_ref, mu = oracles.gram_affine_projection(canon.a, canon.b, w)
                y = -rho * mu
                s_ref = canon.c - canon.a.T @ y
                dual_ref = float(canon.b @ y) + canon.offset
                assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))
                assert np.max(np.abs(s - s_ref)) <= 1e-10 * np.max(np.abs(s_ref))
                assert abs(dual - dual_ref) <= 1e-10 * abs(dual_ref)


class TestSmallProblems:
    """Closed-form problems the solver must reproduce."""

    def test_domination_by_indefinite_matrix(self):
        # minimize tr(x) subject to x >= 0 and x >= a, where a has
        # eigenvalues (2, -1): the optimum keeps the positive eigenvalue and
        # floors the negative one at zero, so the value is 2 and the witness
        # of the domination constraint is the positive-eigenspace projector.
        a = np.array([[0.5, 1.5], [1.5, 0.5]], dtype=complex)
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        ge = problem.add_psd([("x", None, 2)], offset=-a)
        problem.add_psd([("x", None, 2)])
        solution = solve(canonical(problem))
        assert solution.status == "optimal"
        assert solution.primal_value == pytest.approx(2.0, abs=1e-7)
        witness = solution.psd_duals[ge]
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.max(np.abs(witness - plus)) < 1e-6

    def test_minimum_eigenvalue(self):
        # max t s.t. m - t I >= 0 equals the smallest eigenvalue of m.
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = raw + raw.conj().T
        problem = SdpProblem()
        problem.add_var("t", 1)
        problem.minimize({"t": -np.eye(1)})
        problem.add_psd(
            [("t", lambda s: -s[0, 0] * np.eye(3), 3)], offset=m
        )
        solution = solve(canonical(problem))
        assert solution.status == "optimal"
        expected = float(np.linalg.eigvalsh(m)[0])
        assert -solution.primal_value == pytest.approx(expected, abs=1e-7)

    def test_equality_pinned_variable(self):
        # minimize tr(x) with x >= 0 and diag sums pinned; optimum is the
        # pin itself when the objective pushes everything else to zero.
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        problem.add_psd([("x", None, 2)])
        problem.add_eq(
            [("x", lambda m: np.array([[np.real(np.trace(m))]]), 1)],
            np.array([[3.0]]),
        )
        solution = solve(canonical(problem))
        assert solution.status == "optimal"
        assert solution.primal_value == pytest.approx(3.0, abs=1e-7)

    def test_duality_gap_reported(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        problem.add_psd([("x", None, 2)], offset=-a)
        solution = solve(canonical(problem))
        assert solution.status == "optimal"
        assert abs(solution.primal_value - solution.dual_value) < 1e-6
        assert solution.residuals["gap"] < 1e-6

    def test_no_equality_rows(self):
        # minimize tr(x) over x >= 0 alone: A has no rows, the affine step
        # is the identity, and both values are 0.
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        problem.add_psd([("x", None, 2)])
        solution = solve(canonical(problem))
        assert solution.status == "optimal"
        assert solution.primal_value == pytest.approx(0.0, abs=1e-9)
        assert solution.dual_value == pytest.approx(0.0, abs=1e-9)


class TestStatusDetection:
    """Infeasible and unbounded problems are labeled, not mislabeled."""

    def test_infeasible(self):
        # x >= I and tr(x) = 1 cannot both hold for 2x2 matrices.
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        problem.add_psd([("x", None, 2)], offset=-np.eye(2, dtype=complex))
        problem.add_eq(
            [("x", lambda m: np.array([[np.real(np.trace(m))]]), 1)],
            np.array([[1.0]]),
        )
        solution = solve(canonical(problem))
        assert solution.status == "infeasible"

    def test_unbounded(self):
        # maximize tr(x) over the PSD cone alone.
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": -np.eye(2)})
        problem.add_psd([("x", None, 2)])
        solution = solve(canonical(problem))
        assert solution.status == "unbounded"

    def test_trivially_infeasible_equality(self):
        # A constraint with an identically zero map but nonzero target.
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        problem.add_psd([("x", None, 2)])
        problem.add_eq(
            [("x", lambda m: np.zeros((1, 1)), 1)], np.array([[1.0]])
        )
        solution = solve(canonical(problem))
        assert solution.status == "infeasible"

    def test_contradictory_equalities(self):
        # tr(x) = 1 and tr(x) = 2: no row is zero, but the two rows are
        # equal with different targets, so the set A x = b is empty and the
        # solve stops before its first iteration.
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        problem.add_psd([("x", None, 2)])
        for target in (1.0, 2.0):
            problem.add_eq(
                [("x", lambda m: np.array([[np.real(np.trace(m))]]), 1)],
                np.array([[target]]),
            )
        solution = solve(canonical(problem))
        assert solution.status == "infeasible"
        assert solution.iterations == 0


class TestDeterminism:
    """Identical problems solve to identical answers."""

    def test_repeat_solves_agree(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = raw + raw.conj().T

        def build():
            problem = SdpProblem()
            problem.add_var("x", 4)
            problem.minimize({"x": np.eye(4)})
            problem.add_psd([("x", None, 4)], offset=-a)
            problem.add_psd([("x", None, 4)])
            return problem

        first = solve(canonical(build()))
        second = solve(canonical(build()))
        assert first.status == second.status == "optimal"
        assert first.primal_value == second.primal_value
        assert first.iterations == second.iterations
        assert np.array_equal(first.variables["x"], second.variables["x"])


class TestChannelShapedProblem:
    """The constraint pattern used by the resource measures."""

    def test_structured_domination_of_unitary(self):
        # Smallest trace of a matrix that dominates the Choi matrix of the
        # cos Z + sin X rotation while carrying the structure the resource
        # theory allows; the answer is 1 + sin(2 theta).
        theta = np.pi / 6
        u = np.array(
            [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]],
            dtype=complex,
        )
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                eij = np.zeros((2, 2), dtype=complex)
                eij[i, j] = 1.0
                choi[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = u @ eij @ u.conj().T
        choi /= 2

        problem = SdpProblem()
        problem.add_var("psi", 4)
        problem.minimize({"psi": np.eye(4)})
        problem.add_psd([("psi", None, 4)], offset=-choi)
        problem.add_psd([("psi", None, 4)])
        problem.add_eq(
            [(
                "psi",
                lambda m: dephase(m, [2, 2], (1,)) - dephase(m, [2, 2], (0, 1)),
                4,
            )],
            np.zeros((4, 4)),
        )
        problem.add_eq(
            [(
                "psi",
                lambda m: partial_trace(m, [2, 2], 0)
                - np.trace(m) * np.eye(2) / 2,
                2,
            )],
            np.zeros((2, 2)),
        )
        solution = solve(canonical(problem))
        assert solution.status == "optimal"
        assert solution.primal_value - 1 == pytest.approx(
            np.sin(2 * theta), abs=1e-6
        )

    def test_rejects_no_iterations(self):
        problem = SdpProblem()
        problem.add_var("x", 1)
        problem.minimize({"x": np.eye(1)})
        problem.add_psd([("x", None, 1)])
        with pytest.raises(ValueError, match="max_iters"):
            solve(canonical(problem), SolverOptions(max_iters=0))
        assert solve(canonical(problem), SolverOptions(max_iters=1)).iterations == 1

    def test_rejects_blocks_above_the_side_cap(self):
        problem = SdpProblem()
        problem.add_var("x", MAX_BLOCK_SIDE + 1)
        problem.minimize({"x": np.eye(MAX_BLOCK_SIDE + 1)})
        problem.add_psd([("x", None, MAX_BLOCK_SIDE + 1)])
        with pytest.raises(ValueError, match="block side"):
            solve(canonical(problem))

    def test_tight_tolerances_reached(self):
        options = SolverOptions(tol_gap=1e-9, tol_feas=1e-9, max_iters=400000)
        a = np.array([[0.5, 1.5], [1.5, 0.5]], dtype=complex)
        problem = SdpProblem()
        problem.add_var("x", 2)
        problem.minimize({"x": np.eye(2)})
        problem.add_psd([("x", None, 2)], offset=-a)
        problem.add_psd([("x", None, 2)])
        solution = solve(canonical(problem), options)
        assert solution.status == "optimal"
        assert solution.primal_value == pytest.approx(2.0, abs=1e-8)


def _structured_programs(channel):
    """The three programs of ``robustness_equivalents``, unsolved."""
    d = channel.dim
    dephased = choi_dephase_output(channel.choi, d)
    return [
        measures._structured_program(floor, d, diagonal)
        for floor, diagonal in ((channel.choi, False), (dephased, True), (dephased, False))
    ]


def _equality_residual(program, solution):
    """Largest entry of A x - b at the solution's variables, in svec
    coordinates (an off-diagonal residual counts sqrt(2) times its Re or Im
    part, at least its modulus)."""
    x = np.zeros(program.n)
    for name, (block, _) in program.variables.items():
        x[block] = svec(solution.variables[name])
    return float(np.max(np.abs(program.a @ x - program.b), initial=0.0))


class TestStructuredProgramRows:
    """The cross-check programs stated by their constraint rows, against
    the map statement they replaced (``oracles.structured_problem``), whose
    canonical form learns each map by probing it with every basis matrix."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_equal_the_probed_nonzero_rows(self, d):
        """a, b, c and the offset equal the probed program's, bit for bit,
        once its identically zero rows (all with b = 0) are dropped; the PSD
        blocks and variables are the same."""
        channel = random_channel(d, seed=d)
        dephased = choi_dephase_output(channel.choi, d)
        for floor, diagonal in ((channel.choi, False), (dephased, True), (dephased, False)):
            built = measures._structured_program(floor, d, diagonal)
            probed = canonical(oracles.structured_problem(floor, d, diagonal))
            nonzero = np.any(probed.a != 0.0, axis=1)
            assert not np.any(probed.b[~nonzero])
            assert np.array_equal(built.a, probed.a[nonzero])
            assert np.array_equal(built.b, probed.b[nonzero])
            assert np.array_equal(built.c, probed.c)
            assert built.offset == probed.offset
            assert built.psd == probed.psd
            assert built.variables == probed.variables
            assert not np.any(np.all(built.a == 0.0, axis=1))

    def test_same_solution_as_the_probed_program(self):
        """At d = 3 the solver sees the same rows either way: the values,
        steps and variables agree bit for bit."""
        channel = random_channel(3, seed=5)
        for floor, diagonal in ((channel.choi, False), (choi_dephase_output(channel.choi, 3), True)):
            built = solve(measures._structured_program(floor, 3, diagonal))
            probed = solve(canonical(oracles.structured_problem(floor, 3, diagonal)))
            assert built.status == probed.status == "optimal"
            assert built.primal_value == probed.primal_value
            assert built.iterations == probed.iterations
            for name, value in built.variables.items():
                assert np.array_equal(value, probed.variables[name])


class TestDiagonalProgramByBlocks:
    """The diagonal program of ``robustness_equivalents`` is stated over the
    d output blocks of X, not as one d^2-side block."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_d_variables_of_side_d(self, d):
        diagonal = _structured_programs(random_channel(d, seed=0))[1]
        assert {name: side for name, (_, side) in diagonal.variables.items()} == {
            f"x{k}": d for k in range(d)
        }
        assert [side for _, side in diagonal.psd] == [d] * d
        assert diagonal.n == d**3

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_value_as_square_statement(self, d):
        """Against ``oracles.structured_problem`` with one d^2-side
        variable, the replaced statement with the off-block entries pinned
        to zero."""
        channel = random_channel(d, seed=d)
        dephased = choi_dephase_output(channel.choi, d)
        blocks = solve(_structured_programs(channel)[1])
        square = solve(canonical(oracles.structured_problem(dephased, d, True, by_blocks=False)))
        assert blocks.status == square.status == "optimal"
        assert abs(blocks.primal_value - square.primal_value) <= 1e-8


@st.composite
def random_channels(draw):
    d = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(1, d * d))
    return random_channel(d, rank=rank, seed=draw(st.integers(0, 2**31 - 1)))


def _minimum_eigenvalue_problem(m):
    """max t s.t. m - t I >= 0, with t a free variable."""
    problem = SdpProblem()
    problem.add_var("t", 1)
    problem.minimize({"t": -np.eye(1)})
    problem.add_psd([("t", lambda s: -s[0, 0] * np.eye(len(m)), len(m))], offset=m)
    return problem


def _trace(m):
    return np.array([[np.real(np.trace(m))]])


def _status_problem(kind):
    """The programs of ``TestStatusDetection``, by name."""
    problem = SdpProblem()
    problem.add_var("x", 2)
    problem.minimize({"x": -np.eye(2) if kind == "unbounded" else np.eye(2)})
    problem.add_psd([("x", None, 2)], offset=-np.eye(2) if kind == "infeasible" else None)
    equalities = {
        "infeasible": [(_trace, 1.0)],
        "zero row": [(lambda m: np.zeros((1, 1)), 1.0)],
        "contradictory": [(_trace, 1.0), (_trace, 2.0)],
    }
    for fn, target in equalities.get(kind, []):
        problem.add_eq([("x", fn, 1)], np.array([[target]]))
    return problem


class TestAgainstAdmmOracle:
    """The interior-point solver against the ADMM it replaced,
    ``oracles.admm_solve``, on the same programs."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=10)
    @given(random_channels())
    def test_structured_programs_agree(self, channel):
        """Both solvers on the three programs of ``robustness_equivalents``
        for random channels at d = 2 and 3: the values agree within 1e-6,
        the interior-point X meets its equalities within tol_feas, and it
        takes at most 15 steps (the ADMM takes hundreds of iterations)."""
        for program in _structured_programs(channel):
            solution = solve(program)
            reference = oracles.admm_solve(program)
            assert solution.status == reference.status == "optimal"
            assert solution.iterations <= 15
            assert abs(solution.primal_value - reference.primal_value) <= 1e-6
            assert _equality_residual(program, solution) <= SolverOptions().tol_feas

    def test_minimum_eigenvalue_with_free_variable(self):
        rng = np.random.default_rng(12)
        for side in (2, 3, 4):
            raw = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            m = raw + raw.conj().T
            program = canonical(_minimum_eigenvalue_problem(m))
            solution = solve(program)
            reference = oracles.admm_solve(program)
            assert solution.status == reference.status == "optimal"
            assert abs(solution.primal_value - reference.primal_value) <= 1e-6
            assert -solution.primal_value == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-8)

    @pytest.mark.parametrize(
        "kind, status",
        [
            ("infeasible", "infeasible"),
            ("unbounded", "unbounded"),
            ("zero row", "infeasible"),
            ("contradictory", "infeasible"),
        ],
    )
    def test_status_labels_agree(self, kind, status):
        program = canonical(_status_problem(kind))
        assert solve(program).status == oracles.admm_solve(program).status == status
