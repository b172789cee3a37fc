"""Betti numbers, harmonic bases, and homologous-cycle tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import errors, hodge, homology
from cellcomplex.snf import smith_normal_form

import helpers


def unrestricted_torsion(cc) -> tuple:
    """The torsion of each homology group from the Smith form of every whole B_k,
    as betti_numbers read it before the levels restricted each other."""
    snfs = [smith_normal_form(cc.boundary(k)) for k in range(1, cc.dim + 1)]
    return tuple(tuple(d for d in s.diagonal[: s.rank] if d > 1) for s in snfs) + ((),)


def assert_betti_matches_the_oracles(cc, torsion=None):
    real, integer = cx.betti_numbers(cc), cx.betti_numbers(cc, "integer")
    assert real.betti == integer.betti == helpers.betti_oracle(cc)
    assert real.torsion == ((),) * (cc.dim + 1)
    assert integer.torsion == unrestricted_torsion(cc)
    if torsion is not None:
        assert integer.torsion == torsion


class TestBettiNumbers:
    @pytest.mark.parametrize(
        "build, expected",
        [
            (helpers.toy, (1, 0, 0)),
            (helpers.toy_minus_triangle, (1, 1, 0)),
            (lambda: cx.cubical([4, 4]), (1, 0, 0)),
        ],
    )
    def test_against_rational_rank_oracle(self, build, expected):
        cc = build()
        assert helpers.betti_oracle(cc) == expected
        assert cx.betti_numbers(cc).betti == expected
        assert cx.betti_numbers(cc, "integer").betti == expected

    def test_disconnected_vertices(self):
        cc = cx.from_boundary_matrices([["a", "b", "c"]], [])
        assert cx.betti_numbers(cc).betti == (3,)

    def test_integer_path_reports_no_torsion_on_builders(self):
        rng = random.Random(11)
        for _ in range(10):
            cc = helpers.random_builder_complex(rng)
            summary = cx.betti_numbers(cc, "integer")
            assert all(not t for t in summary.torsion)
            assert summary.betti == cx.betti_numbers(cc).betti

    def test_euler_identity(self):
        rng = random.Random(12)
        for _ in range(20):
            cc = helpers.random_builder_complex(rng)
            betti = cx.betti_numbers(cc).betti
            assert sum((-1) ** k * b for k, b in enumerate(betti)) == cx.euler_characteristic(cc)

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_real_and_integer_match_rational_oracle(self, seed, two_complex):
        rng = random.Random(seed)
        if two_complex:
            cc = helpers.random_two_complex(rng)
        else:
            cc = helpers.random_builder_complex(rng)
        assert_betti_matches_the_oracles(cc)

    def test_real_betti_has_no_dense_limit(self):
        assert cx.betti_numbers(cx.cubical([60, 60])).betti == (1, 0, 0)

    def test_integer_betti_of_a_four_dimensional_lattice(self):
        summary = cx.betti_numbers(cx.cubical([4, 4, 4, 4]), "integer")
        assert summary.betti == (1, 0, 0, 0, 0)
        assert summary.torsion == ((),) * 5

    def test_rejects_unknown_coefficients(self, toy):
        with pytest.raises(ValueError):
            cx.betti_numbers(toy, "rational")


class TestRestrictedLevels:
    """betti_numbers hands each level's unit pairs to the next, which drops their rows;
    the zoo goes through test_real_and_integer_match_rational_oracle."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_small_rips_complexes(self, seed):
        rng = random.Random(seed)
        cc = cx.vietoris_rips(helpers.random_cloud(rng, 4, 8), rng.uniform(0.5, 2.5), 3)
        assert_betti_matches_the_oracles(cc)

    @pytest.mark.parametrize("build, torsion", [
        (helpers.rp2, ((), (2,), ())),
        (helpers.rp2_pair, ((), (2,), (), ())),
        (lambda: cx.product(helpers.rp2(), cx.cubical([2])), ((), (2,), (), ())),
    ], ids=["rp2", "rp2-pair", "rp2-x-interval"])
    def test_torsion(self, build, torsion):
        assert_betti_matches_the_oracles(build(), torsion)

    def test_torsion_of_rp2_squared(self):
        # Kunneth: H_1 = (Z/2)^2, H_2 = Z/2 and H_3 = Tor(Z/2, Z/2) = Z/2.
        summary = cx.betti_numbers(cx.product(helpers.rp2(), helpers.rp2()), "integer")
        assert summary.betti == (1, 0, 0, 0, 0)
        assert summary.torsion == ((), (2, 2), (2,), (2,), ())

    def test_only_unit_pairs_restrict_the_next_level(self):
        # B_2's elimination takes two unit pivots, in columns 0 and 1, and then
        # the factor 2, whose pivot is column 4.  Dropping rows 0 and 1 of B_3
        # keeps its factors (1, 1); dropping row 4 as well would give (1, 2), a
        # torsion that H_2 does not have.
        b2 = np.array([[-1, 0, 1, 0, -1], [1, 1, -1, 1, -1], [-1, 1, -1, -1, 1]])
        b3 = np.array([[0, 1], [-1, 1], [-1, 1], [-1, -1], [-1, 0]])
        matrices = [cx.BoundaryMatrix(1, 3, []), *(
            cx.BoundaryMatrix(*m.shape, [(i, j, int(m[i, j])) for i, j in zip(*np.nonzero(m))])
            for m in (b2, b3))]
        cc = cx.from_boundary_matrices(
            [["v"], ["a", "b", "c"], ["p", "q", "r", "s", "t"], ["x", "y"]], matrices)
        level = smith_normal_form(cc.boundary(2))
        assert level.diagonal == (1, 1, 2) and sorted(level._paired.tolist()) == [0, 1]
        assert smith_normal_form(b3[[2, 3, 4]]).diagonal == (1, 1)
        assert smith_normal_form(b3[[2, 3]]).diagonal == (1, 2)
        assert_betti_matches_the_oracles(cc, ((), (2,), (), ()))


class TestHarmonicBasis:
    def test_hole_gives_one_vector(self, toy_minus):
        assert len(cx.harmonic_basis(toy_minus, 1)) == 1

    def test_full_toy_has_none(self, toy):
        assert cx.harmonic_basis(toy, 1) == []

    def test_connected_complex_constant_vertex_vector(self, toy):
        basis = cx.harmonic_basis(toy, 0)
        assert len(basis) == 1
        values = basis[0].values
        assert np.allclose(values, values[0]) and values[0] > 0
        assert np.isclose(np.linalg.norm(values), 1.0)

    def test_harmonic_vectors_killed_by_both_boundaries(self, toy_minus):
        b1 = toy_minus.boundary(1).to_dense().astype(float)
        b2 = toy_minus.boundary(2).to_dense().astype(float)
        for vec in cx.harmonic_basis(toy_minus, 1):
            assert np.isclose(np.linalg.norm(vec.values), 1.0)
            assert np.max(np.abs(b1 @ vec.values)) <= 1e-8
            assert np.max(np.abs(b2.T @ vec.values)) <= 1e-8

    def test_size_matches_betti(self):
        rng = random.Random(13)
        for _ in range(8):
            cc = helpers.random_builder_complex(rng)
            betti = cx.betti_numbers(cc).betti
            for k in range(cc.dim + 1):
                assert len(cx.harmonic_basis(cc, k)) == betti[k]

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_equals_harmonic_columns_of_spectral_basis(self, seed, two_complex):
        rng = random.Random(seed)
        if two_complex:
            cc = helpers.random_two_complex(rng)
        else:
            cc = helpers.random_builder_complex(rng)
        for k in range(cc.dim + 1):
            basis = cx.spectral_basis(cc, k)
            want = basis.vectors[:, np.array(basis.tags, dtype=object) == "harmonic"]
            got = cx.harmonic_basis(cc, k)
            assert all(v.dim == k for v in got)
            got = np.array([v.values for v in got]).T.reshape(want.shape)
            assert np.array_equal(got, want)

    @staticmethod
    def assert_image_complement(cc):
        # Bit for bit the orthonormal complement of the gradient and curl image
        # bases, which harmonic_basis built itself before it read spectral_basis.
        for k in range(cc.dim + 1):
            images = np.hstack([basis for basis, _ in hodge._image_bases(cc, k, None)])
            want = np.ascontiguousarray(hodge._completed(images)[:, images.shape[1] :].T)
            got = np.array([v.values for v in cx.harmonic_basis(cc, k)]).reshape(want.shape)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), two_complex=st.booleans())
    def test_zoo_is_the_complement_of_the_image_bases(self, seed, two_complex):
        rng = random.Random(seed)
        cc = helpers.random_two_complex(rng) if two_complex else helpers.random_builder_complex(rng)
        self.assert_image_complement(cc)

    def test_rp2_is_the_complement_of_the_image_bases(self):
        self.assert_image_complement(helpers.rp2())


class TestHomologous:
    def worked_example_chains(self, cc):
        c = cx.chain_on(cc, 1, {"0-3": 1, "3-4": 1, "0-4": -1})
        c_prime = cx.chain_on(cc, 1, {"0-1": 1, "1-2": 1, "2-3": 1, "3-4": 1, "0-4": -1})
        return c, c_prime

    def test_worked_example(self, toy_minus):
        c, c_prime = self.worked_example_chains(toy_minus)
        assert not cx.apply_boundary(toy_minus, c).values.any()
        assert not cx.apply_boundary(toy_minus, c_prime).values.any()
        same, witness = cx.homologous(toy_minus, c, c_prime)
        assert same
        assert np.allclose(witness.values, [1.0], atol=1e-8)

    def test_equal_chains_have_zero_witness(self, toy_minus):
        c, _ = self.worked_example_chains(toy_minus)
        same, witness = cx.homologous(toy_minus, c, c)
        assert same and not witness.values.any()

    def test_nontrivial_class_not_null_homologous(self, toy_minus):
        c, _ = self.worked_example_chains(toy_minus)
        zero = cx.ChainVector(1, np.zeros(6))
        same, witness = cx.homologous(toy_minus, c, zero)
        assert not same and witness is None

    def test_non_cycle_rejected(self, toy_minus):
        not_cycle = cx.chain_on(toy_minus, 1, {"0-1": 1})
        zero = cx.ChainVector(1, np.zeros(6))
        with pytest.raises(errors.NotACycle):
            cx.homologous(toy_minus, not_cycle, zero)

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("k, values", [
        (1, [1, 1, 1, np.nan]), (1, [np.nan, 0, 0, 0]), (1, [np.inf, 0, 0, 0]),
        (1, [1, 1, 1, -np.inf]), (0, [np.nan, 0, 0, 0]), (0, [0, 0, np.inf, 0]),
    ])
    def test_non_finite_chain_rejected(self, k, values, first):
        # Every comparison with NaN is False, so no residual test can catch it.
        cc = cx.from_tuples([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 3)], [(0, 1, 2)])
        chain, zero = cx.ChainVector(k, values), cx.ChainVector(k, np.zeros(4))
        name = "first" if first else "second"
        with pytest.raises(errors.NotACycle, match=f"^{name} chain has a value that is not"):
            cx.homologous(cc, *((chain, zero) if first else (zero, chain)))

    @pytest.mark.parametrize("first", [True, False])
    def test_chain_length_must_match_the_cells(self, toy_minus, first):
        short, zero = cx.ChainVector(1, np.zeros(5)), cx.ChainVector(1, np.zeros(6))
        name = "first" if first else "second"
        with pytest.raises(errors.ShapeMismatch, match=f"^{name} chain has 5 values for 6 cells$"):
            cx.homologous(toy_minus, *((short, zero) if first else (zero, short)))

    def test_cycle_check_is_sparse(self, toy_minus, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the cycle check built a dense boundary")

        monkeypatch.setattr(homology, "dense_boundary", refuse)
        not_cycle = cx.chain_on(toy_minus, 1, {"0-1": 1})
        zero = cx.ChainVector(1, np.zeros(6))
        with pytest.raises(errors.NotACycle):
            cx.homologous(toy_minus, not_cycle, zero)
        with pytest.raises(errors.NotACycle):
            cx.homologous(toy_minus, zero, not_cycle)

    def test_dimension_mismatch(self, toy_minus):
        with pytest.raises(errors.BadDimension):
            cx.homologous(
                toy_minus, cx.ChainVector(1, np.zeros(6)), cx.ChainVector(0, np.zeros(5))
            )

    def test_dimension_above_the_complex(self, toy):
        for k in (3, 4):
            with pytest.raises(errors.BadDimension, match=f"no {k}-cells on a 2-complex"):
                cx.homologous(toy, cx.ChainVector(k, []), cx.ChainVector(k, []))

    def test_top_dimension_without_fillers(self):
        # Hollow tetrahedron shell: beta_2 = 1 and there is no B_3.
        shell = cx.from_simplicial(
            range(4),
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
            auto_close=True,
        )
        cycle = cx.harmonic_basis(shell, 2)[0]
        zero = cx.ChainVector(2, np.zeros(4))
        same, witness = cx.homologous(shell, cycle, cycle)
        assert same and not witness.values.any()
        same, witness = cx.homologous(shell, cycle, zero)
        assert not same and witness is None
