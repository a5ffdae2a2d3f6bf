"""Field arithmetic and sparse chain operations."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from perscoh import Field, chain_axpy, core, field_inv
from conftest import chain_eq_up_to_scalar


class TestField:
    def test_composite_modulus_rejected(self):
        for bad in (-3, 0, 1, 4, 9, 15, 91, 46349 * 46351):
            with pytest.raises(ValueError):
                Field(bad)

    def test_primes_accepted(self):
        for p in (2, 3, 11, 101, 46337, 2**31 - 1):
            assert Field(p).p == p

    def test_oversized_modulus_rejected(self):
        with pytest.raises(ValueError):
            Field(2**31 + 11)

    def test_size_checked_before_primality(self, monkeypatch):
        """A modulus of 2^31 or more is rejected before trial division,
        which runs to √p: some 100 s for 2^61 - 1."""
        is_prime = core._is_prime

        def guarded(p):
            if p >= 2**31:
                pytest.fail(f"primality tested on {p}")
            return is_prime(p)

        monkeypatch.setattr(core, "_is_prime", guarded)
        for p in (2**31, 2**31 + 11, 2**61 - 1):
            with pytest.raises(ValueError, match=f"field modulus too large: {p}"):
                Field(p)
        assert Field(2**31 - 1).p == 2**31 - 1
        with pytest.raises(ValueError, match="field modulus must be prime, got 4"):
            Field(4)

    def test_equality(self):
        assert Field(11) == Field(11)
        assert Field(11) != Field(2)


class TestFieldInv:
    def test_examples(self):
        assert field_inv(1, 2) == 1
        assert field_inv(3, 11) == 4
        assert field_inv(10, 11) == 10

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            field_inv(0, 7)
        with pytest.raises(ValueError):
            field_inv(14, 7)

    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 200))
    def test_involution_and_product(self, p, a):
        assume(a % p != 0)
        inv = field_inv(a, p)
        assert (a * inv) % p == 1
        assert field_inv(inv, p) == a % p


def _chain_cases():
    @st.composite
    def case(draw):
        p = draw(st.sampled_from((2, 3, 11)))
        def chain():
            d = draw(st.dictionaries(st.integers(1, 9), st.integers(1, p - 1),
                                     max_size=6))
            return sorted(d.items())
        return p, draw(st.integers(0, p - 1)), chain(), chain()
    return case()


class TestChainAxpy:
    def test_self_cancellation_over_gf2(self):
        assert chain_axpy(1, [(3, 1)], [(3, 1)], 2) == []

    def test_minus_one_cancels(self):
        x = [(1, 1), (2, 10)]
        assert chain_axpy(10, x, list(x), 11) == []

    def test_disjoint_supports_merge(self):
        assert chain_axpy(1, [(1, 1)], [(2, 10)], 11) == [(1, 1), (2, 10)]

    def test_partial_cancellation(self):
        x = [(1, 1), (2, 5)]
        y = [(2, 6), (3, 1)]
        assert chain_axpy(1, x, y, 11) == [(1, 1), (3, 1)]

    def test_inputs_unchanged(self):
        x = [(1, 1)]
        y = [(1, 10)]
        chain_axpy(1, x, y, 11)
        assert x == [(1, 1)] and y == [(1, 10)]

    @given(_chain_cases())
    def test_matches_dense_reference(self, case):
        p, c, x, y = case
        ref = {i: v for i, v in y}
        for i, v in x:
            ref[i] = (ref.get(i, 0) + c * v) % p
        expected = sorted((i, v % p) for i, v in ref.items() if v % p)
        assert chain_axpy(c, x, y, p) == expected

    @given(_chain_cases(), st.integers(0, 10))
    def test_repeated_addition_combines_scalars(self, case, c2):
        p, c1, x, y = case
        c2 %= p
        combined = chain_axpy((c1 + c2) % p, x, y, p)
        stepwise = chain_axpy(c2, x, chain_axpy(c1, x, y, p), p)
        assert combined == stepwise


class TestChainHelpers:
    def test_eq_up_to_scalar(self):
        assert chain_eq_up_to_scalar([], [], 11)
        assert not chain_eq_up_to_scalar([], [(1, 1)], 11)
        a = [(1, 1), (2, 10)]
        b = [(1, 2), (2, 9)]
        assert chain_eq_up_to_scalar(a, b, 11)
        assert not chain_eq_up_to_scalar(a, [(1, 2), (2, 2)], 11)
        assert not chain_eq_up_to_scalar(a, [(1, 2), (3, 9)], 11)

    @given(_chain_cases())
    def test_eq_up_to_scalar_accepts_all_multiples(self, case):
        p, c, x, _ = case
        assume(x and c % p != 0)
        assert chain_eq_up_to_scalar(x, [(i, c * a % p) for i, a in x], p)
