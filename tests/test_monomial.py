import dataclasses
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

from treeres.monomial import (
    Monomial,
    POLARIZE_GUARD,
    MonomialIdeal,
    ParseError,
    VariableSet,
    divides,
    exponent_masks,
    format_ideal,
    lcm,
    lcm_closure,
    mask_exponents,
    minimalize,
    parse_ideal,
    polarize,
)

from helpers import (
    divides_antichain_violation,
    divides_minimal,
    mono,
    pairwise_lcm_closure,
    six_var_ideal,
)
from strategies import (
    XYZ,
    ideals,
    monomials,
    nonunit_monomials,
    squarefree_ideals,
    squarefree_monomials,
)

X6 = VariableSet(tuple(f"x{i}" for i in range(1, 7)))


class TestDivides:
    def test_cached_squarefreeness_keeps_equality_and_hash(self):
        a, b = mono(X6, "x1*x3"), mono(X6, "x1*x3")
        assert divides(a, mono(X6, "x1*x3*x6"))
        assert a == b and hash(a) == hash(b)
        assert divides(mono(X6, "x1"), mono(X6, "x1^2"))
        assert not divides(mono(X6, "x1^2"), mono(X6, "x1*x2"))

    def test_componentwise(self):
        a, b = mono(X6, "x1*x3*x6"), mono(X6, "x1*x3*x4*x6")
        assert divides(a, b)
        assert all(x <= y for x, y in zip(a.exponents, b.exponents))

    def test_reflexive(self):
        m = mono(X6, "x1*x2^3")
        assert divides(m, m)

    def test_missing_variable(self):
        assert not divides(mono(X6, "x2"), mono(X6, "x1*x3*x6"))

    def test_mismatched_variable_sets(self):
        with pytest.raises(ValueError):
            divides(mono(X6, "x1"), Monomial(XYZ, (1, 0, 0)))


class TestMonomialConstruction:
    def test_fields_are_vars_and_exponents(self):
        assert [f.name for f in dataclasses.fields(Monomial)] == ["vars", "exponents"]

    def test_instance_holds_only_vars_and_exponents(self):
        m = Monomial(X6, [1, 0, 2, 0, 0, 1])
        assert vars(m) == {"vars": X6, "exponents": (1, 0, 2, 0, 0, 1)}
        assert hash(m) == hash((X6, (1, 0, 2, 0, 0, 1)))

    @pytest.mark.parametrize(
        "exps",
        [(1.7, 0.2), (1.0, 0), ("1", 0), (True, 0), (None, 0)],
        ids=["fraction", "integral-float", "str", "bool", "none"],
    )
    def test_rejects_exponents_that_are_not_ints(self, exps):
        with pytest.raises(ValueError, match="not an int"):
            Monomial(VariableSet(("x", "y")), exps)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="negative"):
            Monomial(VariableSet(("x", "y")), (1, -1))


class TestLcmGcd:
    def test_lcm_of_generators(self):
        assert lcm(mono(X6, "x1*x2*x4"), mono(X6, "x1*x4*x6")) == mono(
            X6, "x1*x2*x4*x6"
        )

    def test_lcm_star_generators(self):
        V = VariableSet(("x1", "x2", "x3", "x4"))
        assert lcm(mono(V, "x1*x2*x3"), mono(V, "x2*x3*x4")) == mono(
            V, "x1*x2*x3*x4"
        )

    def test_lcm_identity(self):
        m = mono(X6, "x1*x5^2")
        assert lcm(m, Monomial.one(X6)) == m

    @given(monomials(), monomials())
    def test_commutative(self, a, b):
        assert lcm(a, b) == lcm(b, a)

    @given(monomials(), monomials(), monomials())
    def test_associative(self, a, b, c):
        assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))

    @given(monomials())
    def test_idempotent(self, a):
        assert lcm(a, a) == a

    @given(monomials(), monomials())
    def test_order_relations(self, a, b):
        assert divides(a, lcm(a, b))


big_exponent_lists = st.lists(
    st.one_of(monomials(max_exp=3), monomials(max_exp=10**9)), min_size=1, max_size=6
)


class TestExponentMasks:
    @given(big_exponent_lists)
    def test_round_trip(self, ms):
        masks, levels = exponent_masks(ms)
        assert [mask_exponents(mask, levels) for mask in masks] == [
            m.exponents for m in ms
        ]

    @given(big_exponent_lists)
    def test_or_is_lcm_and_inclusion_is_divides(self, ms):
        masks, levels = exponent_masks(ms)
        for a, ma in zip(ms, masks):
            for b, mb in zip(ms, masks):
                assert mask_exponents(ma | mb, levels) == lcm(a, b).exponents
                assert (ma & ~mb == 0) == divides(a, b)

    @given(st.lists(squarefree_monomials(X6), min_size=1, max_size=6))
    def test_squarefree_masks_are_support_masks(self, ms):
        masks, levels = exponent_masks(ms)
        assert levels == ((1,),) * 6
        assert masks == [sum(e << i for i, e in enumerate(m.exponents)) for m in ms]

    def test_a_variable_no_input_uses_has_one_level(self):
        masks, levels = exponent_masks([mono(X6, "x1*x3"), mono(X6, "x3^2*x6")])
        assert levels == ((1,), (1,), (1, 2), (1,), (1,), (1,))
        assert masks == [0b0000101, 0b1001100]

    def test_blocks_are_as_wide_as_the_distinct_exponents(self):
        ms = [mono(XYZ, "x^100000000*y"), mono(XYZ, "x^7*y"), mono(XYZ, "z^3")]
        masks, levels = exponent_masks(ms)
        assert levels == ((7, 100000000), (1,), (3,))
        assert masks == [0b111, 0b101, 0b1000]


class TestLcmClosure:
    @given(big_exponent_lists)
    def test_is_the_pairwise_lcm_fixed_point(self, ms):
        masks, levels = exponent_masks(ms)
        closure = lcm_closure(masks)
        expected = pairwise_lcm_closure(ms)
        # Equal sizes: no two masks of the closure decode to one monomial.
        assert len(closure) == len(expected)
        decoded = {Monomial(ms[0].vars, mask_exponents(m, levels)) for m in closure}
        assert decoded == expected

    def test_empty(self):
        assert lcm_closure([]) == set()


@st.composite
def squarefree_lists_with_repeats_and_multiples(draw):
    """Squarefree monomials in six variables, then copies and multiples of
    some of them, shuffled: duplicates and divisible pairs are common."""
    gens = draw(st.lists(squarefree_monomials(X6), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(gens))
        gens.append(lcm(g, draw(squarefree_monomials(X6))) if draw(st.booleans()) else g)
    return draw(st.permutations(gens))


class TestMinimalize:
    def test_drops_multiples(self):
        V = VariableSet(("x1", "x2"))
        out = minimalize([mono(V, "x1"), mono(V, "x1*x2")])
        assert out.generators == (mono(V, "x1"),)

    def test_already_minimal_list_unchanged(self):
        I = six_var_ideal()
        assert minimalize(list(I.generators)).generators == I.generators

    def test_deduplicates(self):
        V = VariableSet(("x1", "x2"))
        out = minimalize([mono(V, "x1*x2"), mono(V, "x1*x2")])
        assert out.generators == (mono(V, "x1*x2"),)

    def test_rejects_empty_and_unit(self):
        with pytest.raises(ValueError):
            minimalize([])
        with pytest.raises(ValueError):
            minimalize([Monomial.one(XYZ)])

    @given(st.lists(nonunit_monomials(), min_size=1, max_size=6))
    def test_idempotent_and_antichain(self, gens):
        once = minimalize(gens)
        assert minimalize(list(once.generators)).generators == once.generators
        for i, g in enumerate(once.generators):
            for j, h in enumerate(once.generators):
                if i != j:
                    assert not divides(h, g)

    @given(st.one_of(
        squarefree_lists_with_repeats_and_multiples(),
        st.lists(nonunit_monomials(), min_size=1, max_size=6),
    ))
    def test_keeps_what_a_divides_loop_keeps(self, gens):
        assert list(minimalize(gens).generators) == divides_minimal(gens)

    @given(st.lists(nonunit_monomials(), min_size=1, max_size=6))
    def test_preserves_relative_order(self, gens):
        kept = list(minimalize(gens).generators)
        positions = []
        for m in kept:
            positions.append(next(i for i, g in enumerate(gens) if g == m))
        assert positions == sorted(positions)


class TestIdealInvariants:
    def test_rejects_non_antichain(self):
        V = VariableSet(("x1", "x2"))
        with pytest.raises(ValueError):
            MonomialIdeal(V, (mono(V, "x1"), mono(V, "x1*x2")))

    def test_rejects_generator_over_another_variable_set(self):
        # lcm_closure takes masks and cannot see variable sets; the
        # generators are checked here instead.
        with pytest.raises(ValueError, match="different variable set"):
            MonomialIdeal(XYZ, (mono(XYZ, "x"), mono(X6, "x1")))

    @given(ideals())
    def test_accepts_every_minimalized_ideal(self, I):
        assert divides_antichain_violation(I.generators) is None
        assert MonomialIdeal(I.vars, I.generators[::-1]).generators == I.generators[::-1]

    @given(st.one_of(
        squarefree_lists_with_repeats_and_multiples(),
        st.lists(nonunit_monomials(), min_size=1, max_size=5),
    ))
    def test_rejects_exactly_what_a_divides_loop_rejects(self, gens):
        found = divides_antichain_violation(gens)
        if found is None:
            assert MonomialIdeal(gens[0].vars, tuple(gens)).generators == tuple(gens)
            return
        h, g = found
        with pytest.raises(ValueError) as exc:
            MonomialIdeal(gens[0].vars, tuple(gens))
        assert str(exc.value) == f"not an antichain: {h} divides {g}; minimalize first"

    def test_rejects_a_repeated_squarefree_generator(self):
        with pytest.raises(ValueError, match="not an antichain: x divides x;"):
            MonomialIdeal(XYZ, (mono(XYZ, "x"), mono(XYZ, "y"), mono(XYZ, "x")))

    @given(squarefree_ideals(X6, max_gens=6), st.randoms(use_true_random=False))
    def test_monomials_and_masks_give_the_same_ideal(self, I, rng):
        masks = [sum(e << i for i, e in enumerate(g.exponents)) for g in I.generators]
        shuffled = rng.sample(masks, len(masks))
        for J in (
            MonomialIdeal(I.vars, I.generators),
            MonomialIdeal._of_masks(I.vars, masks),
        ):
            assert J == I and hash(J) == hash(I)
            assert J.generators == I.generators
            assert str(J) == str(I)
            assert J.is_squarefree() and I.is_squarefree()
            assert J.same_ideal(I) and J.same_ideal(MonomialIdeal._of_masks(I.vars, shuffled))

    @given(squarefree_lists_with_repeats_and_multiples())
    def test_masks_refuse_what_monomials_refuse(self, gens):
        masks = [sum(e << i for i, e in enumerate(g.exponents)) for g in gens]
        found = divides_antichain_violation(gens)
        if found is None:
            assert MonomialIdeal._of_masks(X6, masks).generators == tuple(gens)
            return
        with pytest.raises(ValueError) as by_masks:
            MonomialIdeal._of_masks(X6, masks)
        with pytest.raises(ValueError) as by_monomials:
            MonomialIdeal(X6, tuple(gens))
        assert str(by_masks.value) == str(by_monomials.value)

    def test_levels_decide_squarefree_and_same_ideal(self):
        # (x, y) and (x^2, y) have the same masks under different levels.
        I = MonomialIdeal(XYZ, (mono(XYZ, "x"), mono(XYZ, "y")))
        J = MonomialIdeal(XYZ, (mono(XYZ, "x^2"), mono(XYZ, "y")))
        assert I._masks == J._masks
        assert I.is_squarefree() and not J.is_squarefree()
        assert not I.same_ideal(J) and I != J

    def test_order_sensitive_identity_and_set_equality(self):
        I = six_var_ideal()
        swapped = MonomialIdeal(
            I.vars, (I.generators[1], I.generators[0]) + I.generators[2:]
        )
        assert I != swapped
        assert I.same_ideal(swapped)


class TestPolarize:
    def test_two_variable_example(self):
        V = VariableSet(("x", "y"))
        I = MonomialIdeal(
            V, (Monomial(V, (2, 1)), Monomial(V, (0, 2)))
        )
        P, varmap = polarize(I)
        assert P.vars.names == ("x_1", "x_2", "y_1", "y_2")
        assert [str(g) for g in P.generators] == ["x_1*x_2*y_1", "y_1*y_2"]
        assert P.is_squarefree()
        assert varmap["x_2"] == ("x", 2)
        assert varmap["y_1"] == ("y", 1)

    def test_squarefree_identity(self):
        I = six_var_ideal()
        P, varmap = polarize(I)
        assert P == I
        assert varmap == {name: (name, 1) for name in I.vars.names}

    def test_principal_cube(self):
        V = VariableSet(("x",))
        P, _ = polarize(MonomialIdeal(V, (Monomial(V, (3,)),)))
        assert [str(g) for g in P.generators] == ["x_1*x_2*x_3"]

    def test_exponent_guard(self):
        V = VariableSet(("x",))
        I = MonomialIdeal(V, (Monomial(V, (POLARIZE_GUARD + 1,)),))
        with pytest.raises(ValueError, match=f"limit {POLARIZE_GUARD}"):
            polarize(I)

    @given(st.lists(nonunit_monomials(max_exp=3), min_size=1, max_size=4))
    def test_output_squarefree(self, gens):
        P, _ = polarize(minimalize(gens))
        assert P.is_squarefree()

    @given(st.lists(nonunit_monomials(max_exp=3), min_size=1, max_size=4))
    def test_copies_are_the_powers_that_divide(self, gens):
        # Copy (x, j) is 1 in P(g) iff x^j divides g, and g | h iff P(g) | P(h)
        # over the generators and their pairwise lcms.
        I = minimalize(gens)
        P, varmap = polarize(I)

        def pol(g):
            return Monomial(P.vars, tuple([
                int(g.exponents[I.vars.index(x)] >= j)
                for x, j in [varmap[name] for name in P.vars.names]
            ]))

        assert P.generators == tuple([pol(g) for g in I.generators])
        ms = [lcm(g, h) for g in I.generators for h in I.generators]
        for g in ms:
            for h in ms:
                assert divides(g, h) == divides(pol(g), pol(h))

    @given(squarefree_ideals())
    def test_squarefree_ideal_comes_back_with_the_identity(self, I):
        P, varmap = polarize(I)
        assert P is I
        assert varmap == {name: (name, 1) for name in I.vars.names}

    def test_copy_name_equal_to_a_kept_name(self):
        # x^2 needs the copies x_1 and x_2, and x_1 is already a variable.
        with pytest.raises(ValueError, match="duplicate variable name 'x_1'"):
            polarize(parse_ideal("x^2, x_1*y\n"))


class TestTextFormat:
    def test_round_trip_with_header(self):
        I = six_var_ideal()
        assert parse_ideal(format_ideal(I)) == I

    def test_inferred_variable_order(self):
        I = parse_ideal("x2*x1\nx3\n")
        assert I.vars.names == ("x2", "x1", "x3")

    def test_exponent_syntax(self):
        I = parse_ideal("x^2*y, y^2\n")
        assert [str(g) for g in I.generators] == ["x^2*y", "y^2"]

    def test_parse_error_names_position(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("x1*x2\nx1*&\n")
        assert err.value.line == 2
        assert "column" in str(err.value)

    def test_header_is_the_word_vars_alone(self):
        # A variable named like the header word is a generator factor.
        I = parse_ideal("vars2*x1, x2\n")
        assert I.vars.names == ("vars2", "x1", "x2")
        assert [str(g) for g in I.generators] == ["vars2*x1", "x2"]
        assert parse_ideal("vars\tx1 x2\nx1\n").vars.names == ("x1", "x2")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError):
            parse_ideal("vars x1 x2\nx1*x3\n")

    def test_unit_generator_rejected(self):
        with pytest.raises(ParseError):
            parse_ideal("x^0\n")

    @given(squarefree_ideals())
    def test_format_parse_round_trip(self, I):
        assert parse_ideal(format_ideal(I)) == I

    @pytest.mark.parametrize(
        "text, error, line, column, message",
        [
            ("vars\nx\n", ParseError, 1, 1, "empty vars header"),
            ("# c\n  vars  \nx\n", ParseError, 2, 1, "empty vars header"),
            ("x*&\n", ParseError, 1, 3, "bad factor '&'"),
            ("x * &\n", ParseError, 1, 5, "bad factor '&'"),
            ("x, y*2z\n", ParseError, 1, 6, "bad factor '2z'"),
            ("x^\n", ParseError, 1, 1, "bad factor 'x^'"),
            (" x ,  y ^ 2 * * z\n", ParseError, 1, 14, "bad factor ''"),
            ("", ParseError, 1, 1, "no generators found"),
            ("\n# c\n", ParseError, 2, 1, "no generators found"),
            (",, ,\n", ParseError, 1, 1, "no generators found"),
            ("vars x x\n", ParseError, 1, 1, "no generators found"),
            ("vars x 1y\nx\n", ValueError, None, None, "bad variable name '1y'"),
            ("vars x y x\nz\n", ValueError, None, None, "duplicate variable name 'x'"),
            ("vars x y\nx*z\n", ParseError, 2, 1, "variable 'z' not declared"),
            ("vars x\nx^0, y\n", ParseError, 2, 6, "variable 'y' not declared"),
            ("x^0\n", ParseError, 1, 1, "generator equal to 1"),
            ("x, x*y, y^0*z^0\n", ParseError, 1, 9, "generator equal to 1"),
            ("x, x*y\n", ValueError, None, None,
             "not a minimal generating set: not an antichain: x divides x*y; "
             "minimalize first"),
            # A bad factor anywhere beats an undeclared variable before it.
            ("vars x y\nx*z, y, &\n", ParseError, 2, 9, "bad factor '&'"),
            # A line of commas is body, so a later vars line is a factor.
            (",,,\nvars x\n", ParseError, 2, 1, "bad factor 'vars x'"),
            ("vars x\nvars y\n", ParseError, 2, 1, "bad factor 'vars y'"),
        ],
    )
    def test_error_messages_and_positions(self, text, error, line, column, message):
        with pytest.raises(ValueError) as err:
            parse_ideal(text)
        assert type(err.value) is error
        if error is ParseError:
            assert (err.value.line, err.value.column) == (line, column)
            assert str(err.value) == f"line {line}, column {column}: {message}"
        else:
            assert str(err.value) == message

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
    )
    def test_over_long_exponent_is_a_parse_error(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as err:
            parse_ideal(f"y,\n  z * x^{digits}\n")
        assert str(err.value) == "line 2, column 7: exponent too long"
