import pytest

from severi.words import (
    commutator,
    conjugate_of,
    cyclic_reduce,
    evaluate,
    inv,
    mul,
    reduce,
    w,
)


def test_reduce():
    assert reduce([("a", 1), ("a", -1)]) == ()
    assert reduce([("a", 1), ("b", 1), ("b", -1), ("a", 1)]) == (("a", 1), ("a", 1))


def test_letters_carry_unit_exponents():
    with pytest.raises(ValueError) as refused:
        w(("a", 2))
    assert str(refused.value) == "letters carry exponent +1 or -1"


def test_mul_inv():
    x = w("a", "b")
    assert mul(x, inv(x)) == ()
    assert inv(x) == (("b", -1), ("a", -1))


def test_commutator_trivial_on_same_letter():
    assert commutator(w("a"), w("a")) == ()


def test_cyclic_reduce_and_conjugacy():
    word = mul(w("b"), w("t"), inv(w("b")))
    assert cyclic_reduce(word) == w("t")
    assert conjugate_of(word, "t")
    assert not conjugate_of(mul(w("t"), w("t")), "t")
    assert not conjugate_of(inv(w("t")), "t")


def test_evaluate_left_to_right():
    from severi.monodromy import compose, identity, inverse

    values = {"a": (1, 2, 0), "b": (1, 0, 2)}
    word = w("a", "b")
    got = evaluate(word, values, compose, identity(3), inverse)
    assert got == compose(values["a"], values["b"])
    word = w(("a", -1))
    assert evaluate(word, values, compose, identity(3), inverse) == inverse(values["a"])
