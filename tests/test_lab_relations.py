"""The three distinguished plane maps and their defining relations."""

from fractions import Fraction

from tameplane import compose_all, invert, vdk_factor
from tameplane.lab.relations import (
    addswap_linear,
    halving_homothety,
    relations_report,
    square_shear,
)


def test_homothety_commutes_with_the_linear_map():
    h, s = halving_homothety(), addswap_linear()
    assert h.compose(s) == s.compose(h)


def test_conjugation_squares_the_shear():
    h, t = halving_homothety(), square_shear()
    conj = compose_all(h, t, invert(h))
    assert conj == t.compose(t)


def test_linear_powers_are_not_triangular():
    s = addswap_linear()
    acc = s
    for n in range(1, 21):
        for g in (acc, invert(acc)):
            assert g.linear_part()[0][1], n
        acc = acc.compose(s)


def test_report_is_all_green():
    report = relations_report(word_trials=10, seed=2024)
    assert report.all_pass
    names = [rec.check for rec in report.records]
    assert names == [
        "homothety_commutes_with_linear",
        "conjugation_squares_the_shear",
        "linear_powers_leave_triangulars",
        "alternating_words_nontrivial",
    ]


def test_random_words_are_nontrivial_via_normal_form():
    import random
    from tameplane.lab.relations import _alternating_word
    rng = random.Random(77)
    for _ in range(10):
        g = _alternating_word(rng)
        word = vdk_factor(g)
        assert len(word) > 0 or not word.tail.is_identity()


def test_named_maps_have_the_advertised_matrices():
    h = halving_homothety()
    assert h.linear_part() == ((Fraction(1, 2), Fraction(0)),
                                      (Fraction(0), Fraction(1, 2)))
    s = addswap_linear()
    assert s.linear_part() == ((Fraction(1), Fraction(1)),
                                      (Fraction(1), Fraction(0)))
    t = square_shear()
    assert t.max_degree() == 2 and t.jacobian().constant_term() == Fraction(1)
