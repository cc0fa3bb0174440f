from fractions import Fraction

import numpy as np
import pytest

from repvar import corpus
from repvar.presentation import (
    ConjugacyClassSpec,
    ParseError,
    Presentation,
    concat_words,
    invert_word,
    normalize_word,
    parse_presentation,
    serialize_presentation,
)

from conftest import corpus_files
from oracles import random_word

TORUS = "group t\nrank 1\ngenerators a b\nperipheral P = a b a' b' : 0\n"

SPHERE = (
    "group s\nrank 2\ngenerators a b c\nrelator a b c\n"
    "peripheral Pa = a : 1/3, -1/3\n"
    "peripheral Pb = b : 1/5, -1/5\n"
    "peripheral Pc = c : 1/7, -1/7\n"
)


def test_parse_torus_commutator():
    p = parse_presentation(TORUS)
    assert p.name == "t"
    assert p.generators == ("a", "b")
    assert p.relators == ()
    assert len(p.peripherals) == 1
    assert p.peripherals[0].word == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert p.groups == ((0,),)


def test_parse_sphere_angle_normalization():
    p = parse_presentation(SPHERE)
    assert len(p.generators) == 3
    assert len(p.relators) == 1
    expected = [
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 5), Fraction(4, 5)),
        (Fraction(1, 7), Fraction(6, 7)),
    ]
    for per, angles in zip(p.peripherals, expected):
        assert per.klass.angles == angles


def test_parse_empty_relator_warns():
    p = parse_presentation("group g\nrank 1\ngenerators a\nrelator a a'\nperipheral P = a : 0\n")
    assert p.relators == ((),)
    assert p.warnings and "empty" in p.warnings[0]


def test_parse_comments_and_blank_lines():
    text = "# heading\n\ngroup g # trailing\nrank 1\ngenerators a\n"
    p = parse_presentation(text)
    assert p.name == "g"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("group g\nrank 1\ngenerators a\nrelator a x\n", "unknown generator"),
        ("group g\nrank 2\ngenerators a\nperipheral P = a : 0\n", "rank is 2"),
        ("group g\nrank 1\ngenerators a a\n", "duplicate generator"),
        ("group g\nrank 1\ngenerators a\nperipheral P = a : 0\nperipheral P = a : 0\n", "duplicate peripheral"),
        ("group g\nrank 1\ngenerators a\nperipheral P = a : 0\ntogether Q\n", "not declared"),
        ("group g\nrank 1\ngenerators a\nfrobnicate\n", "unknown directive"),
        ("rank 1\ngenerators a\n", "missing 'group'"),
        ("group g\ngenerators a\n", "missing 'rank'"),
        ("group g\nrank 1\ngenerators a\nperipheral P = a : 1/0\n", "bad angle"),
        ("group g\nrank 1\ngenerators a\nperipheral P = a : nan\n", "bad angle"),
        ("group g\nrank 1\ngenerators a\nperipheral P = a : -inf\n", "bad angle"),
        ("group g\nrank 1\ngenerators a\nperipheral P = a : 1e400\n", "bad angle"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse_presentation("group g\nrank 1\ngenerators a\nrelator a x\n")
    assert err.value.line == 4


def test_together_groups():
    text = (
        "group g\nrank 1\ngenerators a b c\n"
        "peripheral P = a : 0\nperipheral Q = b : 0\nperipheral R = c : 0\n"
        "together P R\n"
    )
    p = parse_presentation(text)
    assert (0, 2) in p.groups
    assert (1,) in p.groups


def test_together_overlap_rejected():
    text = (
        "group g\nrank 1\ngenerators a b\n"
        "peripheral P = a : 0\nperipheral Q = b : 0\n"
        "together P Q\ntogether Q\n"
    )
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_normalize_word_examples():
    assert normalize_word([(0, 1), (0, -1)]) == ()
    assert normalize_word([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))


def test_normalize_word_random_inverse_cancellation():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = random_word(rng, 4, 20)
        assert concat_words(w, invert_word(w)) == ()


def test_normalize_word_idempotent_and_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = random_word(rng, 3, 15)
        v = random_word(rng, 3, 15)
        nu, nv = normalize_word(u), normalize_word(v)
        assert normalize_word(nu) == nu
        assert concat_words(u, v) == concat_words(nu, nv)


def test_class_spec_equality_and_normalization():
    a = ConjugacyClassSpec([Fraction(-1, 3), Fraction(1, 3)])
    b = ConjugacyClassSpec([Fraction(2, 3), Fraction(1, 3)])
    assert a == b
    assert a.as_floats() == (1 / 3, 2 / 3)
    assert ConjugacyClassSpec([0.25]) != ConjugacyClassSpec([Fraction(1, 3)])


def test_round_trip_on_corpus():
    files = corpus_files()
    assert files, "corpus directory is empty"
    for path in files:
        first = parse_presentation(path.read_text())
        again = parse_presentation(serialize_presentation(first))
        assert again == first


def test_corpus_files_are_the_builtin_texts():
    # library tests read corpus.TEXTS, the CLI tests the files: same bytes, same names
    files = {path.stem: path.read_bytes() for path in corpus_files()}
    assert files == {name: text.encode() for name, text in corpus.TEXTS.items()}


def test_round_trip_with_together_and_decimals():
    text = (
        "group g\nrank 2\ngenerators a b\n"
        "relator a b a' b'\n"
        "peripheral P = a : 0.125, 1/3\nperipheral Q = b : -0.125, 2/3\n"
        "together P Q\n"
    )
    first = parse_presentation(text)
    assert first.peripherals[0].klass.angles == (0.125, Fraction(1, 3))
    assert parse_presentation(serialize_presentation(first)) == first


def test_presentation_rejects_bad_groups():
    with pytest.raises(ValueError):
        Presentation("g", 1, ["a"], peripherals=[], groups=[(0,)])
