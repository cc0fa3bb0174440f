from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repvar import cohomology, corpus, jets, repspace, unitary
from repvar.presentation import (
    ConjugacyClassSpec,
    ParseError,
    Peripheral,
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
        # the constructor's errors, raised as parse errors
        ("group g\nrank 0\ngenerators a\n", "rank must be >= 1, got 0"),
        ("group g\nrank -2\ngenerators a\n", "rank must be >= 1, got -2"),
        ("group g\nrank 2\ngenerators a\nperipheral P = a a' : 1/3, -1/3\n",
         "peripheral 'P': empty word"),
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


@pytest.mark.parametrize("text, column", [
    ("group g\nrank 1\ngenerators a\nperipheral Pb = a : 0\ntogether Pb the\n", 13),
    ("group g\nrank 1\ngenerators ab b\nrelator ab a\n", 12),
    ("group g\nrank 1\ngenerators a\nperipheral Pxq = a xq : 0\n", 20),
    ("group g\nrank 1\ngenerators a\n  frobnicate\n", 3),
], ids=["together", "relator", "peripheral", "directive"])
def test_parse_error_column_is_the_token(text, column):
    # the column of the token the error names, not of the first substring
    # of the line that matches it
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.column == column
    assert f"column {column}: " in str(err.value)


LONG = "x" * 3000


@pytest.mark.parametrize("text", [
    f"group g\nrank 1\ngenerators a\nperipheral P = a : {'9' * 2999}.9\n",
    f"group g\nrank 1\ngenerators a\nperipheral P = a : 1/{'0' * 2999}\n",
    f"group g\nrank 1\ngenerators a\nrelator a {LONG}'\n",
    f"group g\nrank 1\ngenerators a\n{LONG}\n",
    f"group g\nrank 1\ngenerators a {LONG}'\n",
    f"group g\nrank 1\ngenerators a {LONG} {LONG}\n",
    f"group g\nrank 1\ngenerators a\nperipheral {LONG} = a : 0\nperipheral {LONG} = a : 0\n",
    f"group g\nrank 1\ngenerators a\nperipheral {LONG} = a : 0, 0\n",
    f"group g\nrank 2\ngenerators a\nperipheral {LONG} = a a' : 0, 0\n",
    f"group g\nrank 1\ngenerators a\nperipheral P = a : 0\ntogether P {LONG}\n",
    f"group g\nrank 1\ngenerators a\nperipheral {LONG} = a : 0\ntogether {LONG}\n"
    f"together {LONG}\n",
], ids=["decimal_angle", "fraction_angle", "unknown_generator", "unknown_directive",
        "bad_generator_name", "duplicate_generator", "duplicate_peripheral", "angle_count",
        "empty_peripheral_word", "not_declared", "two_together_lines"])
def test_parse_error_shows_long_tokens_short(text):
    # every token a parse error names is shown as unitary values are: a
    # 3,000-character one by its first 40 characters
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert len(str(err.value)) < 200 and "..." in str(err.value)


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
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.line == 7


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


_P = Peripheral("P", ((0, 1),), ConjugacyClassSpec([0]))
_Q = Peripheral("Q", ((0, -1),), ConjugacyClassSpec([0]))


@pytest.mark.parametrize("args,kwargs,message", [
    ((0, ["a"]), {}, "rank must be >= 1, got 0"),
    ((1, ["a", "a"]), {}, "generator names must be unique"),
    ((1, ["a"]), {"peripherals": [_P, _P]}, "peripheral names must be unique"),
    ((2, ["a"]), {"peripherals": [_P]}, "peripheral 'P': 1 angles given, rank is 2"),
    ((1, ["a"]), {"peripherals": [Peripheral("P", ((0, 1), (0, -1)), ConjugacyClassSpec([0]))]},
     "peripheral 'P': empty word"),
    ((1, ["a"]), {"peripherals": [_P], "groups": [(0,), ()]},
     "simultaneity groups must be nonempty"),
    ((1, ["a"]), {"peripherals": [_P, _Q], "groups": [(0,), (0, 1)]},
     "peripheral index 0 in two simultaneity groups"),
    ((1, ["a"]), {"peripherals": [_P, _Q], "groups": [(1,)]},
     "simultaneity groups must cover all peripherals"),
    ((1, ["a"]), {"relators": [((1, 1),)]}, "generator index 1 out of range"),
    ((1, ["a"]), {"relators": [((0, 2),)]}, "letter sign must be +-1, got 2"),
])
def test_presentation_constructor_errors(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        Presentation("g", *args, **kwargs)
    assert str(err.value) == message


_NAMES = ("a", "b", "x1", "g_2")


@st.composite
def presentation_texts(draw):
    """Presentation texts: relators with inverse letters (some reducing to
    the empty word), peripherals with fraction, integer and decimal angles,
    and 'together' lines over a random subset of the peripherals in random
    order, one-member lines included."""
    rank = draw(st.integers(1, 3))
    gens = _NAMES[:draw(st.integers(1, len(_NAMES)))]
    letters = st.tuples(st.sampled_from(gens), st.booleans()).map(
        lambda x: x[0] + ("'" if x[1] else ""))
    fraction = st.tuples(st.integers(-20, 20), st.integers(1, 12)).map(lambda x: f"{x[0]}/{x[1]}")
    decimal = st.tuples(st.integers(-999, 999), st.integers(1, 3)).map(
        lambda x: str(Decimal(x[0]).scaleb(-x[1])))
    angle = st.one_of(fraction, decimal, st.integers(-2, 2).map(str))
    lines = [f"group g{draw(st.integers(0, 9))}", f"rank {rank}", "generators " + " ".join(gens)]
    for word in draw(st.lists(st.lists(letters, max_size=6), max_size=3)):
        lines.append(" ".join(["relator"] + word))
    names = [f"P{i}" for i in range(draw(st.integers(0, 4)))]
    for name in names:
        # freely reduced, so nonempty: a letter next to its inverse is skipped
        word = []
        for x in draw(st.lists(letters, min_size=1, max_size=5)):
            if not word or x == word[-1] or x.rstrip("'") != word[-1].rstrip("'"):
                word.append(x)
        angles = ", ".join(draw(angle) for _ in range(rank))
        lines.append(f"peripheral {name} = {' '.join(word)} : {angles}")
    order = draw(st.permutations(names))
    grouped = order[:draw(st.integers(0, len(order)))]
    while grouped:
        size = draw(st.integers(1, len(grouped)))
        lines.append("together " + " ".join(grouped[:size]))
        grouped = grouped[size:]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(presentation_texts())
@example("group g\nrank 1\ngenerators a b\nperipheral P0 = a : 0\nperipheral P1 = b : 0\n"
         "peripheral P2 = a b : 0\ntogether P1\ntogether P0 P2\n")
def test_parse_serialize_round_trip(text):
    first = parse_presentation(text)
    assert parse_presentation(serialize_presentation(first)) == first


# -- the record contract: README's "all values are immutable after
# construction", and the equality and hash callers key on


def test_exported_records_are_read_only(sphere4_cc):
    cc = sphere4_cc
    rep, basis = cc.rep, cohomology.h1_basis(cc)
    obstruction = cohomology.obstruction(cc, basis.vectors[0])
    report = jets.lift(cc, basis.vectors[0], 3)
    records = [rep.presentation.peripherals[0].klass, rep.presentation,
               rep.presentation.peripherals[0], rep, repspace.constraint_residual(rep),
               cohomology.coboundary(rep, unitary.random_skew(np.random.default_rng(0), rep.rank)),
               obstruction.representative, basis.dims, basis, obstruction,
               cohomology.pairing_tensor(cc, basis), jets.LiftOptions(), report.corrections,
               report, jets.probe_cone(cc, basis, samples=2, order=3)]
    assert {type(r).__name__ for r in records} == {
        "ConjugacyClassSpec", "Presentation", "Peripheral", "Representation", "Residuals",
        "Cochain1", "Cochain2", "Dims", "CohomologyBasis", "ObstructionClass",
        "PairingTensor", "LiftOptions", "JetRepresentation", "LiftReport", "ConeProbeReport"}
    for record in records:
        names = {*record._fields, *getattr(record, "__dict__", ())}
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.added = None


def test_obstruction_class_builds_defect_on_first_read(sphere4_cc):
    cc = sphere4_cc
    cls = cohomology.obstruction(cc, cohomology.h1_basis(cc).vectors[0])
    assert not {"defect", "representative"} & set(vars(cls))
    representative = cls.representative
    assert {"defect", "representative"} <= set(vars(cls))
    assert cls.representative is representative and isinstance(representative,
                                                              cohomology.Cochain2)
    assert cls.defect.tobytes() == cc.project_peripheral(cls.raw).tobytes()


def test_record_equality_and_hash():
    # equivalent angle multisets name one class, and one entry of the
    # class-target cache
    a = ConjugacyClassSpec([Fraction(1, 3), Fraction(-1, 3), 0.25])
    b = ConjugacyClassSpec([1.25, Fraction(2, 3), Fraction(4, 3)])
    assert a == b and hash(a) == hash(b)
    assert unitary._class_target(a) is unitary._class_target(b)
    assert a != ConjugacyClassSpec([Fraction(1, 3), Fraction(-1, 3), 0.5])
    # Dims equality ignores the rank gaps; each record has its own gaps
    dims = cohomology.Dims(1, 0, 4, 3, 1, 2, 1, gaps={"d1_par": 0.5})
    bare = cohomology.Dims(1, 0, 4, 3, 1, 2, 1)
    assert dims == bare and hash(dims) == hash(bare)
    assert dims != cohomology.Dims(0, 0, 4, 3, 1, 2, 1)
    assert bare.gaps == {} and bare.gaps is not cohomology.Dims(1, 0, 4, 3, 1, 2, 1).gaps


def test_report_equality_hash_and_repr(sphere4_cc):
    cc = sphere4_cc
    basis = cohomology.h1_basis(cc)
    first, again = (jets.lift(cc, basis.vectors[0], 3) for _ in range(2))
    # a lift report compares without its corrections, which are equal only
    # to themselves
    assert first == again and first.corrections != again.corrections
    assert first.corrections == first.corrections
    probes = [jets.probe_cone(cc, basis, samples=3, order=3, seed=5) for _ in range(2)]
    assert len(set(probes)) == 1 and repr(probes[0]) == repr(probes[1])
