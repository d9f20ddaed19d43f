import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import crosscap4
from crosscap4.bounds import invariants
from crosscap4.errors import ConsistencyError, InputError
from crosscap4.heegaard import t0
from crosscap4.oracle import alexander_t0, sigma_lattice
from crosscap4.torus import (Hand, TorusKnotClass, UNKNOT, alexander,
                             alexander_text, canonicalize, sigma_rec)
from oracles import alexander_family, mirror


def coprime_pairs(limit, q_min=2):
    for p in range(q_min + 1, limit + 1):
        for q in range(q_min, p):
            if math.gcd(p, q) == 1:
                yield p, q


# Coprime (p, q), p >= q >= 1, of genus (p-1)(q-1)/2 <= 10^4.
small_genus_pairs = st.integers(1, 142).flatmap(
    lambda q: st.tuples(st.integers(q, 1 + 2 * 10 ** 4 // max(q - 1, 1)),
                        st.just(q))).filter(lambda pq: math.gcd(*pq) == 1)

# Coefficient maps with some coefficient unequal to its mirror's.
asymmetric_maps = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6).filter(
        lambda d: any(d.get(-e, 0) != c for e, c in d.items()))


class TestCanonicalize:
    def test_double_flip_is_orientation_reversal(self):
        assert canonicalize(-3, -2) == TorusKnotClass(3, 2, Hand.RIGHT)

    def test_single_flip_mirrors(self):
        assert canonicalize(3, -2) == TorusKnotClass(3, 2, Hand.LEFT)

    def test_unknot_normal_form(self):
        assert canonicalize(1, -1) == UNKNOT
        assert canonicalize(0, 1) == UNKNOT
        assert canonicalize(1, 1) == UNKNOT

    def test_swap(self):
        assert canonicalize(2, 5) == TorusKnotClass(5, 2, Hand.RIGHT)

    def test_errors(self):
        with pytest.raises(InputError, match=r"class \(0, 0\) is not a knot"):
            canonicalize(0, 0)
        with pytest.raises(InputError, match=r"\(4, 6\) are not coprime"):
            canonicalize(4, 6)

    @given(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
           .filter(lambda ab: math.gcd(*ab) == 1),
           st.sampled_from([1, -1]), st.sampled_from([1, -1]))
    def test_one_sign_flip_mirrors(self, ab, sa, sb):
        # Negating both coordinates reverses orientation, negating one
        # mirrors, and swapping them changes nothing.
        a, b = ab
        K = canonicalize(a, b)
        expected = K if sa == sb else mirror(K)
        assert canonicalize(sa * a, sb * b) == expected
        assert canonicalize(sb * b, sa * a) == expected

    @given(st.integers(-10 ** 6, 10 ** 6), st.sampled_from([1, -1]))
    @example(0, -1)
    @example(0, 1)
    def test_zero_or_unit_coordinate_is_unknot(self, n, u):
        assert canonicalize(n, u) == canonicalize(u, n) == UNKNOT


def test_torus_knot_class_shape():
    K = TorusKnotClass(5, 3)
    assert TorusKnotClass._fields == ("p", "q", "hand")
    assert K.hand is Hand.RIGHT
    assert K == (5, 3, Hand.RIGHT) and not hasattr(K, "__dict__")
    assert str(K) == "T(5,3)" and str(K._replace(hand=Hand.LEFT)) == \
        "mirror T(5,3)"


class TestMirror:
    def test_flips_hand(self):
        assert mirror(TorusKnotClass(3, 2, Hand.RIGHT)) == \
            TorusKnotClass(3, 2, Hand.LEFT)

    def test_unknot_amphichiral(self):
        assert mirror(UNKNOT) == UNKNOT

    def test_involution(self):
        K = TorusKnotClass(7, 4, Hand.LEFT)
        assert mirror(mirror(K)) == K


class TestSigma:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 25])
    def test_q2_closed_form(self, p):
        assert sigma_rec(p, 2) == p - 1

    @pytest.mark.parametrize("p,q,expect", [
        (4, 3, 6), (6, 5, 16), (7, 3, 8), (5, 4, 8)])
    def test_known_values(self, p, q, expect):
        assert sigma_rec(p, q) == expect

    @pytest.mark.parametrize("p,q,expect", [(3, 2, 2), (5, 4, 8), (9, 4, 16)])
    def test_lattice_values(self, p, q, expect):
        assert sigma_lattice(p, q) == expect

    def test_engines_agree_small(self):
        for p, q in coprime_pairs(40):
            assert sigma_rec(p, q) == sigma_lattice(p, q), (p, q)
        for p in range(1, 41):  # the unknots T(p, 1) and T(1, p)
            assert sigma_lattice(p, 1) == sigma_lattice(1, p) == 0, p

    def test_symmetry_and_parity(self):
        for p, q in coprime_pairs(25):
            v = sigma_rec(p, q)
            assert v == sigma_rec(q, p)
            assert v >= 0 and v % 2 == 0

    def test_family_closed_form(self):
        for k in range(2, 51):
            assert sigma_rec(2 * k, 2 * k - 1) == 2 * k * k - 2

    def test_family_closed_form_huge(self):
        # one batched pass per Euclid-like step, not k reflections
        k = 10 ** 9
        assert sigma_rec(2 * k, 2 * k - 1) == 2 * k * k - 2

    def test_lattice_family_large(self):
        k = 10 ** 9
        assert sigma_lattice(2 * k, 2 * k - 1) == 2 * k * k - 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10 ** 18), st.data())
    def test_engines_agree_property(self, p, data):
        # d <= 20 gives the near-diagonal pairs q = p - d
        d = data.draw(st.one_of(st.integers(1, min(20, p - 1)),
                                st.integers(1, p - 1)))
        q = p - d
        assume(math.gcd(p, q) == 1)
        assert sigma_lattice(p, q) == sigma_rec(p, q)

    def test_not_coprime(self):
        with pytest.raises(InputError, match=r"\(6, 4\) are not coprime"):
            sigma_rec(6, 4)
        with pytest.raises(InputError, match=r"\(6, 4\) are not coprime"):
            sigma_lattice(6, 4)

    def test_out_of_range(self):
        with pytest.raises(InputError,
                           match="sigma_rec expects nonnegative arguments"):
            sigma_rec(-3, 2)
        with pytest.raises(InputError,
                           match="sigma_lattice expects p, q >= 1"):
            sigma_lattice(1, 0)


def signature(K):
    """Signature of K's hand, as the invariants kernel gives it."""
    sigma_right, sigma_left = invariants(K.p, K.q)[:2]
    return sigma_right if K.hand is Hand.RIGHT else sigma_left


class TestSignature:
    def test_trefoil(self):
        assert signature(TorusKnotClass(3, 2, Hand.RIGHT)) == -2

    def test_left_t43(self):
        assert signature(TorusKnotClass(4, 3, Hand.LEFT)) == 6

    def test_unknot(self):
        assert signature(UNKNOT) == 0

    def test_mirror_negates(self):
        for p, q in [(3, 2), (5, 3), (8, 5)]:
            K = TorusKnotClass(p, q, Hand.RIGHT)
            assert signature(mirror(K)) == -signature(K)


class TestAlexander:
    def test_trefoil(self):
        assert alexander(3, 2) == {1: 1, 0: -1, -1: 1}

    def test_t43(self):
        assert alexander(4, 3) == {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}

    def test_unknot(self):
        assert alexander(1, 0) == {0: 1}

    def test_rejects_negative_arguments(self):
        # T(-3,2) is the mirror trefoil, not an unknot
        for p, q in [(-3, 2), (3, -2), (-3, -2), (-1, 0)]:
            with pytest.raises(InputError,
                               match="alexander expects nonnegative"):
                alexander(p, q)

    def test_properties_small(self):
        for p, q in coprime_pairs(20):
            poly = alexander(p, q)
            assert all(poly.get(-e) == c for e, c in poly.items())
            assert sum(poly.values()) == 1
            assert max(poly) == (p - 1) * (q - 1) // 2
            assert set(poly.values()) <= {-1, 1}

    @given(small_genus_pairs)
    def test_properties_random(self, pq):
        poly = alexander(*pq)
        assert 0 not in poly.values()
        assert all(poly.get(-e) == c for e, c in poly.items())
        assert sum(poly.values()) == 1
        assert alexander_t0(poly) == t0(*pq)

    def test_family_formula(self):
        for k in range(2, 31):
            fam = alexander_family(k)
            assert fam == alexander(2 * k, 2 * k - 1), k
            assert sum(fam.values()) == 1

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_family_formula_rejects_small_k(self, k):
        with pytest.raises(InputError,
                           match=r"family formula needs k >= 2, got %d" % k):
            alexander_family(k)

    def test_t0(self):
        assert alexander_t0({1: 1, 0: -1, -1: 1}) == 1
        assert alexander_t0({0: 1}) == 0
        assert alexander_t0({}) == 0
        assert alexander_t0({3: 1, 2: -1, 0: 1, -2: -1, -3: 1}) == 1
        delta_3_5 = {4: 1, 3: -1, 1: 1, 0: -1, -1: 1, -3: -1, -4: 1}
        assert alexander_t0(delta_3_5) == 2

    def test_t0_names_the_mismatch(self):
        with pytest.raises(ConsistencyError, match=r"coefficient of "
                           r"T\^1 is 1 but of T\^-1 is 0"):
            alexander_t0({1: 1})

    @given(asymmetric_maps)
    def test_t0_rejects_asymmetric(self, delta):
        with pytest.raises(ConsistencyError, match="coefficient of T"):
            alexander_t0(delta)

    def test_render(self):
        assert alexander_text({3: 1, 2: -1, 0: 1, -2: -1, -3: 1}) == \
            "T^3 - T^2 + 1 - T^-2 + T^-3"
        assert alexander_text({}) == "0"
        assert alexander_text({1: 2, -1: -2}) == "2T - 2T^-1"
        assert alexander_text({0: -3}) == "-3"


def run_fresh(code):
    """stdout of `code` run by a fresh interpreter without the site hook
    (-S), which on some installs preloads modules such as typing and re:
    a guard that they stay unloaded would then pass without testing."""
    src = os.path.dirname(os.path.dirname(crosscap4.__file__))
    return subprocess.run([sys.executable, "-S", "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout


def cli_import_loads():
    """The top-level modules a fresh interpreter loads to import the CLI."""
    return set(run_fresh(
        "import sys; before = {m.split('.')[0] for m in sys.modules}; "
        "import crosscap4.cli; "
        "print(*{m.split('.')[0] for m in sys.modules} - before)").split())


def main_loads(argv, modules):
    """main(argv)'s exit code in a fresh interpreter, its output discarded,
    and which of modules it has loaded by then."""
    out = run_fresh(
        "import contextlib, io, sys; from crosscap4.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n        code = main(%r)\n"
        "    except SystemExit as exc:\n        code = exc.code\n"
        "print(code, *set(%r) & set(sys.modules))" % (argv, modules)).split()
    return int(out[0]), set(out[1:])


def test_cli_import_leaves_numpy_unloaded():
    # The library has no runtime dependency, so this holds whether or not
    # numpy is installed: the CLI loads standard-library modules only.
    loaded = cli_import_loads()
    assert "numpy" not in loaded
    assert {m for m in loaded if m not in sys.stdlib_module_names} == \
        {"crosscap4"}


@pytest.mark.parametrize("module", ["json", "dataclasses", "inspect",
                                    "argparse", "gettext", "locale",
                                    "fractions", "decimal", "numbers",
                                    "typing", "re", "os"])
def test_cli_import_leaves_module_unloaded(module):
    # reports formats JSON itself, so the stdlib encoder is only a test
    # oracle; the records are collections.namedtuples, so typing,
    # dataclasses and the inspect and re modules they load stay out of
    # start-up.  argparse, and the gettext and locale it loads, wait for a
    # command line that is not plain; fractions, and the decimal and
    # numbers it loads, wait for the audit; os waits for a closed stdout.
    assert module not in cli_import_loads()


@pytest.mark.parametrize("argv, code", [
    (["table", "--family", "2k", "--kmax", "3", "--json"], 0),
    (["signature", "6"], 2),  # argparse words the error
])
def test_only_a_command_line_that_is_not_plain_loads_argparse(argv, code):
    got, loaded = main_loads(argv, ["argparse", "locale"])
    assert got == code
    assert (loaded == set()) if code == 0 else ("argparse" in loaded)


@pytest.mark.parametrize("argv, loaded", [
    (["audit", "--g", "1", "--m", "2", "--d", "0"], {"fractions"}),
    (["table", "--family", "2k", "--kmax", "3", "--json"], set()),
    (["report", "7", "5", "--json"], set()),
])
def test_only_the_audit_loads_fractions(argv, loaded):
    assert main_loads(argv, ["fractions"]) == (0, loaded)


def test_only_long_printed_walks_build_the_table_of_tails():
    # pinch.batches builds its planes of "0000" to "9999" on first use, so the
    # commands that print no walk never pay for it, nor does a walk too
    # short for a block (pinch.MIN_BLOCK_ROWS): `report 8 7` prints 3 start
    # pairs through pinch.batches and `pinch 8 7` 3 steps.  The trace of
    # T(621645, 414437) prints a 4,933-step MIRRORED run.
    argvs = [["scan", "--max", "10", "--csv"],
             ["table", "--family", "2k", "--kmax", "3", "--json"],
             ["report", "8", "7", "--json"],
             ["pinch", "8", "7"],
             ["report", "621645", "414437", "--json"]]
    out = run_fresh(
        "import contextlib, io; from crosscap4 import cli, pinch\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    print(pinch._tails.cache_info().currsize)" % argvs)
    assert out.split() == ["0", "0", "0", "0", "1"]
