"""Independent oracles: sigma_lattice checks torus.sigma_rec, and
alexander_t0, read from torus.alexander, checks heegaard.t0.  Each shares
no code with its engine but torus.check_pair and the errors classes
(tests/test_independence.py)."""

from .errors import ConsistencyError, InputError
from .numtheory import floor_sum
from .torus import check_pair


def sigma_lattice(p, q):
    """Independent lattice-point count of -signature(T(p,q)) >= 0.

    Counts grid points (i, j), 1 <= i < p, 1 <= j < q, with
    p*q < 2(i*q + j*p) < 3*p*q and returns 2*N_in - (p-1)(q-1).  The map
    (i, j) -> (p-i, q-j) swaps the two parts of the box outside the strip,
    so N_in = (p-1)(q-1) - 2F, where F counts the points with
    i*q + j*p <= c = floor((pq-1)/2).  There i < p/2 and j < q/2, so the
    box never clips them, and F sums floor((c - j*p)/q) over 1 <= j <= c/p:
    one floor_sum, O(log(p + q)) time.  Boundary equalities are impossible
    by coprimality and are asserted against.
    """
    check_pair("sigma_lattice", p, q)
    if p < 1 or q < 1:
        raise InputError("sigma_lattice expects p, q >= 1, got (%d, %d)"
                         % (p, q))
    if p * q % 2 == 0:
        # the only point of i*q + j*p = pq/2 with 0 <= i < p; the
        # reflection maps the 3pq/2 line onto this one
        i = p * q // 2 * pow(q, -1, p) % p
        j = (p * q // 2 - i * q) // p
        if i > 0 and 0 < j < q:
            raise ConsistencyError("boundary lattice point for (%d, %d)"
                                   % (p, q))
    c = (p * q - 1) // 2
    n = c // p
    return (p - 1) * (q - 1) - 4 * floor_sum(n, q, p, c - n * p)


def alexander_t0(delta):
    """Torsion coefficient sum_{e > 0} e * a_e of a symmetric coefficient
    map such as alexander(p, q): the independent oracle of heegaard.t0.
    Raises ConsistencyError if any coefficient differs from its mirror.
    """
    for e, c in delta.items():
        if delta.get(-e, 0) != c:
            raise ConsistencyError(
                "coefficient of T^%d is %d but of T^%d is %d"
                % (e, c, -e, delta.get(-e, 0)))
    return sum(e * c for e, c in delta.items() if e > 0)
