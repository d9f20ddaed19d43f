"""Sparse integer Laurent polynomials in one variable T.

A polynomial is a mapping {exponent: coefficient} with no stored zero
coefficients; the zero polynomial is the empty mapping.  Values are never
mutated after construction.
"""

from .errors import ConsistencyError


class LaurentPoly:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[int(e)] = int(c)
        self._terms = t

    @classmethod
    def one(cls):
        return cls({0: 1})

    @property
    def terms(self):
        return dict(self._terms)

    def coeff(self, exponent):
        return self._terms.get(exponent, 0)

    def is_zero(self):
        return not self._terms

    def max_exp(self):
        return max(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def symmetric_coeffs(self):
        """Decompose a symmetric polynomial as a0 + sum a_j (T^j + T^-j).

        Returns (a0, [a_1, ..., a_d]) where d is the top exponent.  Raises
        ConsistencyError if any coefficient differs from its mirror.
        """
        for e, c in self._terms.items():
            if self._terms.get(-e, 0) != c:
                raise ConsistencyError(
                    "coefficient of T^%d is %d but of T^%d is %d"
                    % (e, c, -e, self._terms.get(-e, 0)))
        if self.is_zero():
            return 0, []
        d = max(self.max_exp(), 0)
        return self.coeff(0), [self.coeff(j) for j in range(1, d + 1)]

    def t0(self):
        """Torsion coefficient sum j*a_j of a symmetric polynomial."""
        _, a = self.symmetric_coeffs()
        return sum(j * aj for j, aj in enumerate(a, start=1))

    def eval_at_one(self):
        """Sum of all coefficients (the value at T = 1)."""
        return sum(self._terms.values())

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                var = "T" if e == 1 else "T^%d" % e
                body = mag + var
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%r)" % (self._terms,)
