"""Exact integer helpers: floor sums.

Everything here is pure and total on the documented domains; all arithmetic
uses Python's arbitrary-precision integers.
"""


def floor_sum(n, m, a, b):
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n, a, b >= 0 and m >= 1.

    Euclid-like reduction (AtCoder Library's floor_sum_unsigned): peel off
    the whole parts of a/m and b/m, then swap the roles of m and a to count
    the remaining lattice points under the line by columns.  O(log(m + a)).
    """
    if n < 0 or m < 1 or a < 0 or b < 0:
        raise ValueError("floor_sum needs n, a, b >= 0 and m >= 1")
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m
