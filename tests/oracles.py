"""Reference implementations that only the tests use."""

from qwebs.mfcore import IrreducibleToFinite, _graded_quotient_dim
from qwebs.qpoly import LaurentPoly, NonExactDivision, qint


def qint_signed(n):
    """[n] for any integer, with [-n] = -[n]."""
    if n >= 0:
        return qint(n)
    return -qint(-n)


def certified_hilbert(ring, fs):
    """Hilbert series of Q[vars]/(fs), certified to be a complete intersection.

    The candidate series prod(1 - q^deg f) / prod(1 - q^deg y) must divide
    exactly, match the honestly computed graded dimensions up to its top
    degree T, and the quotient must stay zero on the window just above T.
    Anything else raises IrreducibleToFinite.
    """
    degs = [deg for _, deg in ring.gens]
    if len(fs) != len(degs):
        raise IrreducibleToFinite(
            f"{len(fs)} equations against {len(degs)} variables")
    if not degs:
        return LaurentPoly.one()
    dfs = [f.homogeneous_degree() for f in fs]
    num = LaurentPoly.one()
    for df in dfs:
        num = num * (LaurentPoly.one() - LaurentPoly.q_power(df))
    den = LaurentPoly.one()
    for dy in degs:
        den = den * (LaurentPoly.one() - LaurentPoly.q_power(dy))
    try:
        expected = num.exact_divide(den)
    except NonExactDivision:
        raise IrreducibleToFinite("candidate Hilbert series is not polynomial")
    T = sum(dfs) - sum(degs)
    if T < 0 or not expected.has_nonneg_coeffs():
        raise IrreducibleToFinite("candidate Hilbert series is not effective")
    for d in range(0, T + max(degs) + 1, 2):
        dim = _graded_quotient_dim(ring, fs, d)
        want = expected.coeff(d) if d <= T else 0
        if dim != want:
            raise IrreducibleToFinite(
                f"graded dimension {dim} at degree {d}, expected {want}")
    return expected
