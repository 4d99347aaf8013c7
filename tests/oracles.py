"""Reference implementations that only the tests use."""

from qwebs.qpoly import qint


def qint_signed(n):
    """[n] for any integer, with [-n] = -[n]."""
    if n >= 0:
        return qint(n)
    return -qint(-n)
